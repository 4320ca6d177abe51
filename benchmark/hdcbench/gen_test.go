package main

import (
	"bytes"
	"testing"
)

func poolsEqual(a, b *pools) bool {
	for i := range a.bodies {
		if !bytes.Equal(a.bodies[i], b.bodies[i]) || !bytes.Equal(a.enrollBody(i), b.enrollBody(i)) {
			return false
		}
	}
	return true
}

func TestSameSeedSameBodies(t *testing.T) {
	for _, w := range workloads[:3] {
		a, b, c := genPools(w, 5), genPools(w, 5), genPools(w, 6)
		if len(a.bodies) != poolSize {
			t.Fatalf("%s: %d bodies", w.name, len(a.bodies))
		}
		if !poolsEqual(a, b) {
			t.Errorf("%s: the same seed produced different bodies", w.name)
		}
		if poolsEqual(a, c) {
			t.Errorf("%s: different seeds produced the same bodies", w.name)
		}
		for i := range 200 {
			ka, sa := a.pick(i)
			kb, sb := b.pick(i)
			if ka != kb || sa != sb {
				t.Fatalf("%s: request %d differs between equal seeds", w.name, i)
			}
		}
	}
}

func TestStreamMixMatchesTheWorkload(t *testing.T) {
	w, _ := findWorkload("classify_enroll")
	p := genPools(w, 1)
	const n = 100000
	enrolls := 0
	slots := map[int]bool{}
	for i := range n {
		kind, slot := p.pick(i)
		if kind == kindEnroll {
			enrolls++
		} else {
			slots[slot] = true
		}
	}
	if frac := float64(enrolls) / n; frac < 0.027 || frac > 0.033 {
		t.Errorf("enroll share %.4f, want about %.2f", frac, w.enrollFrac)
	}
	if len(slots) != poolSize {
		t.Errorf("stream touches %d of %d pool slots", len(slots), poolSize)
	}
	if a, b := p.enrollLabel(1), p.enrollLabel(2); a == b {
		t.Errorf("enroll labels repeat: %q", a)
	}

	embed, _ := findWorkload("embed_classify")
	if kind, _ := genPools(embed, 1).pick(0); kind != kindEmbed {
		t.Errorf("embed stream produced kind %d", kind)
	}
}
