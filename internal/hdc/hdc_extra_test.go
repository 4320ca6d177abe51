package hdc

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: permutation composes additively — ρᵃ(ρᵇ(v)) = ρᵃ⁺ᵇ(v).
func TestPropertyPermuteComposes(t *testing.T) {
	f := func(seed int64, a, b int8) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 16 + rng.Intn(100)
		v := NewRandomBipolar(rng, d)
		lhs := v.Permute(int(a)).Permute(int(b))
		rhs := v.Permute(int(a) + int(b))
		for i := range lhs {
			if lhs[i] != rhs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: cosine similarity is symmetric and bounded.
func TestPropertyCosineSymmetricBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 40; trial++ {
		d := 8 + rng.Intn(256)
		a := NewRandomBipolar(rng, d)
		b := NewRandomBipolar(rng, d)
		ab, ba := a.Cosine(b), b.Cosine(a)
		if ab != ba {
			t.Fatal("cosine not symmetric")
		}
		if ab < -1-1e-12 || ab > 1+1e-12 {
			t.Fatalf("cosine out of bounds: %v", ab)
		}
	}
}

// Property: Hamming distance is a metric on packed binary vectors —
// symmetric, zero iff equal, triangle inequality.
func TestPropertyHammingMetric(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		d := 16 + rng.Intn(300)
		a := NewRandomBinary(rng, d)
		b := NewRandomBinary(rng, d)
		c := NewRandomBinary(rng, d)
		if a.Hamming(b) != b.Hamming(a) {
			t.Fatal("hamming not symmetric")
		}
		if a.Hamming(a) != 0 {
			t.Fatal("self distance nonzero")
		}
		if a.Hamming(c) > a.Hamming(b)+b.Hamming(c) {
			t.Fatal("triangle inequality violated")
		}
	}
}

// Property: bundling is order-invariant (accumulation commutes).
func TestPropertyBundleOrderInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := 512
	vs := make([]Bipolar, 5)
	for i := range vs {
		vs[i] = NewRandomBipolar(rng, d)
	}
	// Odd count → no ties → threshold is deterministic regardless of rng.
	acc1 := NewAccumulator(d)
	for _, v := range vs {
		acc1.Add(v)
	}
	acc2 := NewAccumulator(d)
	for i := len(vs) - 1; i >= 0; i-- {
		acc2.Add(vs[i])
	}
	b1 := acc1.Threshold(rand.New(rand.NewSource(9)))
	b2 := acc2.Threshold(rand.New(rand.NewSource(77)))
	for i := range b1 {
		if b1[i] != b2[i] {
			t.Fatal("bundle depends on accumulation order")
		}
	}
}

// The expected cosine between a k-vector bundle and a component is
// ≈ sqrt(2/(πk)); check the trend for growing k (capacity curve).
func TestBundleCapacityDecaysWithK(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const d = 8192
	meanCos := func(k int) float64 {
		vs := make([]Bipolar, k)
		acc := NewAccumulator(d)
		for i := range vs {
			vs[i] = NewRandomBipolar(rng, d)
			acc.Add(vs[i])
		}
		b := acc.Threshold(rng)
		var s float64
		for _, v := range vs {
			s += b.Cosine(v)
		}
		return s / float64(k)
	}
	c3, c9, c27 := meanCos(3), meanCos(9), meanCos(27)
	if !(c3 > c9 && c9 > c27) {
		t.Fatalf("bundle capacity not decaying: %v %v %v", c3, c9, c27)
	}
	// Theory check at k=9: sqrt(2/(9π)) ≈ 0.266.
	if math.Abs(c9-0.266) > 0.05 {
		t.Fatalf("k=9 component similarity %v, theory ≈0.266", c9)
	}
}

// TestAccumulatorCount pins that every Add counts once per component:
// after two bipolar vectors each sum is −2, 0 or 2.
func TestAccumulatorCount(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	acc := NewAccumulator(16)
	acc.Add(NewRandomBipolar(rng, 16))
	acc.Add(NewRandomBipolar(rng, 16))
	for i, s := range acc.sums {
		if s != -2 && s != 0 && s != 2 {
			t.Fatalf("sum[%d] = %d after two adds", i, s)
		}
	}
}

func TestNewAccumulatorPanicsOnBadDim(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for d=0")
		}
	}()
	NewAccumulator(0)
}

// TestBinaryCosineMatchesHammingIdentity pins cos = 1 − 2·h/d between
// the bipolar cosine and the packed Hamming distance of the same pair.
func TestBinaryCosineMatchesHammingIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := NewRandomBipolar(rng, 999)
	b := NewRandomBipolar(rng, 999)
	want := 1 - 2*float64(FromBipolar(a).Hamming(FromBipolar(b)))/999
	if math.Abs(a.Cosine(b)-want) > 1e-12 {
		t.Fatalf("cosine identity broken: %v vs %v", a.Cosine(b), want)
	}
}

func TestBinarySetBitOutOfRangePanics(t *testing.T) {
	b := NewBinary(10)
	defer func() {
		if recover() == nil {
			t.Fatal("SetBit out of range accepted")
		}
	}()
	b.SetBit(10, 1)
}

func TestItemMemoryTopKPanicsOnBadK(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	im := NewItemMemory(32)
	im.Store("a", NewRandomBinary(rng, 32))
	defer func() {
		if recover() == nil {
			t.Fatal("QueryTopK accepted k > len")
		}
	}()
	im.QueryTopK(NewBinary(32), 2)
}

func TestMemoryFootprintScalesLinearly(t *testing.T) {
	m1 := NewMemoryFootprint(28, 61, 312, 512)
	m2 := NewMemoryFootprint(28, 61, 312, 1024)
	if m2.FactoredBytes != 2*m1.FactoredBytes {
		t.Fatalf("footprint not linear in d: %d vs %d", m1.FactoredBytes, m2.FactoredBytes)
	}
	if math.Abs(m1.Reduction()-m2.Reduction()) > 1e-12 {
		t.Fatal("reduction should be independent of d")
	}
}
