package infer

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/attrenc"
	"repro/internal/dataset"
	"repro/internal/hdc"
	"repro/internal/imc"
	"repro/internal/tensor"
)

// Cross-backend parity: on the same frozen model, the float, packed-
// binary, and (ideal) crossbar backends must return identical top-1 and
// top-k predictions for every probe — ties included. The model is the
// paper's edge readout: bundled class prototypes from the HDC attribute
// encoder, probed with bit-flipped copies. Duplicate prototypes are
// stored deliberately to force exact score ties.
func TestCrossBackendParity(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const d = 1024
	schema := dataset.NewCUBSchema()
	enc := attrenc.NewHDCEncoder(rng, schema, d)

	cfg := dataset.DefaultConfig()
	cfg.NumClasses = 30
	data := dataset.Generate(cfg)

	// Frozen class memory: one bundled prototype per class, plus exact
	// duplicates of classes 0 and 7 appended at the end (ties on every
	// probe).
	var protos []*hdc.Binary
	for c := 0; c < cfg.NumClasses; c++ {
		protos = append(protos, enc.ClassPrototype(rng, data.ClassAttr.Row(c)))
	}
	protos = append(protos, protos[0].Clone(), protos[7].Clone())
	classes := len(protos)

	labels := make([]string, classes)
	im := hdc.NewItemMemory(d)
	phi := tensor.New(classes, d)
	for c, p := range protos {
		labels[c] = fmt.Sprintf("class%d", c)
		im.Store(labels[c], p)
		copy(phi.Row(c), p.ToBipolar().Float32())
	}

	// Probes: noisy copies of each prototype in both representations.
	nProbes := classes
	packed := make([]*hdc.Binary, nProbes)
	dense := tensor.New(nProbes, d)
	for p := 0; p < nProbes; p++ {
		v := protos[p%classes].Clone()
		for f := 0; f < d/8; f++ {
			i := rng.Intn(d)
			v.SetBit(i, 1-v.Bit(i))
		}
		packed[p] = v
		copy(dense.Row(p), v.ToBipolar().Float32())
	}
	batch := &Batch{Dense: dense, Packed: packed}

	const temp = 1.0
	backends := []Backend{
		NewFloatBackend(phi, labels, temp),
		NewBinaryBackend(im),
		NewCrossbarBackend(phi, labels, temp, imc.Ideal()),
	}

	const k = 7
	for _, workers := range []int{1, 3, 8} {
		var ref []Result
		for _, be := range backends {
			res := New(be, WithWorkers(workers)).Query(batch, k)
			if ref == nil {
				ref = res
				continue
			}
			for p := range res {
				for i := range res[p].TopK {
					got, want := res[p].TopK[i], ref[p].TopK[i]
					if got.Class != want.Class || got.Label != want.Label {
						t.Fatalf("workers=%d backend %q probe %d rank %d: class %d (%q), want %d (%q)",
							workers, be.Name(), p, i, got.Class, got.Label, want.Class, want.Label)
					}
				}
			}
		}
	}

	// The duplicated prototypes guarantee at least one exact tie pair per
	// probe; sanity-check that the dataset really exercises tie-breaking.
	res := New(backends[1], WithWorkers(3)).Query(batch, classes)
	foundTie := false
	for _, r := range res {
		for i := 1; i < len(r.TopK); i++ {
			if r.TopK[i].Score == r.TopK[i-1].Score {
				foundTie = true
				if r.TopK[i].Class < r.TopK[i-1].Class {
					t.Fatalf("tied classes %d, %d out of index order", r.TopK[i-1].Class, r.TopK[i].Class)
				}
			}
		}
	}
	if !foundTie {
		t.Fatal("parity fixture produced no exact ties; duplicates missing?")
	}

	// Scores agree across the float and binary paths up to float32
	// rounding: cos = 1 − 2h/d.
	fRes := New(backends[0]).Query(batch, k)
	bRes := New(backends[1]).Query(batch, k)
	for p := range fRes {
		for i := range fRes[p].TopK {
			if diff := math.Abs(fRes[p].TopK[i].Score - bRes[p].TopK[i].Score); diff > 1e-5 {
				t.Fatalf("probe %d rank %d: float score %v vs binary score %v",
					p, i, fRes[p].TopK[i].Score, bRes[p].TopK[i].Score)
			}
		}
	}
}

// The float backend and an ideal crossbar must agree bit-for-bit (same
// float32 accumulation order), even on arbitrary real-valued embeddings.
func TestFloatAndIdealCrossbarBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	const classes, d, n = 23, 96, 11
	phi := tensor.Randn(rng, 1, classes, d)
	x := tensor.Randn(rng, 1, n, d)
	batch := DenseBatch(x)
	fRes := New(NewFloatBackend(phi, nil, 0.05), WithWorkers(4)).Query(batch, classes)
	xRes := New(NewCrossbarBackend(phi, nil, 0.05, imc.Ideal()), WithWorkers(4)).Query(batch, classes)
	for p := 0; p < n; p++ {
		for i := 0; i < classes; i++ {
			f, c := fRes[p].TopK[i], xRes[p].TopK[i]
			if f.Class != c.Class || f.Score != c.Score {
				t.Fatalf("probe %d rank %d: float (%d, %v) vs ideal crossbar (%d, %v)",
					p, i, f.Class, f.Score, c.Class, c.Score)
			}
		}
	}
}

// Under analog non-idealities predictions may drift, but the engine must
// remain deterministic for a fixed tile layout: two engines with the
// same worker count over freshly built noisy backends agree exactly.
func TestCrossbarBackendDeterministicPerLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const classes, d, n = 19, 128, 6
	phi := tensor.Rademacher(rng, classes, d)
	x := tensor.Randn(rng, 1, n, d)
	mk := func() []Result {
		be := NewCrossbarBackend(phi, nil, 0.1, imc.TypicalPCM())
		return New(be, WithWorkers(4)).Query(DenseBatch(x), 3)
	}
	a, b := mk(), mk()
	for p := range a {
		for i := range a[p].TopK {
			if a[p].TopK[i] != b[p].TopK[i] {
				t.Fatalf("noisy crossbar nondeterministic at probe %d rank %d", p, i)
			}
		}
	}
}

// The packed row source: float and crossbar backends over an item
// memory's sign words must score bit-for-bit like the dense backends
// over the expanded ±1 matrix — at word-boundary dimensions, on shard
// ranges whose widths straddle the GEMM's 16-wide panels, at every
// worker count, and under seeded analog noise, which would drift if the
// per-tile seed offset were applied twice or not at all.
func TestItemRowSourceParity(t *testing.T) {
	const classes, n, temp = 37, 5, 0.5
	ranges := [][2]int{{0, 1}, {0, 17}, {5, 20}, {17, classes}, {0, classes}}
	for _, d := range []int{1, 63, 64, 65, 1536, 2047} {
		rng := rand.New(rand.NewSource(int64(d)))
		im := hdc.NewItemMemory(d)
		phi := tensor.New(classes, d)
		labels := make([]string, classes)
		for c := range labels {
			labels[c] = fmt.Sprintf("class%d", c)
			v := hdc.NewRandomBinary(rng, d)
			im.Store(labels[c], v)
			copy(phi.Row(c), v.ToBipolar().Float32())
		}
		batch := DenseBatch(tensor.Randn(rng, 1, n, d))
		for _, pair := range []struct {
			name         string
			dense, items Backend
		}{
			{"float", NewFloatBackend(phi, labels, temp), NewItemFloatBackend(im, temp)},
			{"imc-ideal", NewCrossbarBackend(phi, labels, temp, imc.Ideal()), NewItemCrossbarBackend(im, temp, imc.Ideal())},
			{"imc-pcm", NewCrossbarBackend(phi, labels, temp, imc.TypicalPCM()), NewItemCrossbarBackend(im, temp, imc.TypicalPCM())},
		} {
			for _, r := range ranges {
				want, got := scoreShard(pair.dense, batch, r), scoreShard(pair.items, batch, r)
				for p := range want {
					for j := range want[p] {
						if math.Float64bits(got[p][j]) != math.Float64bits(want[p][j]) {
							t.Fatalf("d=%d %s [%d,%d) probe %d class %d: items %v, dense %v",
								d, pair.name, r[0], r[1], p, r[0]+j, got[p][j], want[p][j])
						}
					}
				}
			}
			for _, workers := range []int{1, 3, 4} {
				want := New(pair.dense, WithWorkers(workers)).Query(batch, classes)
				got := New(pair.items, WithWorkers(workers)).Query(batch, classes)
				for p := range want {
					for i := range want[p].TopK {
						if got[p].TopK[i] != want[p].TopK[i] {
							t.Fatalf("d=%d %s workers=%d probe %d rank %d: items %+v, dense %+v",
								d, pair.name, workers, p, i, got[p].TopK[i], want[p].TopK[i])
						}
					}
				}
			}
		}
		// Pin the offset itself: a tile at row lo draws exactly the noise
		// imc assigns to a tile programmed at that offset.
		for _, r := range ranges {
			rows := tensor.FromSlice(phi.Data[r[0]*d:r[1]*d], r[1]-r[0], d)
			want := imc.NewSimilarityKernelRows(rows, r[0], temp, imc.TypicalPCM()).Logits(batch.Dense)
			got := scoreShard(NewItemCrossbarBackend(im, temp, imc.TypicalPCM()), batch, r)
			for p := range got {
				for j, v := range got[p] {
					if v != float64(want.At(p, j)) {
						t.Fatalf("d=%d noisy tile [%d,%d) probe %d class %d: %v, imc %v",
							d, r[0], r[1], p, r[0]+j, v, want.At(p, j))
					}
				}
			}
		}
	}
}

// scoreShard runs one ScoreShard call over range r into fresh rows.
func scoreShard(be Backend, batch *Batch, r [2]int) [][]float64 {
	out := make([][]float64, batch.Len())
	for p := range out {
		out[p] = make([]float64, r[1]-r[0])
	}
	be.ScoreShard(batch, r[0], r[1], out)
	return out
}
