package infer

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/tensor"
)

// randDense fills an [n, d] tensor with uniform values in [-1, 1).
func randDense(rng *rand.Rand, n, d int) *tensor.Tensor {
	x := tensor.New(n, d)
	for i := range x.Data {
		x.Data[i] = rng.Float32()*2 - 1
	}
	return x
}

// newTestFloatBackend builds a float backend over a random class memory.
func newTestFloatBackend(rng *rand.Rand, classes, d int) *FloatBackend {
	return NewFloatBackend(randDense(rng, classes, d), nil, 1)
}

// mergeSplit runs the engine's scatter-gather selection by hand over an
// arbitrary contiguous split of one score row: per-range selectTopK,
// concatenate, sort by HitLess, take k — exactly TryQueryInto's phase
// 1 + 2.
func mergeSplit(scores []float64, ranges [][2]int, k int) []Hit {
	var cands []Hit
	for _, r := range ranges {
		lo, hi := r[0], r[1]
		kk := k
		if w := hi - lo; kk > w {
			kk = w
		}
		dst := make([]Hit, kk)
		selectTopK(scores[lo:hi], lo, dst)
		cands = append(cands, dst...)
	}
	sort.Sort(&HitSorter{H: cands})
	if len(cands) > k {
		cands = cands[:k]
	}
	return cands
}

// TestMergeTieBreakInvariantAcrossSplits is the property test of the
// documented ordering contract: for score rows dense with exact ties,
// the merged top-k is identical whether the class space is scanned
// whole or split into 1/2/4/8 contiguous shards — the invariant the
// distributed scatter-gather path (internal/dist) rides on. Ties must
// resolve to the lowest class index at every split, so the oracle is
// the 1-shard scan of the full row.
func TestMergeTieBreakInvariantAcrossSplits(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const classes = 97 // awkward odd count: uneven ranges at every split
	for trial := 0; trial < 200; trial++ {
		// Few distinct score levels → many exact ties, including across
		// future shard boundaries.
		levels := 1 + rng.Intn(5)
		scores := make([]float64, classes)
		for i := range scores {
			scores[i] = float64(rng.Intn(levels)) / 3
		}
		k := 1 + rng.Intn(classes+4) // sometimes k > classes/shard width
		if k > classes {
			k = classes
		}
		want := mergeSplit(scores, SplitRanges(classes, 1), k)
		for i, h := range want {
			// The contract itself, spelled out: equal scores in the prefix
			// must appear in ascending class order.
			if i > 0 && want[i-1].Score == h.Score && want[i-1].Class >= h.Class {
				t.Fatalf("trial %d: oracle violates lowest-index tie-break at %d: %+v", trial, i, want)
			}
		}
		for _, shards := range []int{2, 4, 8} {
			got := mergeSplit(scores, SplitRanges(classes, shards), k)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: %d-shard merge diverges for k=%d:\n got %+v\nwant %+v",
					trial, shards, k, got, want)
			}
		}
	}
}

// TestSplitRangesCoversContiguously pins SplitRanges' shape: contiguous
// cover of [0, classes), near-equal widths, shards clamped to classes.
func TestSplitRangesCoversContiguously(t *testing.T) {
	for classes := 1; classes <= 40; classes++ {
		for shards := 1; shards <= classes+3; shards++ {
			ranges := SplitRanges(classes, shards)
			wantShards := shards
			if wantShards > classes {
				wantShards = classes
			}
			if len(ranges) != wantShards {
				t.Fatalf("SplitRanges(%d, %d): %d ranges", classes, shards, len(ranges))
			}
			lo := 0
			for _, r := range ranges {
				if r[0] != lo || r[1] <= r[0] {
					t.Fatalf("SplitRanges(%d, %d): gap or empty range %v", classes, shards, ranges)
				}
				if w := r[1] - r[0]; w > classes/wantShards+1 {
					t.Fatalf("SplitRanges(%d, %d): range %v wider than near-equal", classes, shards, r)
				}
				lo = r[1]
			}
			if lo != classes {
				t.Fatalf("SplitRanges(%d, %d): cover stops at %d", classes, shards, lo)
			}
		}
	}
}

// TestRangeBackendMatchesGlobalSlice pins the RangeBackend adapter:
// querying an engine over a range view returns the global engine's hits
// for that range, with classes shifted by the base and the fused
// selector fast path preserved (binary backend implements it).
func TestRangeBackendMatchesGlobalSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const classes, d, n, k = 23, 256, 5, 23
	global := newTestFloatBackend(rng, classes, d)
	batch := DenseBatch(randDense(rng, n, d))

	full := New(global, WithWorkers(3)).Query(batch, k)
	for _, r := range [][2]int{{0, 9}, {9, 16}, {16, 23}} {
		rb := NewRangeBackend(global, r[0], r[1])
		if rb.Classes() != r[1]-r[0] {
			t.Fatalf("range %v: Classes() = %d", r, rb.Classes())
		}
		local := New(rb, WithWorkers(2)).Query(batch, k)
		for p := 0; p < n; p++ {
			// Filter the global ranking down to this range: must equal the
			// local ranking shifted by base.
			var want []Hit
			for _, h := range full[p].TopK {
				if h.Class >= r[0] && h.Class < r[1] {
					want = append(want, h)
				}
			}
			got := local[p].TopK
			if len(got) != len(want) {
				t.Fatalf("range %v probe %d: %d local hits, want %d", r, p, len(got), len(want))
			}
			for i := range got {
				g := got[i]
				g.Class += r[0]
				if g != want[i] {
					t.Fatalf("range %v probe %d hit %d: got %+v (shifted), want %+v", r, p, i, g, want[i])
				}
			}
		}
	}
}
