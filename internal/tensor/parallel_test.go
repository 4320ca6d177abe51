package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// bitsEqual reports whether two tensors are bitwise identical (exact
// float32 bit patterns, not just numerically close).
func bitsEqual(a, b *Tensor) bool {
	if !a.SameShape(b) {
		return false
	}
	for i := range a.Data {
		if math.Float32bits(a.Data[i]) != math.Float32bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// TestMatMulIntoMatchesMatMul pins the allocation-free entry point:
// GemmInto overwrites a stale dst with MatMul's exact bits.
func TestMatMulIntoMatchesMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := Randn(rng, 1, 37, 53)
	b := Randn(rng, 1, 53, 29)
	want := MatMul(a, b)
	dst := Full(99, 37, 29) // stale contents must be overwritten
	GemmInto(dst, a, b, GemmOpts{})
	if !bitsEqual(dst, want) {
		t.Fatal("GemmInto differs from MatMul")
	}
}

// TestMatMulTIntoMatchesMatMulT pins the pre-transposed pack: GemmInto
// over PackBT(b) is bitwise MatMul against the materialized transpose,
// and matches MatMulT's row-dot kernel to float tolerance.
func TestMatMulTIntoMatchesMatMulT(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := Randn(rng, 1, 17, 64)
	b := Randn(rng, 1, 23, 64)
	dst := Full(-3, 17, 23)
	GemmInto(dst, a, nil, GemmOpts{PB: PackBT(b)})
	if !bitsEqual(dst, MatMul(a, Transpose2D(b))) {
		t.Fatal("GemmInto over PackBT differs from MatMul against the transpose")
	}
	want := MatMulT(a, b)
	for i := range want.Data {
		if !almostEq(dst.Data[i], want.Data[i], 1e-4) {
			t.Fatalf("GemmInto over PackBT [%d] = %v, MatMulT %v", i, dst.Data[i], want.Data[i])
		}
	}
}

// TestParallelMatMulBitwiseAcrossWorkers pins the invariant the
// shared-read inference path depends on: work split by ParallelRows (or
// across GEMM column panels) is bit-identical for every worker count,
// because each output element is computed by exactly one worker in
// serial kernel order.
func TestParallelMatMulBitwiseAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := Randn(rng, 1, 70, 130) // sizes straddle blockSize boundaries
	b := Randn(rng, 1, 130, 66)
	bt := Transpose2D(b)
	want, wantT := MatMul(a, b), MatMulT(a, bt)
	for _, workers := range []int{0, 1, 2, 3, 7, 70, 1000} {
		dst := New(70, 66)
		GemmInto(dst, a, b, GemmOpts{Workers: workers})
		if !bitsEqual(dst, want) {
			t.Fatalf("GemmInto(workers=%d) differs from serial MatMul", workers)
		}
		dstT := New(70, 66)
		ParallelRows(70, workers, func(lo, hi int) {
			matmulTRows(dstT.Data, a.Data, bt.Data, lo, hi, 130, 66)
		})
		if !bitsEqual(dstT, wantT) {
			t.Fatalf("ParallelRows(workers=%d) differs from serial MatMulT", workers)
		}
	}
}

func TestParallelRowsCoversEveryRowOnce(t *testing.T) {
	for _, rows := range []int{0, 1, 2, 5, 64} {
		for _, workers := range []int{1, 2, 3, 64, 100} {
			seen := make([]int32, rows)
			ParallelRows(rows, workers, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					seen[i]++ // blocks are disjoint, so no atomics needed
				}
			})
			for i, n := range seen {
				if n != 1 {
					t.Fatalf("rows=%d workers=%d: row %d covered %d times", rows, workers, i, n)
				}
			}
		}
	}
}

// TestArenaGrabDisjoint pins that live grabs never alias; reuse after
// Reset is TestArenaGrabWrap's.
func TestArenaGrabDisjoint(t *testing.T) {
	var a Arena
	x := a.Wrap(a.Grab(32), 4, 8)
	for i := range x.Data {
		x.Data[i] = 7
	}
	y := a.Wrap(a.Grab(32), 4, 8)
	for i := range y.Data {
		y.Data[i] = 9
	}
	for _, v := range x.Data {
		if v != 7 {
			t.Fatal("second grab overlaps the first")
		}
	}
}

func TestArenaCoalescesAfterOverflow(t *testing.T) {
	var a Arena
	// Force several slabs: allocations larger than the minimum slab.
	for i := 0; i < 3; i++ {
		a.Grab(arenaMinSlab + 1)
	}
	if len(a.slabs) != 3 {
		t.Fatalf("want 3 slabs before Reset, have %d", len(a.slabs))
	}
	total := a.total
	a.Reset()
	if len(a.slabs) != 1 || a.total != total {
		t.Fatalf("Reset should coalesce to one slab of capacity %d, have %d slabs cap %d",
			total, len(a.slabs), a.total)
	}
	// The coalesced slab now serves the same workload allocation-free.
	for i := 0; i < 3; i++ {
		a.Grab(arenaMinSlab + 1)
	}
	if len(a.slabs) != 1 {
		t.Fatalf("coalesced slab should absorb the workload, have %d slabs", len(a.slabs))
	}
}
