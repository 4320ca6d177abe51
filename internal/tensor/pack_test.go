package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// blockSize is the cache-blocking tile edge of the reference kernel
// matmulRefInto.
const blockSize = 64

// matmulRefInto is the pre-packing kernel — a blocked i-k-j loop with a
// zero-skip branch — kept as the reference the packed GEMM's parity
// tests compare against (the two accumulate in different orders, so the
// comparison is tolerance-based). dst must be pre-zeroed; it accumulates.
func matmulRefInto(dst, a, b []float32, m, k, n int) {
	for i0 := 0; i0 < m; i0 += blockSize {
		iMax := min(i0+blockSize, m)
		for k0 := 0; k0 < k; k0 += blockSize {
			kMax := min(k0+blockSize, k)
			for i := i0; i < iMax; i++ {
				di := dst[i*n : (i+1)*n]
				ai := a[i*k : (i+1)*k]
				for p := k0; p < kMax; p++ {
					av := ai[p]
					if av == 0 {
						continue
					}
					bp := b[p*n : (p+1)*n]
					for j := range di {
						di[j] += av * bp[j]
					}
				}
			}
		}
	}
}

// refGemm is a float64 oracle for tolerance comparisons: the packed GEMM
// and the reference kernel matmulRefInto accumulate float32 in different
// orders, so both are checked against the same float64 product.
func refGemm(a, b *Tensor) []float64 {
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(1)
	out := make([]float64, m*n)
	for i := 0; i < m; i++ {
		for p := 0; p < k; p++ {
			av := float64(a.Data[i*k+p])
			for j := 0; j < n; j++ {
				out[i*n+j] += av * float64(b.Data[p*n+j])
			}
		}
	}
	return out
}

// gemmEdgeShapes exercises every remainder case of the packed kernel:
// m/n not multiples of the micro-tile, k not a multiple of the k-slice,
// degenerate k=1 / n=1 / m=1, and shapes straddling gemmKC.
var gemmEdgeShapes = []struct{ m, k, n int }{
	{1, 1, 1},
	{1, 7, 1},
	{3, 1, 9},
	{1, 300, 1},
	{gemmMR, 5, gemmNR},
	{gemmMR + 1, 5, gemmNR + 3},
	{gemmMR - 1, 17, gemmNR - 1},
	{5, gemmKC, 9},
	{6, gemmKC + 1, 10},
	{7, gemmKC - 1, 11},
	{13, 2*gemmKC + 3, 21},
	{64, 64, 64},
	{65, 63, 129},
	{32, 288, 130},
}

// TestGEMMEdgeShapesMatchReference pins the packed kernel against the
// float64 oracle and the retained reference kernel on every edge shape.
func TestGEMMEdgeShapesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, sh := range gemmEdgeShapes {
		t.Run(fmt.Sprintf("%dx%dx%d", sh.m, sh.k, sh.n), func(t *testing.T) {
			a := Randn(rng, 1, sh.m, sh.k)
			b := Randn(rng, 1, sh.k, sh.n)
			want := refGemm(a, b)

			got := Full(42, sh.m, sh.n) // stale contents must be overwritten
			GemmInto(got, a, b, GemmOpts{})

			ref := New(sh.m, sh.n)
			matmulRefInto(ref.Data, a.Data, b.Data, sh.m, sh.k, sh.n)

			tol := 1e-4 * math.Sqrt(float64(sh.k))
			for i := range want {
				if math.Abs(float64(got.Data[i])-want[i]) > tol {
					t.Fatalf("packed[%d] = %v, oracle %v", i, got.Data[i], want[i])
				}
				if math.Abs(float64(ref.Data[i])-want[i]) > tol {
					t.Fatalf("reference[%d] = %v, oracle %v", i, ref.Data[i], want[i])
				}
			}
		})
	}
}

// TestGEMMBitwiseAcrossWorkers pins the determinism contract: any worker
// budget, with or without a pre-packed B, produces the serial bits.
func TestGEMMBitwiseAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, sh := range gemmEdgeShapes {
		a := Randn(rng, 1, sh.m, sh.k)
		b := Randn(rng, 1, sh.k, sh.n)
		want := New(sh.m, sh.n)
		GemmInto(want, a, b, GemmOpts{})
		pb := PackB(b)
		for _, workers := range []int{0, 1, 2, 3, 7, 64} {
			got := New(sh.m, sh.n)
			GemmInto(got, a, b, GemmOpts{Workers: workers})
			if !bitsEqual(got, want) {
				t.Fatalf("%dx%dx%d workers=%d differs from serial", sh.m, sh.k, sh.n, workers)
			}
			got.Fill(-1)
			GemmInto(got, a, nil, GemmOpts{Workers: workers, PB: pb})
			if !bitsEqual(got, want) {
				t.Fatalf("%dx%dx%d workers=%d with PackedB differs from serial", sh.m, sh.k, sh.n, workers)
			}
		}
	}
}

// TestGEMMFusedBiasMatchesSeparatePass pins the epilogue contract: the
// fused row/column bias is bitwise identical to a separate bias add after
// the full product.
func TestGEMMFusedBiasMatchesSeparatePass(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, sh := range gemmEdgeShapes {
		a := Randn(rng, 1, sh.m, sh.k)
		b := Randn(rng, 1, sh.k, sh.n)
		rowBias := Randn(rng, 1, sh.m)
		colBias := Randn(rng, 1, sh.n)

		plain := New(sh.m, sh.n)
		GemmInto(plain, a, b, GemmOpts{})

		wantRow := plain.Clone()
		for i := 0; i < sh.m; i++ {
			for j := 0; j < sh.n; j++ {
				wantRow.Data[i*sh.n+j] += rowBias.Data[i]
			}
		}
		gotRow := New(sh.m, sh.n)
		GemmInto(gotRow, a, b, GemmOpts{RowBias: rowBias.Data, Workers: 3})
		if !bitsEqual(gotRow, wantRow) {
			t.Fatalf("%dx%dx%d fused row bias differs from separate pass", sh.m, sh.k, sh.n)
		}

		wantCol := plain.Clone()
		for i := 0; i < sh.m; i++ {
			for j := 0; j < sh.n; j++ {
				wantCol.Data[i*sh.n+j] += colBias.Data[j]
			}
		}
		gotCol := New(sh.m, sh.n)
		GemmInto(gotCol, a, b, GemmOpts{ColBias: colBias.Data, Workers: 2})
		if !bitsEqual(gotCol, wantCol) {
			t.Fatalf("%dx%dx%d fused col bias differs from separate pass", sh.m, sh.k, sh.n)
		}
	}
}

// TestPackBMatchesOnTheFly pins that a cached PackedB is bit-for-bit the
// panels the on-the-fly path packs (pure data movement, zero padding).
func TestPackBMatchesOnTheFly(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	b := Randn(rng, 1, gemmKC+5, 19)
	pb := PackB(b)
	k, n := b.Dim(0), b.Dim(1)
	nPanels := (n + gemmNR - 1) / gemmNR
	for pcs := 0; pcs < k; pcs += gemmKC {
		kcb := min(gemmKC, k-pcs)
		onTheFly := make([]float32, kcb*nPanels*gemmNR)
		packBPanels(onTheFly, b.Data, n, kcb, pcs, 0, nPanels, gemmNR*kcb)
		cached := pb.data[pcs*pb.nPad : pcs*pb.nPad+len(onTheFly)]
		for i := range onTheFly {
			if math.Float32bits(onTheFly[i]) != math.Float32bits(cached[i]) {
				t.Fatalf("slice %d: packed byte %d differs", pcs, i)
			}
		}
	}
}

// TestGEMMFusedEpilogueMatchesSeparatePasses pins the write-back
// epilogue contract of the frozen-graph compiler: row bias + residual
// accumulator + ReLU fused at final-slice store are bitwise identical
// to the same operations as separate full passes after the product —
// on every edge shape (asm fast path for full tiles, portable
// epilogueTile for edges), at any worker count.
func TestGEMMFusedEpilogueMatchesSeparatePasses(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, sh := range gemmEdgeShapes {
		a := Randn(rng, 1, sh.m, sh.k)
		b := Randn(rng, 1, sh.k, sh.n)
		rowBias := Randn(rng, 1, sh.m)
		accum := Randn(rng, 1, sh.m, sh.n)

		plain := New(sh.m, sh.n)
		GemmInto(plain, a, b, GemmOpts{})

		// Separate passes, in the documented epilogue order.
		want := plain.Clone()
		for i := 0; i < sh.m; i++ {
			for j := 0; j < sh.n; j++ {
				v := want.Data[i*sh.n+j] + rowBias.Data[i]
				v += accum.Data[i*sh.n+j]
				if !(v > 0) {
					v = 0
				}
				want.Data[i*sh.n+j] = v
			}
		}
		for _, workers := range []int{1, 3} {
			got := Full(-9, sh.m, sh.n)
			GemmInto(got, a, b, GemmOpts{
				Workers: workers, RowBias: rowBias.Data, Accum: accum.Data, ReLU: true,
			})
			if !bitsEqual(got, want) {
				t.Fatalf("%dx%dx%d workers=%d fused bias+accum+relu differs from separate passes",
					sh.m, sh.k, sh.n, workers)
			}
		}

		// Each feature alone must also match its separate pass.
		wantAcc := plain.Clone()
		for i := range wantAcc.Data {
			wantAcc.Data[i] += accum.Data[i]
		}
		gotAcc := New(sh.m, sh.n)
		GemmInto(gotAcc, a, b, GemmOpts{Accum: accum.Data})
		if !bitsEqual(gotAcc, wantAcc) {
			t.Fatalf("%dx%dx%d fused accum differs from separate add", sh.m, sh.k, sh.n)
		}

		wantRelu := plain.Clone()
		for i, v := range wantRelu.Data {
			if !(v > 0) {
				wantRelu.Data[i] = 0
			}
		}
		gotRelu := New(sh.m, sh.n)
		GemmInto(gotRelu, a, b, GemmOpts{ReLU: true})
		if !bitsEqual(gotRelu, wantRelu) {
			t.Fatalf("%dx%dx%d fused relu differs from separate clamp", sh.m, sh.k, sh.n)
		}
	}
}

// TestGEMMColBiasWithReLU pins the one epilogue combination the asm
// kernel declines (column bias present): the portable path must apply
// bias before the clamp.
func TestGEMMColBiasWithReLU(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	const m, k, n = 13, 40, 37
	a := Randn(rng, 1, m, k)
	b := Randn(rng, 1, k, n)
	colBias := Randn(rng, 1, n)
	want := New(m, n)
	GemmInto(want, a, b, GemmOpts{ColBias: colBias.Data})
	for i, v := range want.Data {
		if !(v > 0) {
			want.Data[i] = 0
		}
	}
	got := New(m, n)
	GemmInto(got, a, b, GemmOpts{ColBias: colBias.Data, ReLU: true})
	if !bitsEqual(got, want) {
		t.Fatal("fused col bias + relu differs from separate passes")
	}
}

// TestPackBTMatchesTransposedPackB pins that packing bᵀ directly from
// b's rows produces bit-for-bit the panels PackB builds from the
// materialized transpose, for full matrices and row ranges.
func TestPackBTMatchesTransposedPackB(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, sh := range [][2]int{{1, 1}, {5, 3}, {23, 96}, {200, gemmKC + 7}, {33, 64}} {
		rows, k := sh[0], sh[1]
		b := Randn(rng, 1, rows, k)
		bt := Transpose2D(b)
		want := PackB(bt)
		got := PackBT(b)
		if got.k != want.k || got.n != want.n || got.nPad != want.nPad {
			t.Fatalf("%dx%d: dims (%d,%d,%d) vs (%d,%d,%d)", rows, k,
				got.k, got.n, got.nPad, want.k, want.n, want.nPad)
		}
		for i := range want.data {
			if math.Float32bits(got.data[i]) != math.Float32bits(want.data[i]) {
				t.Fatalf("%dx%d: packed element %d differs", rows, k, i)
			}
		}
		if rows > 2 {
			lo, hi := 1, rows-1
			sub := New(hi-lo, k)
			for r := lo; r < hi; r++ {
				copy(sub.Row(r-lo), b.Row(r))
			}
			wantSub := PackB(Transpose2D(sub))
			gotSub := PackBTRows(b, lo, hi)
			for i := range wantSub.data {
				if math.Float32bits(gotSub.data[i]) != math.Float32bits(wantSub.data[i]) {
					t.Fatalf("%dx%d rows [%d,%d): packed element %d differs", rows, k, lo, hi, i)
				}
			}
		}
	}
}

// TestArenaGrabWrap pins the uninitialized-slab contract the compiled
// plan builds on: Grab hands out capacity without clearing it, Wrap
// turns a region into a tensor without copying, and a warm arena serves
// both with zero heap allocations.
func TestArenaGrabWrap(t *testing.T) {
	var a Arena
	s1 := a.Grab(64)
	for i := range s1 {
		s1[i] = float32(i)
	}
	w := a.Wrap(s1[:6], 2, 3)
	if w.Dim(0) != 2 || w.Dim(1) != 3 || &w.Data[0] != &s1[0] {
		t.Fatalf("Wrap: shape %v or data not shared", w.Shape())
	}
	a.Reset()
	s2 := a.Grab(64)
	if &s2[0] != &s1[0] {
		t.Fatal("Grab after Reset did not reuse the slab")
	}
	// Uninitialized by design: prior contents are visible.
	if s2[5] != 5 {
		t.Fatalf("Grab cleared the slab: s2[5] = %v", s2[5])
	}
}

// TestGemmEmptyNoOp pins the degenerate case: a GEMM with any zero
// dimension (only reachable through the raw-slice entry point — tensor
// shapes are strictly positive) is a no-op that touches neither dst nor
// the workspace.
func TestGemmEmptyNoOp(t *testing.T) {
	dst := make([]float32, 16)
	for i := range dst {
		dst[i] = 7
	}
	ops := make([]float32, 16)
	for _, sh := range [][3]int{{0, 4, 4}, {4, 0, 4}, {4, 4, 0}, {0, 0, 0}} {
		GemmSlices(dst, ops, ops, sh[0], sh[1], sh[2], GemmOpts{Workers: 3})
		for _, v := range dst {
			if v != 7 {
				t.Fatalf("empty GEMM %v wrote to dst", sh)
			}
		}
	}
}

// TestGemmSlicesSubPlane pins the raw-slice entry point convolution uses:
// writing one output plane inside a larger buffer.
func TestGemmSlicesSubPlane(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := Randn(rng, 1, 6, 10)
	b := Randn(rng, 1, 10, 15)
	want := New(6, 15)
	GemmInto(want, a, b, GemmOpts{})
	buf := make([]float32, 3*6*15)
	GemmSlices(buf[6*15:2*6*15], a.Data, b.Data, 6, 10, 15, GemmOpts{})
	for i := range want.Data {
		if math.Float32bits(buf[6*15+i]) != math.Float32bits(want.Data[i]) {
			t.Fatal("GemmSlices sub-plane differs from GemmInto")
		}
	}
}

// The benchmarks sweep GemmBenchShapes (pack.go) — the same table the
// root BenchmarkGEMM sweeps.

func BenchmarkGEMMPacked(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, sh := range GemmBenchShapes {
		b.Run(sh.Name, func(b *testing.B) {
			x := Randn(rng, 1, sh.M, sh.K)
			y := Randn(rng, 1, sh.K, sh.N)
			dst := New(sh.M, sh.N)
			var buf GemmBuf
			b.SetBytes(int64(2 * sh.M * sh.K * sh.N)) // FLOPs as "bytes" → throughput
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				GemmInto(dst, x, y, GemmOpts{Buf: &buf})
			}
		})
	}
}

func BenchmarkGEMMReference(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, sh := range GemmBenchShapes {
		b.Run(sh.Name, func(b *testing.B) {
			x := Randn(rng, 1, sh.M, sh.K)
			y := Randn(rng, 1, sh.K, sh.N)
			dst := New(sh.M, sh.N)
			b.SetBytes(int64(2 * sh.M * sh.K * sh.N))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				clear(dst.Data)
				matmulRefInto(dst.Data, x.Data, y.Data, sh.M, sh.K, sh.N)
			}
		})
	}
}
