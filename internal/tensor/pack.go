package tensor

import (
	"fmt"
	"sync"
)

// Packed, register-blocked GEMM.
//
// This is the repository's one float32 matrix-product kernel: MatMul,
// GemmInto, GemmSlices and the nn hot paths (Linear, Conv2D) all land
// here. The design follows the classic BLIS decomposition, scaled to the
// matrix sizes a CPU-served ResNet embedding produces:
//
//   - B is packed into column micro-panels of gemmNR columns × kc rows,
//     A into row micro-panels of gemmMR rows × kc columns, so the inner
//     kernel streams both operands from contiguous memory with no strided
//     access and no data-dependent branches.
//   - The micro-kernel computes one gemmMR×gemmNR output tile with
//     explicit register accumulators; each A value is reused gemmNR
//     times and each B value gemmMR times per load.
//   - The k dimension is blocked in gemmKC slices; a tile's partial sums
//     are accumulated into dst between slices, which fixes the floating-
//     point accumulation order per output element regardless of how the
//     output is partitioned.
//
// Determinism contract: the value of every output element depends only on
// (m, k, n) and the operands — never on the worker count or on which
// column range a worker owns. Parallel callers therefore get bitwise-
// identical results for any worker budget, the invariant the compiled
// inference plans (nn.CompiledNet) and the seeded evaluation pipeline pin in
// tests. The accumulation order differs from the pre-packing reference
// kernel the tests keep (matmulRefInto in pack_test.go), so results are
// compared against it with a tolerance, not bit equality.
//
// Fused epilogue: optional per-row bias (convolution channel bias),
// per-column bias (linear layer bias), an elementwise accumulator add
// (residual shortcut), and a ReLU clamp are applied when a tile's final
// k slice is stored — in that order, each arithmetically identical to a
// separate pass after the full product (every element's complete sum is
// formed first) without re-touching the output matrix from DRAM. On
// AVX2 machines the RowBias/Accum/ReLU epilogue runs inside the
// assembly micro-kernel's store, merging with the partial sums while
// the tile is still in registers; elsewhere (and for edge tiles and
// ColBias) the portable epilogueTile applies the identical arithmetic
// to the just-stored tile, so the two paths are bitwise interchangeable
// within a process.

const (
	// gemmMR × gemmNR is the micro-tile: 6×16 float32 — twelve 8-lane YMM
	// accumulators in the AVX2+FMA kernel (pack_amd64.s), the shape that
	// keeps both FMA ports busy on every AVX2-class core. The portable
	// kernel computes the same tile with scalar arithmetic.
	gemmMR = 6
	gemmNR = 16
	// gemmKC is the k-dimension slice: one A micro-panel (gemmMR·gemmKC ≈
	// 6 KiB) and one B micro-panel (gemmNR·gemmKC = 16 KiB) stay resident
	// in L1 while a tile is computed. It also fixes the accumulation
	// boundaries that make results independent of output partitioning.
	gemmKC = 256
)

// GemmBuf owns the packing workspace (A row panels, B column panels) so
// steady-state GEMM calls allocate nothing. The zero value is ready to
// use; buffers grow on demand and are retained. A GemmBuf is not safe
// for concurrent use — one per goroutine (nn.Scratch embeds one).
type GemmBuf struct {
	a, b []float32
	b8   []uint8 // int8-GEMM activation panels (gemm8)
}

// grow ensures capacity for an A pack of an floats and a B pack of bn
// floats, returning the sized slices.
//
//hdc:coldpath amortized pack-buffer growth; the steady state reuses capacity
func (g *GemmBuf) grow(an, bn int) (ap, bp []float32) {
	if cap(g.a) < an {
		g.a = make([]float32, an)
	}
	if cap(g.b) < bn {
		g.b = make([]float32, bn)
	}
	return g.a[:an], g.b[:bn]
}

// grow8 ensures capacity for n bytes of int8-GEMM activation panels.
//
//hdc:coldpath amortized pack-buffer growth; the steady state reuses capacity
func (g *GemmBuf) grow8(n int) []uint8 {
	if cap(g.b8) < n {
		g.b8 = make([]uint8, n)
	}
	return g.b8[:n]
}

// gemmBufPool serves callers that don't thread their own workspace
// (tensor.MatMul, training paths); buffers are reused across calls so the
// steady state allocates nothing.
var gemmBufPool = sync.Pool{New: func() any { return new(GemmBuf) }}

// PackedB is matrix B pre-packed into the GEMM's column-panel layout: all
// k-slices, all column micro-panels, edge panels zero-padded to gemmNR
// columns. Packing is pure data movement, so a GEMM fed a PackedB is
// bitwise identical to one that packs on the fly; it just skips the
// per-call packing pass. Frozen layer weights cache one (see
// nn.Linear's packed panel). A PackedB is immutable after PackB and safe
// for concurrent readers.
type PackedB struct {
	k, n, nPad int
	data       []float32
}

// Dims returns the packed matrix's logical dimensions [k, n].
func (pb *PackedB) Dims() (k, n int) { return pb.k, pb.n }

// PackB packs b [k, n] into the GEMM column-panel layout.
func PackB(b *Tensor) *PackedB {
	if b.Rank() != 2 {
		panic(fmt.Sprintf("tensor.PackB: want rank-2 operand, have %v", b.Shape()))
	}
	k, n := b.Dim(0), b.Dim(1)
	nPanels := (n + gemmNR - 1) / gemmNR
	nPad := nPanels * gemmNR
	pb := &PackedB{k: k, n: n, nPad: nPad, data: make([]float32, k*nPad)}
	for pcs := 0; pcs < k; pcs += gemmKC {
		kcb := min(gemmKC, k-pcs)
		packBPanels(pb.data[pcs*nPad:], b.Data, n, kcb, pcs, 0, nPanels, gemmNR*kcb)
	}
	return pb
}

// packBPanels packs column micro-panels [jpLo, jpHi) of B's k-slice
// [pcs, pcs+kcb) into dst. Panel jp occupies dst[jp*panelStride:] as kcb
// steps of gemmNR column values; columns beyond n are zero-padded.
// panelStride must be ≥ gemmNR·kcb; the pooled parallel path passes a
// slice-independent stride so concurrent workers in DIFFERENT k-slices
// (whose kcb differ) still own disjoint buffer regions.
func packBPanels(dst, b []float32, n, kcb, pcs, jpLo, jpHi, panelStride int) {
	for jp := jpLo; jp < jpHi; jp++ {
		j0 := jp * gemmNR
		panel := dst[jp*panelStride : jp*panelStride+gemmNR*kcb]
		w := n - j0
		if w >= gemmNR {
			src := b[pcs*n+j0:]
			for p := 0; p < kcb; p++ {
				copy(panel[p*gemmNR:(p+1)*gemmNR], src[p*n:p*n+gemmNR])
			}
			continue
		}
		src := b[pcs*n+j0:]
		for p := 0; p < kcb; p++ {
			row := src[p*n : p*n+w]
			q := panel[p*gemmNR : (p+1)*gemmNR]
			for c := 0; c < w; c++ {
				q[c] = row[c]
			}
			for c := w; c < gemmNR; c++ {
				q[c] = 0
			}
		}
	}
}

// PackBT packs bᵀ — with b given row-major [n, k] — into the GEMM
// column-panel layout of a [k, n] operand, without materializing the
// transpose. A GEMM fed the result is bitwise identical to one fed
// PackB(Transpose2D(b)): packing is pure data movement either way, only
// the gather order differs. This is the natural form for frozen
// class-memory matrices (rows are class embeddings) consumed as x·ϕᵀ
// similarity products.
func PackBT(b *Tensor) *PackedB {
	if b.Rank() != 2 {
		panic(fmt.Sprintf("tensor.PackBT: want rank-2 operand, have %v", b.Shape()))
	}
	return PackBTRows(b, 0, b.Dim(0))
}

// PackBTRows packs rows [lo, hi) of b [n, k] as the transposed operand
// bᵀ[:, lo:hi] — a [k, hi-lo] packed matrix. Sharded readouts (the
// inference engine's class-range shards) pack exactly the tile they
// own.
func PackBTRows(b *Tensor, lo, hi int) *PackedB {
	if b.Rank() != 2 {
		panic(fmt.Sprintf("tensor.PackBTRows: want rank-2 operand, have %v", b.Shape()))
	}
	if lo < 0 || hi > b.Dim(0) || lo >= hi {
		panic(fmt.Sprintf("tensor.PackBTRows: bad row range [%d,%d) for %d rows", lo, hi, b.Dim(0)))
	}
	k, n := b.Dim(1), hi-lo
	nPanels := (n + gemmNR - 1) / gemmNR
	nPad := nPanels * gemmNR
	pb := &PackedB{k: k, n: n, nPad: nPad, data: make([]float32, k*nPad)}
	for pcs := 0; pcs < k; pcs += gemmKC {
		kcb := min(gemmKC, k-pcs)
		block := pb.data[pcs*nPad:]
		for jp := 0; jp < nPanels; jp++ {
			j0 := jp * gemmNR
			panel := block[jp*gemmNR*kcb : (jp+1)*gemmNR*kcb]
			w := min(gemmNR, n-j0)
			for c := 0; c < w; c++ {
				src := b.Data[(lo+j0+c)*k+pcs:]
				for p := 0; p < kcb; p++ {
					panel[p*gemmNR+c] = src[p]
				}
			}
			for c := w; c < gemmNR; c++ {
				for p := 0; p < kcb; p++ {
					panel[p*gemmNR+c] = 0
				}
			}
		}
	}
	return pb
}

// packAPanels packs every row micro-panel of A's k-slice [pcs, pcs+kcb)
// into dst. Panel ip occupies dst[ip*gemmMR*kcb:] as kcb steps of gemmMR
// row values; rows beyond m are zero-padded.
func packAPanels(dst, a []float32, m, k, kcb, pcs int) {
	mPanels := (m + gemmMR - 1) / gemmMR
	for ip := 0; ip < mPanels; ip++ {
		i0 := ip * gemmMR
		panel := dst[ip*gemmMR*kcb : (ip+1)*gemmMR*kcb]
		h := m - i0
		if h >= gemmMR {
			r0 := a[i0*k+pcs:]
			r1 := a[(i0+1)*k+pcs:]
			r2 := a[(i0+2)*k+pcs:]
			r3 := a[(i0+3)*k+pcs:]
			r4 := a[(i0+4)*k+pcs:]
			r5 := a[(i0+5)*k+pcs:]
			for p := 0; p < kcb; p++ {
				q := panel[p*gemmMR : (p+1)*gemmMR]
				q[0], q[1], q[2] = r0[p], r1[p], r2[p]
				q[3], q[4], q[5] = r3[p], r4[p], r5[p]
			}
			continue
		}
		for p := 0; p < kcb; p++ {
			q := panel[p*gemmMR : (p+1)*gemmMR]
			for r := 0; r < gemmMR; r++ {
				if r < h {
					q[r] = a[(i0+r)*k+pcs+p]
				} else {
					q[r] = 0
				}
			}
		}
	}
}

// microKernelGeneric is the portable micro-kernel: one gemmMR×gemmNR
// tile, d[r][c] (=|+)= Σ_p ap[p·MR+r]·bp[p·NR+c], accumulated in a local
// tile buffer across the k loop. It is the fallback for CPUs without the
// assembly kernel; within one process only ever one kernel runs, so
// results stay bitwise consistent across all call sites and worker
// counts.
func microKernelGeneric(d []float32, ldd int, ap, bp []float32, kc int, first bool) {
	var acc [gemmMR * gemmNR]float32
	ap = ap[: gemmMR*kc : gemmMR*kc]
	bp = bp[: gemmNR*kc : gemmNR*kc]
	for p := 0; p < kc; p++ {
		bs := bp[p*gemmNR : (p+1)*gemmNR]
		as := ap[p*gemmMR : (p+1)*gemmMR]
		for r := 0; r < gemmMR; r++ {
			av := as[r]
			row := acc[r*gemmNR : (r+1)*gemmNR]
			for c := range bs {
				row[c] += av * bs[c]
			}
		}
	}
	for r := 0; r < gemmMR; r++ {
		drow := d[r*ldd : r*ldd+gemmNR]
		arow := acc[r*gemmNR : (r+1)*gemmNR]
		if first {
			copy(drow, arow)
		} else {
			for c := range drow {
				drow[c] += arow[c]
			}
		}
	}
}

// GemmBenchShape is one entry of the canonical GEMM benchmark sweep:
// square sizes plus the conv- and projection-shaped products of the
// micro ResNet embedding path (M=outC, K=inC·kH·kW, N=batch·oh·ow).
type GemmBenchShape struct {
	Name    string
	M, K, N int
}

// GemmBenchShapes is the one definition of the sweep, shared by the
// in-package packed-vs-reference benchmarks and the root BenchmarkGEMM,
// so the two sweeps can never drift apart.
var GemmBenchShapes = []GemmBenchShape{
	{"sq128", 128, 128, 128},
	{"sq256", 256, 256, 256},
	{"conv3x3-stem", 8, 27, 8192},
	{"conv3x3-mid", 32, 288, 2048},
	{"conv1x1-wide", 128, 32, 2048},
	{"proj-linear", 32, 256, 1536},
}

// GemmOpts configures a GEMM call. The zero value is a serial product
// with no epilogue using pooled workspace.
type GemmOpts struct {
	// Workers is the maximum goroutines the output columns are fanned
	// across (≤1 runs inline). Results are bitwise identical for any
	// value.
	Workers int
	// RowBias, if non-nil (length m), is added to every element of output
	// row i when its final k-slice is stored — the convolution
	// channel-bias epilogue.
	RowBias []float32
	// ColBias, if non-nil (length n), is added to every element of output
	// column j when its final k-slice is stored — the linear-layer bias
	// epilogue.
	ColBias []float32
	// Accum, if non-nil (length ≥ m·n, dst's row-major layout), is added
	// elementwise when a tile's final k-slice is stored — the fused
	// residual-add epilogue of the compiled inference path. It must not
	// alias dst.
	Accum []float32
	// ReLU clamps each output element to max(0, ·) at final-slice store,
	// after every bias/Accum addition — the fused activation epilogue.
	// NaN inputs clamp to 0, matching the eval-mode ReLU layer.
	ReLU bool
	// PB supplies B pre-packed (PackB); the b operand is then ignored and
	// the per-call B packing pass is skipped.
	PB *PackedB
	// Buf supplies the packing workspace; nil uses a pooled one.
	Buf *GemmBuf
}

// hasEpilogue reports whether any fused write-back work is requested.
func (o *GemmOpts) hasEpilogue() bool {
	return o.RowBias != nil || o.ColBias != nil || o.Accum != nil || o.ReLU
}

// GemmInto computes dst[m,n] = a[m,k] × b[k,n] (plus any fused epilogue)
// without allocating in steady state. dst must not alias a or b. With
// o.PB set, b may be nil.
//
//hdc:hotpath
func GemmInto(dst, a, b *Tensor, o GemmOpts) *Tensor {
	if a.Rank() != 2 || dst.Rank() != 2 {
		panic(fmt.Sprintf("tensor.GemmInto: want rank-2 operands, have dst %v, a %v", dst.shape, a.shape))
	}
	m, k := a.Dim(0), a.Dim(1)
	var n int
	var bdata []float32
	if o.PB != nil {
		pk, pn := o.PB.Dims()
		if pk != k {
			panic(fmt.Sprintf("tensor.GemmInto: inner dimensions differ: %v × packed[%d %d]", a.shape, pk, pn))
		}
		n = pn
	} else {
		if b.Rank() != 2 {
			panic(fmt.Sprintf("tensor.GemmInto: want rank-2 b, have %v", b.shape))
		}
		if b.Dim(0) != k {
			panic(fmt.Sprintf("tensor.GemmInto: inner dimensions differ: %v × %v", a.shape, b.shape))
		}
		n = b.Dim(1)
		bdata = b.Data
	}
	if dst.Dim(0) != m || dst.Dim(1) != n {
		panic(fmt.Sprintf("tensor.GemmInto: dst shape %v, want [%d %d]", dst.shape, m, n))
	}
	gemm(dst.Data, a.Data, bdata, m, k, n, o)
	return dst
}

// GemmSlices is GemmInto on raw row-major slices: dst[m,n] = a[m,k] ×
// b[k,n] plus any fused epilogue. It exists for hot paths that address
// sub-planes of larger buffers (convolution output planes) without
// wrapping them in tensors.
//
//hdc:hotpath
func GemmSlices(dst, a, b []float32, m, k, n int, o GemmOpts) {
	if len(dst) < m*n || len(a) < m*k || (o.PB == nil && len(b) < k*n) {
		panic("tensor.GemmSlices: operand shorter than its declared shape")
	}
	gemm(dst, a, b, m, k, n, o)
}

// gemm is the packed GEMM driver shared by every matrix-product entry
// point. dst is overwritten (no pre-clearing needed); a zero dimension
// (reachable only via GemmSlices — tensor shapes are strictly positive)
// is a no-op that leaves dst untouched. o is passed by value so the
// serial path never boxes it — the invariant the zero-alloc guards on
// the inference path pin.
func gemm(dst, a, b []float32, m, k, n int, o GemmOpts) {
	if m == 0 || n == 0 || k == 0 {
		return
	}
	if o.RowBias != nil && len(o.RowBias) < m {
		panic("tensor.gemm: RowBias shorter than m")
	}
	if o.ColBias != nil && len(o.ColBias) < n {
		panic("tensor.gemm: ColBias shorter than n")
	}
	if o.Accum != nil && len(o.Accum) < m*n {
		panic("tensor.gemm: Accum shorter than m·n")
	}
	mPanels := (m + gemmMR - 1) / gemmMR
	nPanels := (n + gemmNR - 1) / gemmNR
	mPad := mPanels * gemmMR
	nPad := nPanels * gemmNR
	if o.PB != nil && o.PB.nPad != nPad {
		panic("tensor.gemm: packed B column count does not match n")
	}

	buf := o.Buf
	if buf == nil {
		buf = gemmBufPool.Get().(*GemmBuf)
		defer gemmBufPool.Put(buf)
	}
	bpackLen := 0
	if o.PB == nil {
		bpackLen = gemmKC * nPad
		if gemmKC > k {
			bpackLen = k * nPad
		}
	}
	apack, bpack := buf.grow(mPad*k, bpackLen)

	// Pack all of A once, serially: one streaming pass, shared read-only
	// by every worker.
	for pcs := 0; pcs < k; pcs += gemmKC {
		kcb := min(gemmKC, k-pcs)
		packAPanels(apack[pcs*mPad:], a, m, k, kcb, pcs)
	}

	workers := o.Workers
	if workers > nPanels {
		workers = nPanels
	}
	if workers <= 1 {
		gemmPanelRange(dst, apack, b, bpack, m, k, n, mPanels, 0, nPanels, o)
		return
	}
	// Contiguous column-panel ranges, one goroutine each: every output
	// element is produced by exactly one worker with the fixed k-slice
	// accumulation order, so the result is bitwise independent of the
	// partition. Workers pack the B panels they consume into disjoint
	// regions of the shared bpack buffer.
	ParallelRows(nPanels, workers, func(jpLo, jpHi int) { //hdc:allow hotpathalloc one closure per multi-worker GEMM call, amortized over the panel work
		gemmPanelRange(dst, apack, b, bpack, m, k, n, mPanels, jpLo, jpHi, o)
	})
}

// gemmPanelRange computes output column panels [jpLo, jpHi): for each
// k-slice it packs (or locates) the B panels, then drives the
// micro-kernel over every row panel × column panel tile, applying the
// fused bias epilogue when a tile's final k-slice is stored.
func gemmPanelRange(dst, apack, b, bpack []float32, m, k, n, mPanels, jpLo, jpHi int, o GemmOpts) {
	mPad := mPanels * gemmMR
	var tmp [gemmMR * gemmNR]float32
	for pcs := 0; pcs < k; pcs += gemmKC {
		kcb := min(gemmKC, k-pcs)
		first := pcs == 0
		last := pcs+kcb == k
		// Panel stride inside the current B block. PackedB stores blocks
		// tightly (stride gemmNR·kcb of each block). The pooled buffer uses
		// the FIRST block's stride for every block: workers run their k-slice
		// loops unsynchronized, so a worker in the (shorter) final slice must
		// still address the exact region it owns in every slice — a
		// kcb-dependent stride would overlap another worker's panels.
		var bblock []float32
		panelStride := gemmNR * kcb
		if o.PB != nil {
			bblock = o.PB.data[pcs*o.PB.nPad:]
		} else {
			bblock = bpack
			panelStride = gemmNR * min(gemmKC, k)
			packBPanels(bblock, b, n, kcb, pcs, jpLo, jpHi, panelStride)
		}
		ablock := apack[pcs*mPad:]
		for jp := jpLo; jp < jpHi; jp++ {
			bp := bblock[jp*panelStride : jp*panelStride+gemmNR*kcb]
			j0 := jp * gemmNR
			nr := min(gemmNR, n-j0)
			for ip := 0; ip < mPanels; ip++ {
				ap := ablock[ip*gemmMR*kcb : (ip+1)*gemmMR*kcb]
				i0 := ip * gemmMR
				mr := min(gemmMR, m-i0)
				if mr == gemmMR && nr == gemmNR {
					if last && o.hasEpilogue() &&
						microKernelEpi(dst[i0*n+j0:], n, ap, bp, kcb, first, o.ReLU, o.RowBias, o.ColBias, o.Accum, i0, j0) {
						// The micro-kernel merged bias/accum/relu into the
						// final store; nothing left to apply for this tile.
						continue
					}
					microKernel(dst[i0*n+j0:], n, ap, bp, kcb, first)
				} else {
					// Edge tile: compute the full padded tile into tmp, then
					// merge only the valid rows/columns. Identical arithmetic
					// to the direct path — tmp holds the same register sums.
					microKernel(tmp[:], gemmNR, ap, bp, kcb, true)
					for r := 0; r < mr; r++ {
						drow := dst[(i0+r)*n+j0 : (i0+r)*n+j0+nr]
						trow := tmp[r*gemmNR:]
						if first {
							for c := 0; c < nr; c++ {
								drow[c] = trow[c]
							}
						} else {
							for c := 0; c < nr; c++ {
								drow[c] += trow[c]
							}
						}
					}
				}
				if last && o.hasEpilogue() {
					epilogueTile(dst, o, i0, j0, mr, nr, n)
				}
			}
		}
	}
}

// epilogueTile applies the fused epilogue to one stored tile: row bias,
// column bias, accumulator add, then the ReLU clamp, each exactly once
// after the element's complete k accumulation — bitwise identical to
// the same sequence of separate passes, and to the in-register epilogue
// of the AVX2 micro-kernel (same additions in the same order; the
// vector max matches the scalar clamp on every input, NaN and signed
// zero included).
//
//hdc:hotpath
func epilogueTile(dst []float32, o GemmOpts, i0, j0, mr, nr, ldd int) {
	for r := 0; r < mr; r++ {
		drow := dst[(i0+r)*ldd+j0 : (i0+r)*ldd+j0+nr]
		if o.RowBias != nil {
			rb := o.RowBias[i0+r]
			for c := range drow {
				drow[c] += rb
			}
		}
		if o.ColBias != nil {
			cb := o.ColBias[j0 : j0+nr]
			for c := range drow {
				drow[c] += cb[c]
			}
		}
		if o.Accum != nil {
			arow := o.Accum[(i0+r)*ldd+j0 : (i0+r)*ldd+j0+nr]
			for c := range drow {
				drow[c] += arow[c]
			}
		}
		if o.ReLU {
			for c := range drow {
				if !(drow[c] > 0) {
					drow[c] = 0
				}
			}
		}
	}
}
