package tensor

import (
	"fmt"
	"math"
)

// Packed int8 GEMM.
//
// This is the integer twin of the f32 packed GEMM (pack.go): the kernel
// the quantized compiled inference plans (nn.CompileQuantized) run every
// convolution and projection on. The product convention is fixed by the
// AVX2 multiply instruction: VPMADDUBSW multiplies an UNSIGNED byte
// operand with a SIGNED one, so
//
//   - the frozen weights are the signed, pre-packed LEFT operand
//     (PackB8), quantized per output channel to [−Gemm8WMax, Gemm8WMax];
//   - the activations are the dynamic RIGHT operand, stored signed int8
//     between plan steps and biased to unsigned (+128) while being
//     packed into column panels. The bias is exact: for output row r the
//     kernel accumulates Σ_k w·(q+128) = Σ_k w·q + 128·Σ_k w, and the
//     second term is the precomputed PackedB8.rowOff[r], subtracted in
//     the epilogue.
//
// Every product is therefore dst[m,n] = w[m,k]·x[k,n]: convolutions are
// already in that form (weights × im2col/CNHW activations), and the
// compiler lowers quantized linear layers the same way by keeping flat
// activations transposed ([d, N] instead of [N, d]).
//
// Weights use the reduced range |q| ≤ Gemm8WMax = 63 so the u8×s8 pair
// sums VPMADDUBSW produces stay within int16: 255·63·2 = 32130 < 32767.
// No intermediate ever saturates, the whole accumulation is EXACT
// integer arithmetic, and the assembly and portable kernels are bitwise
// interchangeable by construction — stronger than the f32 path, where
// only a fixed accumulation order delivers that. The kernel runs the
// full k extent of a tile in registers (integer addition is associative,
// so no k-slicing is needed for partition independence), which also
// means the int32 tile is written exactly once.
//
// The dequantizing epilogue — per-row scale, f32 bias, int8 residual
// accumulate, ReLU, and either an f32 store or a round-to-nearest-even
// requantization to int8 — is shared Go code applied to the kernel's
// int32 tile, so its float arithmetic is identical on every path and
// results stay bitwise deterministic across worker counts and kernels.

const (
	// gemm8MR × gemm8NR is the int8 micro-tile: 4×16 int32 accumulators in
	// 8 YMM registers. Each k step consumes a quad (4 k values): two 32-byte
	// activation loads feed four weight broadcasts, each resolving to
	// VPMADDUBSW + VPMADDWD + VPADDD per 8-column half.
	gemm8MR = 4
	gemm8NR = 16
	// gemm8KQ is the k-quad size: VPMADDUBSW+VPMADDWD reduce 4 adjacent
	// k positions into each int32 lane.
	gemm8KQ = 4

	// Gemm8WMax is the weight quantization ceiling of the int8 kernel:
	// weights must be quantized to [−63, 63] so the unsigned-activation ×
	// signed-weight pair sums never saturate int16 (255·63·2 = 32130).
	// This is the standard reduced-range trick of VPMADDUBSW-based
	// kernels; it costs ~1 bit of weight precision and buys exact,
	// saturation-free integer accumulation.
	Gemm8WMax = 63
	// Gemm8AMax is the activation quantization ceiling (full symmetric
	// int8 range).
	Gemm8AMax = 127
)

// gemm8MaxKQ bounds the reduction depth: each int32 lane accumulates at
// most 4·255·63 = 64260 per quad, so kQ quads stay exact while
// kQ·64260 ≤ MaxInt32.
const gemm8MaxKQ = math.MaxInt32 / (gemm8KQ * 255 * Gemm8WMax)

// PackedB8 is a frozen int8 weight matrix [m, k] pre-packed into the
// int8 kernel's row-panel layout: row panels of gemm8MR rows, k padded
// to whole quads, each quad storing the panel's rows as 4 consecutive
// bytes (one VPBROADCASTD word per row). Resident storage is one byte
// per padded weight — ~4× smaller than the f32 PackedB it replaces.
// Immutable after PackB8 and safe for concurrent readers.
type PackedB8 struct {
	m, k, kQ int
	data     []int8
	// rowOff[r] = 128·Σ_k q[r,k]: the exact correction for the +128
	// unsigned bias the activation pack applies, subtracted from row r's
	// raw accumulators in the epilogue.
	rowOff []int32
}

// PackB8 packs the quantized weight matrix q [m, k] (row-major, values
// in [−Gemm8WMax, Gemm8WMax]) into the int8 GEMM's panel layout.
// Padding rows and padding k positions are zero, which contribute
// nothing to any accumulator or row offset.
func PackB8(q []int8, m, k int) *PackedB8 {
	if m <= 0 || k <= 0 || len(q) < m*k {
		panic(fmt.Sprintf("tensor.PackB8: bad operand: %d×%d over %d values", m, k, len(q)))
	}
	kQ := (k + gemm8KQ - 1) / gemm8KQ
	if kQ > gemm8MaxKQ {
		panic(fmt.Sprintf("tensor.PackB8: k=%d exceeds the exact-accumulation bound (%d)", k, gemm8MaxKQ*gemm8KQ))
	}
	mPanels := (m + gemm8MR - 1) / gemm8MR
	pw := &PackedB8{
		m: m, k: k, kQ: kQ,
		data:   make([]int8, mPanels*kQ*gemm8KQ*gemm8MR),
		rowOff: make([]int32, m),
	}
	for r := 0; r < m; r++ {
		var sum int32
		for _, v := range q[r*k : r*k+k] {
			if v > Gemm8WMax || v < -Gemm8WMax {
				panic(fmt.Sprintf("tensor.PackB8: weight %d outside [−%d, %d]", v, Gemm8WMax, Gemm8WMax))
			}
			sum += int32(v)
		}
		pw.rowOff[r] = 128 * sum
	}
	for ip := 0; ip < mPanels; ip++ {
		panel := pw.data[ip*kQ*gemm8KQ*gemm8MR:]
		for qi := 0; qi < kQ; qi++ {
			for r := 0; r < gemm8MR; r++ {
				row := ip*gemm8MR + r
				dst := panel[(qi*gemm8MR+r)*gemm8KQ : (qi*gemm8MR+r+1)*gemm8KQ]
				if row >= m {
					dst[0], dst[1], dst[2], dst[3] = 0, 0, 0, 0
					continue
				}
				for t := 0; t < gemm8KQ; t++ {
					kk := qi*gemm8KQ + t
					if kk < k {
						dst[t] = q[row*k+kk]
					} else {
						dst[t] = 0
					}
				}
			}
		}
	}
	return pw
}

// Gemm8Opts configures an int8 GEMM call. RowScale is the dequantization
// of the integer product; everything else mirrors the f32 epilogue.
type Gemm8Opts struct {
	// Workers is the goroutine budget the output column panels fan across
	// (≤1 runs inline). Results are bitwise identical for any value: the
	// integer product is exact and the epilogue is per-element.
	Workers int
	// RowScale, if non-nil (length m), scales output row r's dequantized
	// value: v = RowScale[r]·(acc − rowOff[r]). This is the combined
	// weight-row × activation scale. nil means 1.
	RowScale []float32
	// Bias, if non-nil (length m), is the f32 per-row bias added after
	// dequantization (the folded conv channel bias / linear unit bias).
	Bias []float32
	// Accum, if non-nil (length ≥ m·n, dst layout), is an int8 residual
	// input added as AccScale·Accum[i] after the bias — the fused
	// shortcut add of the quantized compiled path.
	Accum []int8
	// AccScale dequantizes Accum.
	AccScale float32
	// ReLU clamps each dequantized value to max(0, ·) before the store.
	ReLU bool
	// InvOutScale requantizes the epilogue value for the int8 output
	// entry point (Gemm8QInto): q = clamp±127(rne(v·InvOutScale)).
	InvOutScale float32
	// Buf supplies the activation packing workspace; nil uses a pooled one.
	Buf *GemmBuf
}

// Gemm8Into computes dst[m,n] = dequant(pw[m,k] · x[k,n]) with the fused
// epilogue, writing float32 — the plan-boundary entry point. x is signed
// int8, row-major [k, n].
//
//hdc:hotpath
func Gemm8Into(dst []float32, pw *PackedB8, x []int8, n int, o Gemm8Opts) {
	if len(dst) < pw.m*n {
		panic("tensor.Gemm8Into: dst shorter than m·n")
	}
	gemm8(dst, nil, pw, x, n, o)
}

// Gemm8QInto is Gemm8Into with the epilogue value requantized to int8
// with o.InvOutScale — the step-to-step entry point that keeps
// activations int8 between plan ops.
//
//hdc:hotpath
func Gemm8QInto(dst []int8, pw *PackedB8, x []int8, n int, o Gemm8Opts) {
	if len(dst) < pw.m*n {
		panic("tensor.Gemm8QInto: dst shorter than m·n")
	}
	gemm8(nil, dst, pw, x, n, o)
}

// gemm8 is the int8 GEMM driver: weights come pre-packed, activations
// are packed per column panel (s8 → u8, +128) into the workspace, and
// each 4×16 tile runs its full k extent in the kernel before the shared
// Go epilogue dequantizes and stores it.
func gemm8(dst32 []float32, dst8 []int8, pw *PackedB8, x []int8, n int, o Gemm8Opts) {
	if n == 0 {
		return
	}
	if len(x) < pw.k*n {
		panic("tensor.gemm8: x shorter than k·n")
	}
	if o.RowScale != nil && len(o.RowScale) < pw.m {
		panic("tensor.gemm8: RowScale shorter than m")
	}
	if o.Bias != nil && len(o.Bias) < pw.m {
		panic("tensor.gemm8: Bias shorter than m")
	}
	if o.Accum != nil && len(o.Accum) < pw.m*n {
		panic("tensor.gemm8: Accum shorter than m·n")
	}
	nPanels := (n + gemm8NR - 1) / gemm8NR
	panelBytes := pw.kQ * gemm8KQ * gemm8NR

	buf := o.Buf
	if buf == nil {
		buf = gemmBufPool.Get().(*GemmBuf)
		defer gemmBufPool.Put(buf)
	}
	bpack := buf.grow8(nPanels * panelBytes)

	workers := o.Workers
	if workers > nPanels {
		workers = nPanels
	}
	if workers <= 1 {
		gemm8PanelRange(dst32, dst8, pw, x, bpack, n, 0, nPanels, o)
		return
	}
	// Contiguous column-panel ranges, one goroutine each. Workers pack
	// the panels they consume into disjoint bpack regions (indexed by
	// absolute panel number), and every output element's integer sum and
	// float epilogue are independent of the partition.
	ParallelRows(nPanels, workers, func(jpLo, jpHi int) { //hdc:allow hotpathalloc one closure per multi-worker GEMM call, amortized over the panel work
		gemm8PanelRange(dst32, dst8, pw, x, bpack, n, jpLo, jpHi, o)
	})
}

// gemm8PanelRange computes output column panels [jpLo, jpHi).
func gemm8PanelRange(dst32 []float32, dst8 []int8, pw *PackedB8, x []int8, bpack []uint8, n, jpLo, jpHi int, o Gemm8Opts) {
	mPanels := (pw.m + gemm8MR - 1) / gemm8MR
	panelBytes := pw.kQ * gemm8KQ * gemm8NR
	var tile [gemm8MR * gemm8NR]int32
	for jp := jpLo; jp < jpHi; jp++ {
		bp := bpack[jp*panelBytes : (jp+1)*panelBytes]
		pack8BPanel(bp, x, pw.k, pw.kQ, n, jp*gemm8NR)
		j0 := jp * gemm8NR
		nr := min(gemm8NR, n-j0)
		for ip := 0; ip < mPanels; ip++ {
			ap := pw.data[ip*pw.kQ*gemm8KQ*gemm8MR:]
			gemm8Kernel(&tile, ap, bp, pw.kQ)
			i0 := ip * gemm8MR
			mr := min(gemm8MR, pw.m-i0)
			gemm8EpilogueTile(&tile, dst32, dst8, pw, o, i0, j0, mr, nr, n)
		}
	}
}

// pack8BPanel packs one activation column panel: quad q of columns
// [j0, j0+16) occupies dst[q·64:], column-major within the quad (4
// consecutive k bytes per column), signed values biased to unsigned by
// +128. Columns beyond n and k positions beyond k pack the bias value
// 128 (q = 0); padded k rows meet zero weights and padded columns are
// never stored, so the padding value is arithmetically irrelevant — it
// is fixed for determinism only.
func pack8BPanel(dst []uint8, x []int8, k, kQ, n, j0 int) {
	w := n - j0
	if w > gemm8NR {
		w = gemm8NR
	}
	qi0 := 0
	if w == gemm8NR {
		qi0 = pack8PanelQuads(dst, x, k, kQ, n, j0)
	}
	for qi := qi0; qi < kQ; qi++ {
		quad := dst[qi*gemm8KQ*gemm8NR:]
		kBase := qi * gemm8KQ
		kFull := kBase+gemm8KQ <= k
		for c := 0; c < w; c++ {
			d := quad[c*gemm8KQ : (c+1)*gemm8KQ]
			src := x[kBase*n+j0+c:]
			if kFull {
				d[0] = uint8(src[0]) + 128
				d[1] = uint8(src[n]) + 128
				d[2] = uint8(src[2*n]) + 128
				d[3] = uint8(src[3*n]) + 128
				continue
			}
			for t := 0; t < gemm8KQ; t++ {
				if kBase+t < k {
					d[t] = uint8(src[t*n]) + 128
				} else {
					d[t] = 128
				}
			}
		}
		for c := w; c < gemm8NR; c++ {
			d := quad[c*gemm8KQ : (c+1)*gemm8KQ]
			d[0], d[1], d[2], d[3] = 128, 128, 128, 128
		}
	}
}

// gemm8KernelGeneric is the portable int8 micro-kernel: one 4×16 int32
// tile, tile[r·16+c] = Σ_quads Σ_t w[r,t]·u[c,t]. All arithmetic is
// exact integer math, so it is bitwise identical to the assembly kernel
// on every input — the property the parity tests pin.
func gemm8KernelGeneric(tile *[gemm8MR * gemm8NR]int32, ap []int8, bp []uint8, kQ int) {
	for i := range tile {
		tile[i] = 0
	}
	for qi := 0; qi < kQ; qi++ {
		aq := ap[qi*gemm8MR*gemm8KQ : (qi+1)*gemm8MR*gemm8KQ]
		bq := bp[qi*gemm8NR*gemm8KQ : (qi+1)*gemm8NR*gemm8KQ]
		for r := 0; r < gemm8MR; r++ {
			w0 := int32(aq[r*gemm8KQ])
			w1 := int32(aq[r*gemm8KQ+1])
			w2 := int32(aq[r*gemm8KQ+2])
			w3 := int32(aq[r*gemm8KQ+3])
			row := tile[r*gemm8NR : (r+1)*gemm8NR]
			for c := 0; c < gemm8NR; c++ {
				u := bq[c*gemm8KQ : (c+1)*gemm8KQ]
				row[c] += w0*int32(u[0]) + w1*int32(u[1]) + w2*int32(u[2]) + w3*int32(u[3])
			}
		}
	}
}

// gemm8EpilogueTile dequantizes and stores one computed tile: subtract
// the row's +128 correction, scale, add the f32 bias, add the scaled
// int8 residual, clamp, then store f32 (dst32) or requantize
// round-to-nearest-even to int8 (dst8). Full-width tiles go through the
// vector epilogue on amd64 (the scalar epilogue otherwise dominates the
// whole GEMM); edge tiles and other architectures take the portable
// per-element path, which is bitwise identical on every finite input.
func gemm8EpilogueTile(tile *[gemm8MR * gemm8NR]int32, dst32 []float32, dst8 []int8, pw *PackedB8, o Gemm8Opts, i0, j0, mr, nr, n int) {
	if nr == gemm8NR && gemm8EpilogueRows(tile, dst32, dst8, pw, o, i0, j0, mr, n) {
		return
	}
	gemm8EpilogueTileGeneric(tile, dst32, dst8, pw, o, i0, j0, mr, nr, n)
}

// gemm8EpilogueTileGeneric is the portable per-element epilogue.
//
//hdc:hotpath
func gemm8EpilogueTileGeneric(tile *[gemm8MR * gemm8NR]int32, dst32 []float32, dst8 []int8, pw *PackedB8, o Gemm8Opts, i0, j0, mr, nr, n int) {
	for r := 0; r < mr; r++ {
		row := tile[r*gemm8NR:]
		off := pw.rowOff[i0+r]
		sc := float32(1)
		if o.RowScale != nil {
			sc = o.RowScale[i0+r]
		}
		var bias float32
		if o.Bias != nil {
			bias = o.Bias[i0+r]
		}
		base := (i0+r)*n + j0
		for c := 0; c < nr; c++ {
			v := float32(row[c]-off)*sc + bias
			if o.Accum != nil {
				v += o.AccScale * float32(o.Accum[base+c])
			}
			if o.ReLU && !(v > 0) {
				v = 0
			}
			if dst32 != nil {
				dst32[base+c] = v
			} else {
				dst8[base+c] = Quant8RNE(v * o.InvOutScale)
			}
		}
	}
}

// Quant8Slice requantizes src into dst: dst[i] = Quant8RNE(src[i]·inv)
// for i < len(dst). The bulk runs through the vector requantization
// tail on amd64; the remainder (and other architectures) use the scalar
// Quant8RNE, which is bitwise identical on finite inputs.
func Quant8Slice(dst []int8, src []float32, inv float32) {
	src = src[:len(dst)]
	for i := quant8SliceVec(dst, src, inv); i < len(dst); i++ {
		dst[i] = Quant8RNE(src[i] * inv)
	}
}

// Quant8RNE rounds v to the nearest integer (ties to even, matching the
// x86 default rounding of VCVTPS2DQ) clamped to the symmetric int8
// range — the one requantization used everywhere in the int8 path.
func Quant8RNE(v float32) int8 {
	r := math.RoundToEven(float64(v))
	if r > Gemm8AMax {
		return Gemm8AMax
	}
	if r < -Gemm8AMax {
		return -Gemm8AMax
	}
	return int8(r)
}
