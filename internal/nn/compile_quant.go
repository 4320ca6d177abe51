package nn

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/quant"
	"repro/internal/tensor"
)

// Quantized plan lowering.
//
// CompileQuantized extends the frozen-graph compiler with an int8
// lowering pass. The quantized plan is derived FROM the f32 plan, not
// lowered independently, so it inherits every structural decision —
// BN folding into conv weights (quantization sees the fused weights),
// epilogue fusion, CNHW layout, 1×1 fast paths, liveness-scheduled
// buffers — and adds:
//
//   - calibration: the f32 plan runs over the caller-supplied
//     calibration batch one image per pass, on all cores, recording
//     each intermediate value's max|·| — bitwise what one whole-batch
//     pass records (calibratePlan); activation scales are symmetric
//     per tensor, s = max|v|/127.
//     ReLU preserves its input scale exactly (it is order-preserving
//     on the quantized integers), so that step is a pure int8 op with
//     no requantization error.
//   - weights: each conv's FOLDED weight matrix [outC, K] and each
//     linear's transposed weight matrix [out, in] are quantized per
//     output channel to the kernel's reduced range ±tensor.Gemm8WMax
//     (quant.QuantizeRows) and pre-packed once per fold generation
//     (PackB8), ~4× smaller resident than the f32 panels.
//   - int8 end to end: activations stay int8 between plan steps —
//     every GEMM dequantizes, applies bias/residual/ReLU and
//     requantizes inside its epilogue write-back — and float32
//     reappears only at the plan boundary (the HDC projection output).
//     Flat activations are kept TRANSPOSED ([d, N] instead of [N, d])
//     so linear layers lower to the same weights-left product form as
//     convolutions, which is the operand order the unsigned×signed
//     VPMADDUBSW kernel fixes.
//
// The quantized plan applies only to the calibration batch's per-sample
// geometry; inputs with any other geometry fall back to the f32 plans
// of the same CompiledNet. Staleness uses the same fingerprint as the
// f32 path (parameter versions + BatchNorm StatsFingerprint), so an
// optimizer step or checkpoint load transparently refolds, REcalibrates
// and requantizes. Like the f32 path, warm Infer allocates nothing —
// int8 activations live in one liveness-scheduled int8 arena slab
// beside the (much smaller) f32 boundary slab — and results are
// bitwise deterministic across worker counts: the integer accumulation
// is exact and the float epilogue is applied per output element.

// CompileQuantized builds an int8-quantized compiler over l, with
// activation ranges calibrated on calib — a representative input batch
// [N, C, H, W] (or [N, d] for flat nets) that is cloned and retained
// for recalibration. Inputs matching calib's per-sample geometry run
// the int8 plan; other geometries fall back to f32 plans. The
// quantized plan for the calibration geometry is built (and its
// lowering validated) eagerly.
func CompileQuantized(l Layer, calib *tensor.Tensor) (*CompiledNet, error) {
	bns, err := scanCompilable(l)
	if err != nil {
		return nil, err
	}
	var qkey planKey
	switch calib.Rank() {
	case 4:
		qkey = planKey{calib.Dim(1), calib.Dim(2), calib.Dim(3)}
	case 2:
		qkey = planKey{calib.Dim(1), -1, -1}
	default:
		return nil, fmt.Errorf("nn.CompileQuantized: want a rank-2 or rank-4 calibration batch, have %v", calib.Shape())
	}
	c := &CompiledNet{root: l, params: l.Params(), bns: bns, calib: calib.Clone(), qkey: qkey}
	if _, err := c.addQPlan(); err != nil {
		return nil, err
	}
	return c, nil
}

// --- Quantized plan representation ----------------------------------------

// qplan is the int8 twin of plan: ops over two liveness-scheduled
// slabs — int8 for quantized activations, f32 for the plan-boundary
// values — with all offsets in per-sample units scaled by the batch
// size at run time.
type qplan struct {
	ops     []qOp
	valOff  []int
	valSize []int
	slot    int // per-sample f32 slab floats
	slot8   int // per-sample int8 slab bytes
	outID   int
	outDims []int
}

// qOp is one fused quantized execution step.
type qOp interface {
	run(p *qplan, slab []float32, slab8 []int8, x []float32, n int, s *Scratch)
}

func (p *qplan) v8(id int, slab8 []int8, n int) []int8 {
	off := p.valOff[id] * n
	return slab8[off : off+p.valSize[id]*n]
}

func (p *qplan) v32(id int, slab []float32, n int) []float32 {
	off := p.valOff[id] * n
	return slab[off : off+p.valSize[id]*n]
}

// run executes the quantized plan over x [N, ...] with s's workspace.
//
//hdc:hotpath
func (p *qplan) run(x *tensor.Tensor, s *Scratch) *tensor.Tensor {
	n := x.Dim(0)
	slab := s.Grab(p.slot * n)
	slab8 := s.Grab8(p.slot8 * n)
	for _, op := range p.ops {
		op.run(p, slab, slab8, x.Data, n, s)
	}
	out := p.v32(p.outID, slab, n)
	switch len(p.outDims) {
	case 1:
		return s.Wrap(out, n, p.outDims[0])
	case 3:
		return s.Wrap(out, n, p.outDims[0], p.outDims[1], p.outDims[2])
	default:
		panic("nn.CompiledNet: unsupported quantized output rank")
	}
}

// --- Quantized ops --------------------------------------------------------

// opQuant8 quantizes the external f32 input into the int8 domain: a
// per-element requantization for spatial NCHW input, a quantizing
// transpose into the [d, N] flat layout for rank-2 input.
type opQuant8 struct {
	outID int
	inv   float32 // 1/inputScale
	flat  bool
	d     int
}

func (o *opQuant8) run(p *qplan, slab []float32, slab8 []int8, x []float32, n int, s *Scratch) {
	out := p.v8(o.outID, slab8, n)
	if !o.flat {
		tensor.Quant8Slice(out, x, o.inv)
		return
	}
	for i := 0; i < n; i++ {
		row := x[i*o.d : (i+1)*o.d]
		for j, v := range row {
			out[j*n+i] = tensor.Quant8RNE(v * o.inv)
		}
	}
}

// opConv8 is the quantized convolution: int8 im2col (skipped on the 1×1
// CNHW fast path), the packed int8 GEMM, and an epilogue that
// dequantizes with the per-channel combined scale, adds the folded f32
// bias, accumulates the int8 residual, clamps, and requantizes to the
// output scale — activations never leave int8.
type opConv8 struct {
	pw   *tensor.PackedB8
	deq  []float32 // per output channel: weightScale·inputScale
	bias []float32
	relu bool

	inID, outID int
	colsID      int
	accID       int
	accScale    float32
	invOut      float32

	inNCHW                         bool
	inC, outC, kH, kW, stride, pad int
	ih, iw, oh, ow                 int
}

//hdc:hotpath
func (o *opConv8) run(p *qplan, slab []float32, slab8 []int8, x []float32, n int, s *Scratch) {
	in := p.v8(o.inID, slab8, n)
	out := p.v8(o.outID, slab8, n)
	g := s.Gemm8Opts()
	g.RowScale = o.deq
	g.Bias = o.bias
	g.ReLU = o.relu
	g.InvOutScale = o.invOut
	if o.accID >= 0 {
		g.Accum = p.v8(o.accID, slab8, n)
		g.AccScale = o.accScale
	}
	ncols := n * o.oh * o.ow
	if o.colsID < 0 {
		tensor.Gemm8QInto(out, o.pw, in, ncols, g)
		return
	}
	cols := p.v8(o.colsID, slab8, n)
	im2colCNHW(cols, in, n, o.inC, o.kH, o.kW, o.stride, o.pad, o.ih, o.iw, o.oh, o.ow, o.inNCHW)
	tensor.Gemm8QInto(out, o.pw, cols, ncols, g)
}

// opLinear8 is the quantized fully connected layer in weights-left
// form: out[out, N] = Wqᵀ[out, in] · act[in, N] over the transposed
// flat layout, per-unit dequant + bias + ReLU in the epilogue. The
// plan-ending projection stores f32 (f32Out); intermediate layers
// requantize and stay int8.
type opLinear8 struct {
	pw     *tensor.PackedB8
	deq    []float32
	bias   []float32
	relu   bool
	f32Out bool
	invOut float32

	inID, outID int
	in, out     int
}

//hdc:hotpath
func (o *opLinear8) run(p *qplan, slab []float32, slab8 []int8, x []float32, n int, s *Scratch) {
	in := p.v8(o.inID, slab8, n)
	g := s.Gemm8Opts()
	g.RowScale = o.deq
	g.Bias = o.bias
	g.ReLU = o.relu
	if o.f32Out {
		tensor.Gemm8Into(p.v32(o.outID, slab, n), o.pw, in, n, g)
		return
	}
	g.InvOutScale = o.invOut
	tensor.Gemm8QInto(p.v8(o.outID, slab8, n), o.pw, in, n, g)
}

// opAffine8 is the quantized per-channel scale/shift (an unfoldable
// BatchNorm2D): v = scale·q + shift in the real domain — scale already
// folds the input dequant — requantized to the output scale.
type opAffine8 struct {
	scale, shift []float32
	relu         bool
	invOut       float32
	inID, outID  int
	c, plane     int
	nchw         bool
}

func (o *opAffine8) run(p *qplan, slab []float32, slab8 []int8, x []float32, n int, s *Scratch) {
	in := p.v8(o.inID, slab8, n)
	out := p.v8(o.outID, slab8, n)
	sampStride, chanStride := o.plane, n*o.plane
	if o.nchw {
		sampStride, chanStride = o.c*o.plane, o.plane
	}
	for ch := 0; ch < o.c; ch++ {
		a, b := o.scale[ch], o.shift[ch]
		for i := 0; i < n; i++ {
			base := ch*chanStride + i*sampStride
			src := in[base : base+o.plane]
			dst := out[base : base+o.plane]
			for j, q := range src {
				v := a*float32(q) + b
				if o.relu && !(v > 0) {
					v = 0
				}
				dst[j] = tensor.Quant8RNE(v * o.invOut)
			}
		}
	}
}

// opReLU8 is the standalone quantized activation: with a symmetric
// scale, ReLU in the real domain IS max(0, q) on the integers, so the
// output reuses the input scale with no requantization error.
type opReLU8 struct{ inID, outID int }

func (o *opReLU8) run(p *qplan, slab []float32, slab8 []int8, x []float32, n int, s *Scratch) {
	in := p.v8(o.inID, slab8, n)
	out := p.v8(o.outID, slab8, n)
	for i, q := range in {
		if q > 0 {
			out[i] = q
		} else {
			out[i] = 0
		}
	}
}

// opAddReLU8 is the residual merge fallback: both operands dequantize,
// add, clamp, requantize.
type opAddReLU8 struct {
	aID, bID, outID int
	sa, sb, invOut  float32
}

func (o *opAddReLU8) run(p *qplan, slab []float32, slab8 []int8, x []float32, n int, s *Scratch) {
	a := p.v8(o.aID, slab8, n)
	b := p.v8(o.bID, slab8, n)
	out := p.v8(o.outID, slab8, n)
	for i, qa := range a {
		v := o.sa*float32(qa) + o.sb*float32(b[i])
		if !(v > 0) {
			v = 0
		}
		out[i] = tensor.Quant8RNE(v * o.invOut)
	}
}

// opAvgPool8 reduces spatial int8 activations to per-channel means.
// The integer sum is EXACT; one float multiply dequantizes it. The
// plan-ending form stores f32 sample-major [N, C]; the intermediate
// form requantizes into the transposed flat layout [C, N].
type opAvgPool8 struct {
	inID, outID int
	c, plane    int
	nchw        bool
	sIn         float32
	invOut      float32
	f32Out      bool
}

func (o *opAvgPool8) run(p *qplan, slab []float32, slab8 []int8, x []float32, n int, s *Scratch) {
	in := p.v8(o.inID, slab8, n)
	sampStride, chanStride := o.plane, n*o.plane
	if o.nchw {
		sampStride, chanStride = o.c*o.plane, o.plane
	}
	var out32 []float32
	var out8 []int8
	if o.f32Out {
		out32 = p.v32(o.outID, slab, n)
	} else {
		out8 = p.v8(o.outID, slab8, n)
	}
	for ch := 0; ch < o.c; ch++ {
		for i := 0; i < n; i++ {
			src := in[ch*chanStride+i*sampStride:]
			var sum int32
			for _, q := range src[:o.plane] {
				sum += int32(q)
			}
			v := float32(float64(o.sIn) * float64(sum) / float64(o.plane))
			if o.f32Out {
				out32[i*o.c+ch] = v
			} else {
				out8[ch*n+i] = tensor.Quant8RNE(v * o.invOut)
			}
		}
	}
}

// opToCN8 flattens a CNHW int8 value into the transposed flat layout
// [c·plane, N] — the quantized Flatten, pure data movement, scale
// preserved.
type opToCN8 struct {
	inID, outID int
	c, plane    int
}

func (o *opToCN8) run(p *qplan, slab []float32, slab8 []int8, x []float32, n int, s *Scratch) {
	in := p.v8(o.inID, slab8, n)
	out := p.v8(o.outID, slab8, n)
	for ch := 0; ch < o.c; ch++ {
		for i := 0; i < n; i++ {
			src := in[(ch*n+i)*o.plane : (ch*n+i+1)*o.plane]
			for j, q := range src {
				out[(ch*o.plane+j)*n+i] = q
			}
		}
	}
}

// opTr8 transposes a sample-major flat int8 value [N, d] into the
// [d, N] layout the quantized GEMM consumes — needed only when a
// Linear's input reaches it without passing through a transposing op
// (an NCHW reshape-Flatten feeding the head directly).
type opTr8 struct {
	inID, outID int
	d           int
}

func (o *opTr8) run(p *qplan, slab []float32, slab8 []int8, x []float32, n int, s *Scratch) {
	in := p.v8(o.inID, slab8, n)
	out := p.v8(o.outID, slab8, n)
	for i := 0; i < n; i++ {
		row := in[i*o.d : (i+1)*o.d]
		for j, q := range row {
			out[j*n+i] = q
		}
	}
}

// opToNCHWDeq8 is the spatial plan boundary: dequantize the final CNHW
// int8 value into sample-major f32 NCHW.
type opToNCHWDeq8 struct {
	inID, outID int
	c, plane    int
	sIn         float32
}

func (o *opToNCHWDeq8) run(p *qplan, slab []float32, slab8 []int8, x []float32, n int, s *Scratch) {
	in := p.v8(o.inID, slab8, n)
	out := p.v32(o.outID, slab, n)
	for ch := 0; ch < o.c; ch++ {
		for i := 0; i < n; i++ {
			src := in[(ch*n+i)*o.plane : (ch*n+i+1)*o.plane]
			dst := out[(i*o.c+ch)*o.plane : (i*o.c+ch+1)*o.plane]
			for j, q := range src {
				dst[j] = float32(q) * o.sIn
			}
		}
	}
}

// opDeqFlat8 is the flat plan boundary for transposed producers with no
// f32 store of their own: dequantize [d, N] int8 into sample-major
// [N, d] f32.
type opDeqFlat8 struct {
	inID, outID int
	d           int
	sIn         float32
}

func (o *opDeqFlat8) run(p *qplan, slab []float32, slab8 []int8, x []float32, n int, s *Scratch) {
	in := p.v8(o.inID, slab8, n)
	out := p.v32(o.outID, slab, n)
	for j := 0; j < o.d; j++ {
		col := in[j*n : (j+1)*n]
		for i, q := range col {
			out[i*o.d+j] = float32(q) * o.sIn
		}
	}
}

// opDeqSame8 is the order-preserving plan boundary: the final int8
// value is already sample-major (NCHW spatial, or flat via an NCHW
// reshape), so dequantization is a straight elementwise map.
type opDeqSame8 struct {
	inID, outID int
	sIn         float32
}

func (o *opDeqSame8) run(p *qplan, slab []float32, slab8 []int8, x []float32, n int, s *Scratch) {
	in := p.v8(o.inID, slab8, n)
	out := p.v32(o.outID, slab, n)
	for i, q := range in {
		out[i] = float32(q) * o.sIn
	}
}

// opUntransposeF restores sample-major order at the flat plan boundary:
// f32 [d, N] (the projection GEMM's output layout) → f32 [N, d].
type opUntransposeF struct {
	inID, outID int
	d           int
}

func (o *opUntransposeF) run(p *qplan, slab []float32, slab8 []int8, x []float32, n int, s *Scratch) {
	in := p.v32(o.inID, slab, n)
	out := p.v32(o.outID, slab, n)
	// Tile the feature dimension so each tile's stride-n source reads
	// stay L1-resident across all samples while the per-sample writes
	// run sequentially; the naive column walk writes at stride d and
	// thrashes the cache once d·N outgrows it.
	const jBlk = 128
	for j0 := 0; j0 < o.d; j0 += jBlk {
		j1 := min(j0+jBlk, o.d)
		for i := 0; i < n; i++ {
			row := out[i*o.d+j0 : i*o.d+j1]
			src := j0*n + i
			for j := range row {
				row[j] = in[src]
				src += n
			}
		}
	}
}

// --- Calibration ----------------------------------------------------------

// planOutID reports the value an op defines, for the calibration scan.
func planOutID(op planOp) int {
	switch o := op.(type) {
	case *opConv:
		return o.outID
	case *opLinear:
		return o.outID
	case *opAffine:
		return o.outID
	case *opReLU:
		return o.outID
	case *opAddReLU:
		return o.outID
	case *opAvgPool:
		return o.outID
	case *opToNCHW:
		return o.outID
	}
	return -1
}

// calibratePlan runs the f32 plan over the calibration batch one image
// per pass, scanning each value right after its defining op stores it
// (buffers are reused, so scanning later would read overwritten
// regions) and returning every value's observed max|·| over the batch.
//
// The images are split into contiguous ranges over GOMAXPROCS
// goroutines. Each owns a private, never-pooled Scratch holding one
// image's slab, and its own max vector; the vectors merge with > at
// the end. Both steps are exact: a max is order-free, and the plan's
// per-sample values do not depend on the batch size (the GEMM is
// column-independent, im2col and pooling work per sample), so the
// result is bitwise that of one whole-batch pass at a fraction of its
// footprint.
func calibratePlan(pl *plan, calib *tensor.Tensor) []float32 {
	n := calib.Dim(0)
	per := calib.Len() / n
	maxAbs := make([]float32, len(pl.valSize))
	var mu sync.Mutex
	tensor.ParallelRows(n, runtime.GOMAXPROCS(0), func(lo, hi int) {
		own := make([]float32, len(pl.valSize))
		s := NewScratch()
		for i := lo; i < hi; i++ {
			s.Reset()
			x := calib.Data[i*per : (i+1)*per]
			slab := s.Grab(pl.slot)
			scanMaxAbs(own, 0, x)
			for _, op := range pl.ops {
				op.run(pl, slab, x, 1, s)
				if id := planOutID(op); id > 0 {
					scanMaxAbs(own, id, pl.val(id, slab, x, 1))
				}
			}
		}
		mu.Lock()
		defer mu.Unlock()
		for id, m := range own {
			if m > maxAbs[id] {
				maxAbs[id] = m
			}
		}
	})
	return maxAbs
}

// scanMaxAbs folds max|·| over data into maxAbs[id].
func scanMaxAbs(maxAbs []float32, id int, data []float32) {
	m := maxAbs[id]
	for _, v := range data {
		if v < 0 {
			v = -v
		}
		if v > m {
			m = v
		}
	}
	maxAbs[id] = m
}

// --- Quantized lowering ---------------------------------------------------

// quantizeRows is quant.QuantizeRows at the kernel's weight range,
// split into row ranges over GOMAXPROCS goroutines. Each row's scale
// and integers depend on that row alone, so the split is exact.
func quantizeRows(q []int8, scales, w []float32, rows, cols int) {
	tensor.ParallelRows(rows, runtime.GOMAXPROCS(0), func(lo, hi int) {
		quant.QuantizeRows(q[lo*cols:hi*cols], scales[lo:hi], w[lo*cols:hi*cols], hi-lo, cols, tensor.Gemm8WMax)
	})
}

// qValSpec is one quantized value's scheduling record. tr marks the
// channel-major layouts (CNHW spatial, [d, N] flat) as opposed to
// sample-major (NCHW spatial, [N, d] flat).
type qValSpec struct {
	size         int // per-sample elements
	f32          bool
	tr           bool
	scale        float32 // activation scale (int8 values)
	def, lastUse int     // op indices; -1 = not defined in the qplan
}

// qBuilder accumulates quantized ops and value live ranges.
type qBuilder struct {
	ops  []qOp
	vals []qValSpec
}

// use marks id as read by the op being built.
func (b *qBuilder) use(id int) int {
	b.vals[id].lastUse = len(b.ops)
	return id
}

// redef re-homes an f32 plan value id as the int8 value written by the
// op being built, with the given layout.
func (b *qBuilder) redef(id int, tr bool) int {
	b.vals[id].def = len(b.ops)
	b.vals[id].lastUse = len(b.ops)
	b.vals[id].tr = tr
	return id
}

// newVal creates a qplan-only value written by the op being built.
func (b *qBuilder) newVal(size int, f32, tr bool, scale float32) int {
	b.vals = append(b.vals, qValSpec{size: size, f32: f32, tr: tr, scale: scale, def: len(b.ops), lastUse: len(b.ops)})
	return len(b.vals) - 1
}

// buildQPlan builds the quantized plan for the calibration geometry:
// the f32 plan supplies the folded structure, one calibration pass
// supplies the activation scales, and each f32 op maps 1:1 onto its
// int8 counterpart (plus the input quantize and the boundary dequant).
func buildQPlan(root Layer, key planKey, calib *tensor.Tensor) (*qplan, error) {
	pl, err := buildPlan(root, key)
	if err != nil {
		return nil, err
	}
	maxAbs := calibratePlan(pl, calib)
	scale := make([]float32, len(pl.valSize))
	for id, m := range maxAbs {
		if m == 0 {
			m = 1
		}
		scale[id] = m / tensor.Gemm8AMax
	}
	// Scale-preserving ops act directly on the integers, so their outputs
	// inherit the input scale exactly (in op order — chains propagate).
	for _, op := range pl.ops {
		switch o := op.(type) {
		case *opReLU:
			scale[o.outID] = scale[o.inID]
		case *opToNCHW:
			scale[o.outID] = scale[o.inID]
		}
	}

	b := &qBuilder{vals: make([]qValSpec, len(pl.valSize))}
	for id := range b.vals {
		b.vals[id] = qValSpec{size: pl.valSize[id], scale: scale[id], def: -1, lastUse: -1}
	}

	// Quantize the external input: rank-2 input transposes to [d, N],
	// rank-4 input stays NCHW (the first conv's im2col handles it).
	flatIn := key.b < 0
	qIn := b.newVal(pl.valSize[0], false, flatIn, scale[0])
	b.ops = append(b.ops, &opQuant8{outID: qIn, inv: 1 / scale[0], flat: flatIn, d: pl.valSize[0]})

	mapID := func(id int) int {
		if id == 0 {
			return qIn
		}
		return id
	}

	outID := -1 // the qplan's f32 output value, once a boundary op emits it
	for i, op := range pl.ops {
		last := i == len(pl.ops)-1
		switch o := op.(type) {
		case *opConv:
			k := o.inC * o.kH * o.kW
			qw := make([]int8, len(o.w))
			ws := make([]float32, o.outC)
			quantizeRows(qw, ws, o.w, o.outC, k)
			in := mapID(o.inID)
			deq := make([]float32, o.outC)
			for r := range deq {
				deq[r] = ws[r] * b.vals[in].scale
			}
			q := &opConv8{
				pw: tensor.PackB8(qw, o.outC, k), deq: deq, bias: o.bias, relu: o.relu,
				inID: b.use(in), colsID: -1, accID: -1,
				invOut: 1 / scale[o.outID],
				inNCHW: o.inNCHW,
				inC:    o.inC, outC: o.outC, kH: o.kH, kW: o.kW, stride: o.stride, pad: o.pad,
				ih: o.ih, iw: o.iw, oh: o.oh, ow: o.ow,
			}
			if o.accID >= 0 {
				acc := mapID(o.accID)
				q.accID = b.use(acc)
				q.accScale = b.vals[acc].scale
			}
			if o.colsID >= 0 {
				q.colsID = b.redef(o.colsID, true)
			}
			q.outID = b.redef(o.outID, true)
			b.ops = append(b.ops, q)

		case *opLinear:
			in := mapID(o.inID)
			if !b.vals[in].tr {
				// Sample-major flat input (an NCHW reshape fed the head
				// directly): transpose into GEMM layout first.
				t8 := &opTr8{inID: b.use(in), d: o.in}
				t8.outID = b.newVal(o.in, false, true, b.vals[in].scale)
				b.ops = append(b.ops, t8)
				in = t8.outID
			}
			// Transpose W [in, out] → [out, in] so the quantized product is
			// weights-left over the transposed flat activations.
			wt := make([]float32, o.out*o.in)
			for r := 0; r < o.in; r++ {
				for c := 0; c < o.out; c++ {
					wt[c*o.in+r] = o.w.Data[r*o.out+c]
				}
			}
			qw := make([]int8, len(wt))
			ws := make([]float32, o.out)
			quantizeRows(qw, ws, wt, o.out, o.in)
			deq := make([]float32, o.out)
			for r := range deq {
				deq[r] = ws[r] * b.vals[in].scale
			}
			q := &opLinear8{
				pw: tensor.PackB8(qw, o.out, o.in), deq: deq, bias: o.bias, relu: o.relu,
				inID: b.use(in), in: o.in, out: o.out,
			}
			if last {
				// The plan-ending projection stores f32 [out, N]; restore
				// sample-major order with a final transpose.
				q.f32Out = true
				q.outID = b.newVal(o.out, true, true, 0)
				b.ops = append(b.ops, q)
				tr := &opUntransposeF{inID: b.use(q.outID), d: o.out}
				tr.outID = b.newVal(o.out, true, false, 0)
				b.ops = append(b.ops, tr)
				outID = tr.outID
				break
			}
			q.invOut = 1 / scale[o.outID]
			q.outID = b.redef(o.outID, true)
			b.ops = append(b.ops, q)

		case *opAffine:
			in := mapID(o.inID)
			sc := make([]float32, o.c)
			for ch := range sc {
				sc[ch] = o.scale[ch] * b.vals[in].scale
			}
			q := &opAffine8{
				scale: sc, shift: o.shift, relu: o.relu,
				invOut: 1 / scale[o.outID],
				inID:   b.use(in), c: o.c, plane: o.plane, nchw: o.nchw,
			}
			q.outID = b.redef(o.outID, b.vals[in].tr)
			b.ops = append(b.ops, q)

		case *opReLU:
			in := mapID(o.inID)
			q := &opReLU8{inID: b.use(in)}
			q.outID = b.redef(o.outID, b.vals[in].tr)
			b.ops = append(b.ops, q)

		case *opAddReLU:
			a, acc := mapID(o.aID), mapID(o.bID)
			q := &opAddReLU8{
				aID: b.use(a), bID: b.use(acc),
				sa: b.vals[a].scale, sb: b.vals[acc].scale,
				invOut: 1 / scale[o.outID],
			}
			q.outID = b.redef(o.outID, b.vals[a].tr)
			b.ops = append(b.ops, q)

		case *opAvgPool:
			in := mapID(o.inID)
			q := &opAvgPool8{
				inID: b.use(in), c: o.c, plane: o.plane, nchw: o.nchw,
				sIn: b.vals[in].scale,
			}
			if last {
				q.f32Out = true
				q.outID = b.newVal(o.c, true, false, 0)
				outID = q.outID
			} else {
				q.invOut = 1 / scale[o.outID]
				q.outID = b.redef(o.outID, true)
			}
			b.ops = append(b.ops, q)

		case *opToNCHW:
			in := mapID(o.inID)
			if last {
				q := &opToNCHWDeq8{
					inID: b.use(in), c: o.c, plane: o.plane,
					sIn: b.vals[in].scale,
				}
				q.outID = b.newVal(o.c*o.plane, true, false, 0)
				b.ops = append(b.ops, q)
				outID = q.outID
				break
			}
			// Mid-graph Flatten from CNHW: quantized flat values stay
			// transposed, so this lowers to the CNHW → [d, N] flatten.
			q := &opToCN8{inID: b.use(in), c: o.c, plane: o.plane}
			q.outID = b.redef(o.outID, true)
			b.ops = append(b.ops, q)

		default:
			return nil, fmt.Errorf("nn.CompileQuantized: op %T has no quantized lowering", op)
		}
	}

	// Plan boundary: if no op above emitted the f32 output (the final
	// producer stayed int8), append the layout-matching dequant.
	if outID < 0 {
		fin := pl.outID
		v := b.vals[fin]
		switch {
		case !v.tr:
			q := &opDeqSame8{inID: b.use(fin), sIn: v.scale}
			q.outID = b.newVal(v.size, true, false, 0)
			b.ops = append(b.ops, q)
			outID = q.outID
		case len(pl.outDims) == 1:
			q := &opDeqFlat8{inID: b.use(fin), d: v.size, sIn: v.scale}
			q.outID = b.newVal(v.size, true, false, 0)
			b.ops = append(b.ops, q)
			outID = q.outID
		default:
			// buildPlan always restores NCHW before a spatial output, so a
			// transposed spatial final value cannot reach here.
			return nil, fmt.Errorf("nn.CompileQuantized: plan ends on a CNHW value")
		}
	}
	b.vals[outID].lastUse = len(b.ops)

	return scheduleQPlan(b, outID, pl.outDims), nil
}

// scheduleQPlan assigns every quantized value an offset in its slab
// (int8 activations, f32 boundary values) with the same best-fit free
// list over live ranges buildPlan uses — two slabs, one scheduler each.
func scheduleQPlan(b *qBuilder, outID int, outDims []int) *qplan {
	p := &qplan{
		ops:     b.ops,
		valOff:  make([]int, len(b.vals)),
		valSize: make([]int, len(b.vals)),
		outID:   outID,
		outDims: outDims,
	}
	var free32, free8 freeList
	var wm32, peak32, wm8, peak8 int
	for id, v := range b.vals {
		p.valSize[id] = v.size
		p.valOff[id] = -1
	}
	for i := range b.ops {
		for id := range b.vals {
			v := b.vals[id]
			if v.def != i {
				continue
			}
			free, wm, peak := &free8, &wm8, &peak8
			if v.f32 {
				free, wm, peak = &free32, &wm32, &peak32
			}
			off, ok := free.take(v.size)
			if !ok {
				off = *wm
				*wm += v.size
				if *wm > *peak {
					*peak = *wm
				}
			}
			p.valOff[id] = off
		}
		for id := range b.vals {
			v := b.vals[id]
			if v.lastUse != i || v.def < 0 {
				continue
			}
			if v.f32 {
				wm32 = free32.give(p.valOff[id], v.size, wm32)
			} else {
				wm8 = free8.give(p.valOff[id], v.size, wm8)
			}
		}
	}
	p.slot = peak32
	p.slot8 = peak8
	return p
}
