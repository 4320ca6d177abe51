package nn

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/tensor"
)

// Frozen inference-graph compiler — the one inference path.
//
// Layer.Forward executes the graph the way it was trained: each ResNet
// block makes a conv GEMM pass, a BatchNorm pass, a ReLU pass and a
// residual-add pass over its activation tensor, and all but the first
// are pure memory traffic. Compile walks a frozen network once and
// produces an immutable execution plan in which
//
//   - every frozen BatchNorm2D is FOLDED into the preceding convolution:
//     w'_c = w_c·γ_c/√(σ²_c+ε), b'_c = β_c − μ_c·γ_c/√(σ²_c+ε), so the
//     normalization costs nothing at all;
//   - bias, ReLU and the block-ending residual add are fused into the
//     GEMM write-back epilogue (tensor.GemmOpts ReLU/Accum), so each
//     activation tensor is written exactly once, while still hot;
//   - internal activations live in [C, N·H·W] ("CNHW") layout — the
//     natural output layout of a batched im2col GEMM — which removes
//     the per-conv NCHW scatter entirely and lets 1×1 stride-1
//     convolutions (two of the three convs in a bottleneck block) run
//     the GEMM straight off the previous activation with no im2col at
//     all;
//   - buffers are pre-planned: the compiler computes the live range of
//     every intermediate value, assigns offsets in one arena
//     reservation sized to the peak, and the plan's steady state
//     allocates nothing by construction.
//
// Invalidation mirrors the PR-4 packed-weight cache: the plan is keyed
// on the Version of every parameter plus a content fingerprint of every
// BatchNorm2D's running statistics (StatsFingerprint); an optimizer
// step, LoadParams — including a state-only restore through
// StateParams, which writes the stat tensors directly — or a training
// Forward pass makes the next Infer refold transparently. Like the
// layer caches, the version check is not synchronized against writers —
// a network must be frozen while it serves.
//
// Numerics: folding changes float32 rounding (the scale multiplies the
// weights before the product instead of the sum after it), so
// CompiledNet.Infer is NOT bitwise equal to Forward(x, false); it is
// pinned within tolerance of a float64 oracle by the compile tests.
// The compiled path itself is bitwise deterministic: every epilogue is
// applied per output element after its complete, partition-independent
// k accumulation, so results are identical for any Scratch worker
// budget and any GOMAXPROCS.

// Compilable lets composite modules outside this package describe
// themselves to the graph compiler as an ordered chain of layers
// (core.ImageEncoder: backbone, then projection).
type Compilable interface {
	CompileChain() []Layer
}

// CompiledNet is an immutable inference plan over a frozen network; it
// implements Inferer and is safe for any number of concurrent Infer
// callers (each with its own Scratch). Plans are built lazily per input
// geometry and rebuilt when the source network's parameter or
// batch-norm-statistic versions move.
type CompiledNet struct {
	root   Layer
	params []*Param
	bns    []*BatchNorm2D

	// calib, when non-nil, makes this a QUANTIZED compiler
	// (CompileQuantized): plans for the calibration batch's geometry
	// (qkey) are lowered to int8 GEMM steps with scales calibrated on
	// this batch; other geometries fall back to f32 plans.
	calib *tensor.Tensor
	qkey  planKey

	mu    sync.Mutex // serializes plan building; readers are lock-free
	state atomic.Pointer[compiledState]
}

// compiledState pairs one fold generation's fingerprint with the plans
// built from it. It is immutable: adding a plan publishes a copy. q is
// the quantized plan for the calibration geometry (CompileQuantized
// nets only); it shares the fingerprint discipline, so an optimizer
// step or checkpoint load recalibrates and requantizes transparently.
type compiledState struct {
	fp    []uint64
	plans map[planKey]*plan
	q     *qplan
}

// planKey identifies a plan by per-sample input geometry: (C, H, W) for
// rank-4 image input, (d, -1, -1) for rank-2 feature input.
type planKey struct{ a, b, c int }

// Compile builds a compiler over l, which must be composed of the
// layer types this package knows how to lower (Conv2D, BatchNorm2D,
// ReLU, Linear, Flatten, GlobalAvgPool, Sequential, residual blocks,
// ResNet, and Compilable composites). The returned
// CompiledNet builds its execution plans on first use per input shape.
func Compile(l Layer) (*CompiledNet, error) {
	bns, err := scanCompilable(l)
	if err != nil {
		return nil, err
	}
	return &CompiledNet{root: l, params: l.Params(), bns: bns}, nil
}

// MustCompile is Compile, panicking on unsupported layers.
func MustCompile(l Layer) *CompiledNet {
	c, err := Compile(l)
	if err != nil {
		panic(err)
	}
	return c
}

// scanCompilable verifies every reachable layer is lowerable and
// collects the batch-norm layers whose running statistics the fold
// depends on, in deterministic traversal order.
func scanCompilable(l Layer) ([]*BatchNorm2D, error) {
	var bns []*BatchNorm2D
	var walk func(l Layer) error
	walk = func(l Layer) error {
		switch t := l.(type) {
		case *Sequential:
			for _, c := range t.Layers {
				if err := walk(c); err != nil {
					return err
				}
			}
		case *ResNet:
			return walk(t.body)
		case *residualBlock:
			if t.shortcut != nil {
				if err := walk(t.shortcut); err != nil {
					return err
				}
			}
			return walk(t.main)
		case *BatchNorm2D:
			bns = append(bns, t)
		case *Conv2D, *Linear, *ReLU, *Flatten, *GlobalAvgPool:
		case Compilable:
			for _, c := range t.CompileChain() {
				if err := walk(c); err != nil {
					return err
				}
			}
		default:
			return fmt.Errorf("nn.Compile: layer %T has no lowering; teach compile.go about it", l)
		}
		return nil
	}
	if err := walk(l); err != nil {
		return nil, err
	}
	return bns, nil
}

// fingerprint returns the current fold key: every parameter version,
// then every batch-norm running-stat content hash, in scan order.
//
//hdc:coldpath version probe allocates only on rebuild checks
func (c *CompiledNet) fingerprint() []uint64 {
	fp := make([]uint64, 0, len(c.params)+len(c.bns))
	for _, p := range c.params {
		fp = append(fp, p.Version())
	}
	for _, bn := range c.bns {
		fp = append(fp, bn.StatsFingerprint())
	}
	return fp
}

// fresh reports whether fp still matches the live network, without
// allocating (the per-Infer staleness check).
func (c *CompiledNet) fresh(fp []uint64) bool {
	i := 0
	for _, p := range c.params {
		if fp[i] != p.Version() {
			return false
		}
		i++
	}
	for _, bn := range c.bns {
		if fp[i] != bn.StatsFingerprint() {
			return false
		}
		i++
	}
	return true
}

// Infer runs the compiled plan for x's geometry, refolding first if the
// network changed since the plan was built. The output tensor is
// scratch-backed (valid until s.Reset); with a warm Scratch and a built
// plan the call allocates nothing.
//
//hdc:hotpath
func (c *CompiledNet) Infer(x *tensor.Tensor, s *Scratch) *tensor.Tensor {
	var key planKey
	switch x.Rank() {
	case 4:
		key = planKey{x.Dim(1), x.Dim(2), x.Dim(3)}
	case 2:
		key = planKey{x.Dim(1), -1, -1}
	default:
		panic(fmt.Sprintf("nn.CompiledNet: want rank-2 or rank-4 input, have %v", x.Shape()))
	}
	st := c.state.Load()
	if st == nil || !c.fresh(st.fp) {
		st = c.refold()
	}
	if c.calib != nil && key == c.qkey {
		qp := st.q
		if qp == nil {
			var err error
			if qp, err = c.addQPlan(); err != nil {
				panic(err)
			}
		}
		return qp.run(x, s)
	}
	pl := st.plans[key]
	if pl == nil {
		var err error
		if pl, err = c.addPlan(key); err != nil {
			panic(err)
		}
	}
	return pl.run(x, s)
}

// Precompile builds (and caches) the plan for one per-sample input
// shape — [C, H, W] for image nets, [d] for flat nets — returning the
// lowering error instead of panicking. Servers call it at start-up, so a
// graph the compiler cannot lower fails there rather than on the first
// request, and the plan is warm before traffic arrives.
func (c *CompiledNet) Precompile(sampleShape ...int) error {
	var key planKey
	switch len(sampleShape) {
	case 3:
		key = planKey{sampleShape[0], sampleShape[1], sampleShape[2]}
	case 1:
		key = planKey{sampleShape[0], -1, -1}
	default:
		return fmt.Errorf("nn.CompiledNet: want a rank-1 or rank-3 per-sample shape, have %v", sampleShape)
	}
	st := c.state.Load()
	if st == nil || !c.fresh(st.fp) {
		st = c.refold()
	}
	if c.calib != nil && key == c.qkey {
		if st.q != nil {
			return nil
		}
		_, err := c.addQPlan()
		return err
	}
	if st.plans[key] != nil {
		return nil
	}
	_, err := c.addPlan(key)
	return err
}

// refold publishes a fresh empty state for the network's current
// versions (plans rebuild lazily per geometry).
//
//hdc:coldpath rebuild after a version bump; runs once per mutation
func (c *CompiledNet) refold() *compiledState {
	c.mu.Lock()
	defer c.mu.Unlock()
	if st := c.state.Load(); st != nil && c.fresh(st.fp) {
		return st // another caller refolded while we waited
	}
	st := &compiledState{fp: c.fingerprint(), plans: map[planKey]*plan{}}
	c.state.Store(st)
	return st
}

// addPlan builds the plan for key and publishes a state extended with
// it. Concurrent builders for the same key produce identical plans; one
// wins the publish, and losing duplicates are equivalent and harmless.
//
//hdc:coldpath one-time plan construction per batch geometry
func (c *CompiledNet) addPlan(key planKey) (*plan, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cur := c.state.Load()
	if cur == nil || !c.fresh(cur.fp) {
		cur = &compiledState{fp: c.fingerprint(), plans: map[planKey]*plan{}}
	}
	if pl := cur.plans[key]; pl != nil {
		c.state.Store(cur)
		return pl, nil
	}
	pl, err := buildPlan(c.root, key)
	if err != nil {
		return nil, err
	}
	next := &compiledState{fp: cur.fp, plans: make(map[planKey]*plan, len(cur.plans)+1), q: cur.q}
	//hdc:allow determinism copy-on-write into a fresh map; key order does not affect the published state
	for k, v := range cur.plans {
		next.plans[k] = v
	}
	next.plans[key] = pl
	c.state.Store(next)
	return pl, nil
}

// addQPlan builds the quantized plan for the calibration geometry and
// publishes a state extended with it, mirroring addPlan.
//
//hdc:coldpath one-time quantized plan construction
func (c *CompiledNet) addQPlan() (*qplan, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cur := c.state.Load()
	if cur == nil || !c.fresh(cur.fp) {
		cur = &compiledState{fp: c.fingerprint(), plans: map[planKey]*plan{}}
	}
	if cur.q != nil {
		c.state.Store(cur)
		return cur.q, nil
	}
	qp, err := buildQPlan(c.root, c.qkey, c.calib)
	if err != nil {
		return nil, err
	}
	next := &compiledState{fp: cur.fp, plans: make(map[planKey]*plan, len(cur.plans)), q: qp}
	//hdc:allow determinism copy-on-write into a fresh map; key order does not affect the published state
	for k, v := range cur.plans {
		next.plans[k] = v
	}
	c.state.Store(next)
	return qp, nil
}

// --- Plan representation --------------------------------------------------

// plan is one immutable execution schedule for a fixed per-sample input
// geometry. Every intermediate value has a pre-assigned offset in a
// single slab whose per-sample footprint is the peak live size the
// scheduler computed; at run time all offsets scale by the batch size,
// which preserves disjointness for any N.
type plan struct {
	ops     []planOp
	valOff  []int // per value: slab offset in per-sample floats; -1 = the external input
	valSize []int // per value: per-sample float count
	slot    int   // per-sample slab floats (peak live)
	outID   int
	outDims []int // per-sample output dims (batch axis prepended at run time)
}

// planOp is one fused execution step.
type planOp interface {
	run(p *plan, slab, x []float32, n int, s *Scratch)
}

// val resolves a value id to its runtime region.
func (p *plan) val(id int, slab, x []float32, n int) []float32 {
	if p.valOff[id] < 0 {
		return x
	}
	off := p.valOff[id] * n
	return slab[off : off+p.valSize[id]*n]
}

// run executes the plan over x [N, ...] with s's workspace.
//
//hdc:hotpath
func (p *plan) run(x *tensor.Tensor, s *Scratch) *tensor.Tensor {
	n := x.Dim(0)
	slab := s.Grab(p.slot * n)
	for _, op := range p.ops {
		op.run(p, slab, x.Data, n, s)
	}
	out := p.val(p.outID, slab, x.Data, n)
	switch len(p.outDims) {
	case 1:
		return s.Wrap(out, n, p.outDims[0])
	case 3:
		return s.Wrap(out, n, p.outDims[0], p.outDims[1], p.outDims[2])
	default:
		panic("nn.CompiledNet: unsupported output rank")
	}
}

// --- Ops ------------------------------------------------------------------

// opConv is a convolution with everything the compiler could fold into
// it: batch-norm scale/shift baked into w/bias, an optional residual
// accumulator, and an optional ReLU — one GEMM, zero extra passes. The
// output is CNHW [outC, N·oh·ow]. 1×1 stride-1 convs over CNHW input
// skip im2col entirely: the input IS the GEMM operand.
type opConv struct {
	w    []float32 // [outC, inC·kH·kW], folded
	bias []float32 // folded channel bias, nil if none
	relu bool

	inID, outID int
	colsID      int // im2col workspace value, -1 on the 1×1 fast path
	accID       int // residual accumulator value, -1 if none

	inNCHW                         bool // input layout (the plan's external input)
	inC, outC, kH, kW, stride, pad int
	ih, iw, oh, ow                 int
}

//hdc:hotpath
func (o *opConv) run(p *plan, slab, x []float32, n int, s *Scratch) {
	in := p.val(o.inID, slab, x, n)
	out := p.val(o.outID, slab, x, n)
	g := s.GemmOpts()
	g.RowBias = o.bias
	g.ReLU = o.relu
	if o.accID >= 0 {
		g.Accum = p.val(o.accID, slab, x, n)
	}
	ncols := n * o.oh * o.ow
	if o.colsID < 0 {
		tensor.GemmSlices(out, o.w, in, o.outC, o.inC, ncols, g)
		return
	}
	cols := p.val(o.colsID, slab, x, n)
	o.im2col(cols, in, n)
	tensor.GemmSlices(out, o.w, cols, o.outC, o.inC*o.kH*o.kW, ncols, g)
}

// im2col writes the full batched patch matrix [inC·kH·kW, N·oh·ow],
// including zeros at padded positions — a full overwrite, so the
// workspace needs no pre-clearing. The values match Conv2D.im2col
// exactly; only the column order differs with the CNHW batch layout.
func (o *opConv) im2col(dst, x []float32, n int) {
	im2colCNHW(dst, x, n, o.inC, o.kH, o.kW, o.stride, o.pad, o.ih, o.iw, o.oh, o.ow, o.inNCHW)
}

// im2colCNHW is the batched CNHW-output patch gather shared by the f32
// (opConv) and int8 (opConv8) compiled convolutions — identical element
// placement, so the quantized path's geometry is pinned by the f32
// parity tests. Padded positions are written as the element type's zero
// (the int8 plan's zero point: symmetric scales make q = 0 exact).
//
//hdc:hotpath
func im2colCNHW[T float32 | int8](dst, x []T, n, inC, kH, kW, stride, pad, h, w, oh, ow int, inNCHW bool) {
	rowStride := n * oh * ow
	sampStride, chanStride := h*w, n*h*w
	if inNCHW {
		sampStride, chanStride = inC*h*w, h*w
	}
	for ic := 0; ic < inC; ic++ {
		for ky := 0; ky < kH; ky++ {
			for kx := 0; kx < kW; kx++ {
				base := ((ic*kH+ky)*kW + kx) * rowStride
				if ky >= stride {
					// Row-shift derivation: this tap reads source row
					// iy = oy·stride+ky−pad = (oy+1)·stride+(ky−stride)−pad,
					// i.e. exactly tap (ky−stride, kx) shifted up one
					// output row — horizontal clears included. Bulk-copy
					// the overlap from the already-gathered tap and
					// gather only the final output row.
					pbase := ((ic*kH+ky-stride)*kW + kx) * rowStride
					lo, hi := 0, ow
					if pad > kx {
						lo = (pad - kx + stride - 1) / stride
					}
					if t := (w-1-kx+pad)/stride + 1; t < hi {
						hi = t
					}
					if hi < lo {
						hi = lo
					}
					ix0 := lo*stride + kx - pad
					iy := (oh-1)*stride + ky - pad
					if !inNCHW {
						// Samples are contiguous within a tap row, so the
						// overlap copy merges into ONE memmove across the
						// batch. Each sample's final row picks up the next
						// sample's first row, but the patch below rewrites
						// every final row anyway.
						copy(dst[base:base+n*oh*ow-ow], dst[pbase+ow:pbase+n*oh*ow])
					}
					for i := 0; i < n; i++ {
						d := dst[base+i*oh*ow : base+i*oh*ow+oh*ow]
						if inNCHW {
							dprev := dst[pbase+i*oh*ow : pbase+i*oh*ow+oh*ow]
							copy(d[:(oh-1)*ow], dprev[ow:])
						}
						row := d[(oh-1)*ow:]
						if iy < 0 || iy >= h {
							clear(row)
							continue
						}
						srow := x[ic*chanStride+i*sampStride+iy*w:]
						clear(row[:lo])
						clear(row[hi:])
						if stride == 1 {
							copy(row[lo:hi], srow[ix0:])
						} else {
							for ox, ix := lo, ix0; ox < hi; ox, ix = ox+1, ix+stride {
								row[ox] = srow[ix]
							}
						}
					}
					continue
				}
				if kx >= stride && !(stride == 1 && ow == w) {
					// Column-shift derivation: within a row this tap reads
					// ix = ox·stride+kx−pad = (ox+1)·stride+(kx−stride)−pad,
					// i.e. tap (ky, kx−stride) shifted left one output
					// column. Bulk-copy (the one-element shift wraps row
					// boundaries) and patch the final column of each row.
					pbase := ((ic*kH+ky)*kW + kx - stride) * rowStride
					ixLast := (ow-1)*stride + kx - pad
					if !inNCHW {
						// Merged one-element shift across the whole batch;
						// the sample-boundary element lands in each final
						// row's last column, which the patch below rewrites.
						copy(dst[base:base+n*oh*ow-1], dst[pbase+1:pbase+n*oh*ow])
					}
					for i := 0; i < n; i++ {
						d := dst[base+i*oh*ow : base+i*oh*ow+oh*ow]
						if inNCHW {
							dprev := dst[pbase+i*oh*ow : pbase+i*oh*ow+oh*ow]
							copy(d[:oh*ow-1], dprev[1:])
						}
						if ixLast < 0 || ixLast >= w {
							for oy := 0; oy < oh; oy++ {
								d[oy*ow+ow-1] = 0
							}
							continue
						}
						src := x[ic*chanStride+i*sampStride:]
						for oy, iy := 0, ky-pad; oy < oh; oy, iy = oy+1, iy+stride {
							var v T
							if iy >= 0 && iy < h {
								v = src[iy*w+ixLast]
							}
							d[oy*ow+ow-1] = v
						}
					}
					continue
				}
				if stride == 1 && ow == w {
					// Same-width rows: the dst→src index delta is the
					// constant dy·w+dx over the whole valid region, so
					// each sample is ONE bulk copy plus cheap edge
					// clears instead of oh tiny per-row copies — the
					// per-call memmove overhead on 8–16 byte rows
					// otherwise dominates the whole gather.
					dy, dx := ky-pad, kx-pad
					oyLo, oyHi := max(0, -dy), min(oh, h-dy)
					lo, hi := max(0, -dx), min(w, w-dx)
					merged := !inNCHW && oh == h && oyLo < oyHi
					if merged {
						// oh·ow == sampStride here, so the constant-delta
						// copy extends across the whole batch in ONE
						// memmove; the pad-row gaps it fills with the
						// neighbouring sample's data are re-cleared in the
						// per-sample pass below.
						off := ic*chanStride + (oyLo+dy)*w + dx + lo
						copy(dst[base+oyLo*w+lo:base+(n-1)*oh*ow+(oyHi-1)*w+hi], x[off:])
					}
					for i := 0; i < n; i++ {
						d := dst[base+i*oh*ow : base+i*oh*ow+oh*ow]
						clear(d[:oyLo*w])
						clear(d[oyHi*w:])
						if oyLo < oyHi {
							if !merged {
								src := x[ic*chanStride+i*sampStride:]
								copy(d[oyLo*w+lo:(oyHi-1)*w+hi], src[(oyLo+dy)*w+dx+lo:])
							}
							if dx != 0 {
								// Re-zero the horizontally padded
								// columns the bulk copy wrapped across
								// row boundaries.
								for oy := oyLo; oy < oyHi; oy++ {
									clear(d[oy*w : oy*w+lo])
									clear(d[oy*w+hi : oy*w+w])
								}
							}
						}
					}
					continue
				}
				// General stride: hoist the valid oy range
				// (0 ≤ oy·stride+ky−pad < h) and ox range
				// (0 ≤ ox·stride+kx−pad < w) to the tap level, bulk-
				// clear the fully padded top/bottom rows, and strength-
				// reduce the source index so the per-element strided
				// gather runs branch- and multiply-free.
				oyLo, oyHi := 0, oh
				if pad > ky {
					oyLo = (pad - ky + stride - 1) / stride
				}
				if t := (h-1-ky+pad)/stride + 1; t < oyHi {
					oyHi = t
				}
				if oyHi < oyLo {
					oyHi = oyLo
				}
				lo, hi := 0, ow
				if pad > kx {
					lo = (pad - kx + stride - 1) / stride
				}
				if t := (w-1-kx+pad)/stride + 1; t < hi {
					hi = t
				}
				if hi < lo {
					hi = lo
				}
				ix0 := lo*stride + kx - pad
				srcRow0 := (oyLo*stride + ky - pad) * w
				for i := 0; i < n; i++ {
					src := x[ic*chanStride+i*sampStride:]
					d := dst[base+i*oh*ow : base+i*oh*ow+oh*ow]
					clear(d[:oyLo*ow])
					clear(d[oyHi*ow:])
					if stride == 2 && oyLo < oyHi && lo < hi {
						// The downsampling taps' even-byte gather has a
						// vector path for int8 (the pointer-based type
						// assertion compiles to a static check and never
						// allocates). Falls through to the scalar rows
						// on f32, off amd64, or without source slack.
						if d8, ok := any(&d).(*[]int8); ok {
							s8 := *any(&src).(*[]int8)
							if tensor.Gather8Stride2((*d8)[oyLo*ow+lo:], s8[srcRow0+ix0:], oyHi-oyLo, hi-lo, ow, 2*w) {
								if lo > 0 || hi < ow {
									for oy := oyLo; oy < oyHi; oy++ {
										row := d[oy*ow : oy*ow+ow]
										clear(row[:lo])
										clear(row[hi:])
									}
								}
								continue
							}
						}
					}
					for oy := oyLo; oy < oyHi; oy++ {
						row := d[oy*ow : oy*ow+ow]
						srow := src[(oy*stride+ky-pad)*w:]
						clear(row[:lo])
						clear(row[hi:])
						if stride == 1 {
							copy(row[lo:hi], srow[ix0:])
						} else {
							for ox, ix := lo, ix0; ox < hi; ox, ix = ox+1, ix+stride {
								row[ox] = srow[ix]
							}
						}
					}
				}
			}
		}
	}
}

// opLinear is a fully connected layer over the version-cached packed
// weight panel, bias and optional ReLU fused into the epilogue.
type opLinear struct {
	pb          *tensor.PackedB
	w           *tensor.Tensor // raw weights [in, out]; the quantized lowering reads them
	bias        []float32
	relu        bool
	inID, outID int
	in, out     int
}

func (o *opLinear) run(p *plan, slab, x []float32, n int, s *Scratch) {
	in := p.val(o.inID, slab, x, n)
	out := p.val(o.outID, slab, x, n)
	g := s.GemmOpts()
	g.PB = o.pb
	g.ColBias = o.bias
	g.ReLU = o.relu
	tensor.GemmSlices(out, in, nil, n, o.in, o.out, g)
}

// opAffine is a per-channel scale/shift — a BatchNorm2D the compiler
// could not fold into a preceding convolution.
type opAffine struct {
	scale, shift []float32
	relu         bool
	inID, outID  int
	c, plane     int
	nchw         bool
}

func (o *opAffine) run(p *plan, slab, x []float32, n int, s *Scratch) {
	in := p.val(o.inID, slab, x, n)
	out := p.val(o.outID, slab, x, n)
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
			if o.relu {
				for j, v := range src {
					if v = a*v + b; v > 0 {
						dst[j] = v
					} else {
						dst[j] = 0
					}
				}
			} else {
				for j, v := range src {
					dst[j] = a*v + b
				}
			}
		}
	}
}

// opReLU is a standalone activation (one the compiler found nothing to
// fuse it into).
type opReLU struct{ inID, outID int }

func (o *opReLU) run(p *plan, slab, x []float32, n int, s *Scratch) {
	in := p.val(o.inID, slab, x, n)
	out := p.val(o.outID, slab, x, n)
	for i, v := range in {
		if v > 0 {
			out[i] = v
		} else {
			out[i] = 0
		}
	}
}

// opAddReLU is the residual merge fallback for blocks whose main branch
// does not end in a conv the add could fuse into.
type opAddReLU struct{ aID, bID, outID int }

func (o *opAddReLU) run(p *plan, slab, x []float32, n int, s *Scratch) {
	a := p.val(o.aID, slab, x, n)
	b := p.val(o.bID, slab, x, n)
	out := p.val(o.outID, slab, x, n)
	for i, v := range a {
		if v += b[i]; v > 0 {
			out[i] = v
		} else {
			out[i] = 0
		}
	}
}

// opAvgPool reduces spatial activations to per-channel means [N, C],
// accumulating in float64 exactly like the GlobalAvgPool layer.
type opAvgPool struct {
	inID, outID int
	c, plane    int
	nchw        bool
}

func (o *opAvgPool) run(p *plan, slab, x []float32, n int, s *Scratch) {
	in := p.val(o.inID, slab, x, n)
	out := p.val(o.outID, slab, x, n)
	sampStride, chanStride := o.plane, n*o.plane
	if o.nchw {
		sampStride, chanStride = o.c*o.plane, o.plane
	}
	inv := float64(o.plane)
	for ch := 0; ch < o.c; ch++ {
		for i := 0; i < n; i++ {
			src := in[ch*chanStride+i*sampStride:]
			var sum float64
			for _, v := range src[:o.plane] {
				sum += float64(v)
			}
			out[i*o.c+ch] = float32(sum / inv)
		}
	}
}

// opToNCHW transposes a CNHW value back to sample-major order — the
// position-preserving Flatten, and the layout restore when a compiled
// graph ends while still spatial.
type opToNCHW struct {
	inID, outID int
	c, plane    int
}

func (o *opToNCHW) run(p *plan, slab, x []float32, n int, s *Scratch) {
	in := p.val(o.inID, slab, x, n)
	out := p.val(o.outID, slab, x, n)
	for ch := 0; ch < o.c; ch++ {
		for i := 0; i < n; i++ {
			copy(out[(i*o.c+ch)*o.plane:(i*o.c+ch+1)*o.plane],
				in[(ch*n+i)*o.plane:(ch*n+i+1)*o.plane])
		}
	}
}

// --- Lowering -------------------------------------------------------------

// actShape tracks the current activation's per-sample geometry and
// layout through lowering.
type actShape struct {
	flat    bool
	d       int // flat width
	c, h, w int // spatial dims
	nchw    bool
}

func (sh actShape) size() int {
	if sh.flat {
		return sh.d
	}
	return sh.c * sh.h * sh.w
}

// valSpec is one intermediate value's scheduling record.
type valSpec struct {
	size         int // per-sample floats
	def, lastUse int // op indices
}

// lowerer accumulates ops and value live ranges while walking the layer
// graph.
type lowerer struct {
	ops  []planOp
	vals []valSpec
	cur  int // current activation value id
	sh   actShape
	err  error
}

// use marks id as read by the op being built.
func (lo *lowerer) use(id int) int {
	lo.vals[id].lastUse = len(lo.ops)
	return id
}

// def creates a value written by the op being built.
func (lo *lowerer) def(size int) int {
	lo.vals = append(lo.vals, valSpec{size: size, def: len(lo.ops), lastUse: len(lo.ops)})
	return len(lo.vals) - 1
}

func (lo *lowerer) fail(format string, args ...any) {
	if lo.err == nil {
		lo.err = fmt.Errorf("nn.Compile: "+format, args...)
	}
}

func (lo *lowerer) lower(l Layer) {
	if lo.err != nil {
		return
	}
	switch t := l.(type) {
	case *Sequential:
		for _, c := range t.Layers {
			lo.lower(c)
		}
	case *ResNet:
		lo.lower(t.body)
	case *residualBlock:
		lo.lowerResidual(t)
	case *Conv2D:
		lo.lowerConv(t)
	case *BatchNorm2D:
		lo.lowerBN(t)
	case *ReLU:
		lo.lowerReLU()
	case *Linear:
		lo.lowerLinear(t)
	case *Flatten:
		lo.lowerFlatten()
	case *GlobalAvgPool:
		lo.lowerAvgPool()
	case Compilable:
		for _, c := range t.CompileChain() {
			lo.lower(c)
		}
	default:
		lo.fail("layer %T has no lowering", l)
	}
}

func (lo *lowerer) lowerConv(t *Conv2D) {
	if lo.sh.flat {
		lo.fail("Conv2D over flat input")
		return
	}
	if lo.sh.c != t.inC {
		lo.fail("Conv2D expects %d channels, graph carries %d", t.inC, lo.sh.c)
		return
	}
	oh, ow := t.OutSize(lo.sh.h, lo.sh.w)
	op := &opConv{
		w: t.W.Value.Data, relu: false,
		inID: lo.use(lo.cur), colsID: -1, accID: -1,
		inNCHW: lo.sh.nchw,
		inC:    t.inC, outC: t.outC, kH: t.kH, kW: t.kW, stride: t.stride, pad: t.pad,
		ih: lo.sh.h, iw: lo.sh.w, oh: oh, ow: ow,
	}
	if t.B != nil {
		op.bias = t.B.Value.Data
	}
	if !(t.kH == 1 && t.kW == 1 && t.stride == 1 && t.pad == 0 && !lo.sh.nchw) {
		op.colsID = lo.def(t.inC * t.kH * t.kW * oh * ow)
	}
	op.outID = lo.def(t.outC * oh * ow)
	lo.ops = append(lo.ops, op)
	lo.cur = op.outID
	lo.sh = actShape{c: t.outC, h: oh, w: ow}
}

// lowerBN folds the batch norm into the immediately preceding conv when
// possible; otherwise it lowers to a standalone per-channel affine.
func (lo *lowerer) lowerBN(t *BatchNorm2D) {
	if lo.sh.flat {
		lo.fail("BatchNorm2D over flat input")
		return
	}
	if lo.sh.c != t.Gamma.Value.Len() {
		lo.fail("BatchNorm2D expects %d channels, graph carries %d", t.Gamma.Value.Len(), lo.sh.c)
		return
	}
	if len(lo.ops) > 0 {
		if cv, ok := lo.ops[len(lo.ops)-1].(*opConv); ok &&
			cv.outID == lo.cur && !cv.relu && cv.accID < 0 && cv.bias == nil {
			// Fold: scale each output-channel weight row, synthesize the
			// channel bias. cv.bias == nil is guaranteed for unfused convs
			// built for BN (bias=false); a biased conv falls through to the
			// affine path rather than guessing at compounding semantics.
			cv.w, cv.bias = foldConvBN(cv.w, t)
			return
		}
	}
	scale := make([]float32, lo.sh.c)
	shift := make([]float32, lo.sh.c)
	for ch := 0; ch < lo.sh.c; ch++ {
		inv := float32(1 / math.Sqrt(float64(t.RunningVar.Data[ch])+float64(t.Eps)))
		scale[ch] = t.Gamma.Value.Data[ch] * inv
		shift[ch] = t.Beta.Value.Data[ch] - t.RunningMean.Data[ch]*scale[ch]
	}
	op := &opAffine{
		scale: scale, shift: shift,
		inID: lo.use(lo.cur), c: lo.sh.c, plane: lo.sh.h * lo.sh.w, nchw: lo.sh.nchw,
	}
	op.outID = lo.def(lo.sh.size())
	lo.ops = append(lo.ops, op)
	lo.cur = op.outID
}

// foldConvBN returns conv weights and bias with the frozen batch norm
// baked in: w'_c = w_c·s_c, b'_c = β_c − μ_c·s_c with s_c = γ_c/√(σ²+ε)
// computed exactly like BatchNorm2D.normalizeFrozen's inverse std.
func foldConvBN(w []float32, bn *BatchNorm2D) (fw, fb []float32) {
	outC := bn.Gamma.Value.Len()
	k := len(w) / outC
	fw = make([]float32, len(w))
	fb = make([]float32, outC)
	for c := 0; c < outC; c++ {
		inv := float32(1 / math.Sqrt(float64(bn.RunningVar.Data[c])+float64(bn.Eps)))
		s := bn.Gamma.Value.Data[c] * inv
		src := w[c*k : (c+1)*k]
		dst := fw[c*k : (c+1)*k]
		for j, v := range src {
			dst[j] = v * s
		}
		fb[c] = bn.Beta.Value.Data[c] - bn.RunningMean.Data[c]*s
	}
	return fw, fb
}

// lowerReLU fuses into the producing op's epilogue when the last op
// wrote the current value and has a free relu slot.
func (lo *lowerer) lowerReLU() {
	if len(lo.ops) > 0 {
		switch op := lo.ops[len(lo.ops)-1].(type) {
		case *opConv:
			if op.outID == lo.cur && !op.relu {
				op.relu = true
				return
			}
		case *opLinear:
			if op.outID == lo.cur && !op.relu {
				op.relu = true
				return
			}
		case *opAffine:
			if op.outID == lo.cur && !op.relu {
				op.relu = true
				return
			}
		}
	}
	op := &opReLU{inID: lo.use(lo.cur)}
	op.outID = lo.def(lo.sh.size())
	lo.ops = append(lo.ops, op)
	lo.cur = op.outID
}

func (lo *lowerer) lowerLinear(t *Linear) {
	if !lo.sh.flat {
		lo.fail("Linear over spatial input (add a Flatten or pool first)")
		return
	}
	if lo.sh.d != t.InDim() {
		lo.fail("Linear expects %d inputs, graph carries %d", t.InDim(), lo.sh.d)
		return
	}
	op := &opLinear{pb: t.packedW(), w: t.W.Value, inID: lo.use(lo.cur), in: t.InDim(), out: t.out}
	if t.B != nil {
		op.bias = t.B.Value.Data
	}
	op.outID = lo.def(t.out)
	lo.ops = append(lo.ops, op)
	lo.cur = op.outID
	lo.sh = actShape{flat: true, d: t.out}
}

func (lo *lowerer) lowerFlatten() {
	if lo.sh.flat {
		return // already flat: identity
	}
	c, plane := lo.sh.c, lo.sh.h*lo.sh.w
	if lo.sh.nchw {
		// Sample-major already: a pure reshape.
		lo.sh = actShape{flat: true, d: c * plane}
		return
	}
	op := &opToNCHW{inID: lo.use(lo.cur), c: c, plane: plane}
	op.outID = lo.def(c * plane)
	lo.ops = append(lo.ops, op)
	lo.cur = op.outID
	lo.sh = actShape{flat: true, d: c * plane}
}

func (lo *lowerer) lowerAvgPool() {
	if lo.sh.flat {
		lo.fail("GlobalAvgPool over flat input")
		return
	}
	op := &opAvgPool{inID: lo.use(lo.cur), c: lo.sh.c, plane: lo.sh.h * lo.sh.w, nchw: lo.sh.nchw}
	op.outID = lo.def(lo.sh.c)
	lo.ops = append(lo.ops, op)
	lo.cur = op.outID
	lo.sh = actShape{flat: true, d: op.c}
}

// lowerResidual lowers relu(main(x) + shortcut(x)). The shortcut runs
// first; the main branch's closing conv then consumes its output as the
// fused GEMM accumulator with the ReLU in the same epilogue — the whole
// block ends in a single write of its output tensor.
func (lo *lowerer) lowerResidual(b *residualBlock) {
	inID, inSh := lo.cur, lo.sh
	accID := inID
	if b.shortcut != nil {
		lo.lower(b.shortcut)
		if lo.err != nil {
			return
		}
		accID = lo.cur
		lo.cur, lo.sh = inID, inSh
	} else if inSh.nchw {
		lo.fail("identity-shortcut residual block directly on the network input is unsupported")
		return
	}
	lo.lower(b.main)
	if lo.err != nil {
		return
	}
	if cv, ok := lo.ops[len(lo.ops)-1].(*opConv); ok && cv.outID == lo.cur && !cv.relu && cv.accID < 0 {
		cv.accID = accID
		cv.relu = true
		if lo.vals[accID].lastUse < len(lo.ops)-1 {
			lo.vals[accID].lastUse = len(lo.ops) - 1
		}
		return
	}
	op := &opAddReLU{aID: lo.use(lo.cur), bID: lo.use(accID)}
	op.outID = lo.def(lo.sh.size())
	lo.ops = append(lo.ops, op)
	lo.cur = op.outID
}

// --- Buffer scheduling ----------------------------------------------------

// buildPlan lowers root for one input geometry and assigns every value
// an offset in a single slab via a best-fit free list over live ranges:
// a value's region is reusable from the op after its last read, and a
// dying input's region is never handed to the same op's output (GEMM
// outputs must not alias operands). The slab's per-sample footprint is
// the peak concurrent liveness — the ping-pong schedule, computed
// rather than hand-written.
func buildPlan(root Layer, key planKey) (*plan, error) {
	lo := &lowerer{}
	if key.b < 0 {
		lo.sh = actShape{flat: true, d: key.a}
	} else {
		lo.sh = actShape{c: key.a, h: key.b, w: key.c, nchw: true}
	}
	lo.vals = []valSpec{{size: lo.sh.size(), def: -1, lastUse: -1}}
	lo.cur = 0
	lo.lower(root)
	if lo.err != nil {
		return nil, lo.err
	}
	if len(lo.ops) == 0 {
		return nil, fmt.Errorf("nn.Compile: graph lowered to zero ops")
	}
	// Restore sample-major layout if the graph ends while still CNHW.
	if !lo.sh.flat && !lo.sh.nchw {
		op := &opToNCHW{inID: lo.use(lo.cur), c: lo.sh.c, plane: lo.sh.h * lo.sh.w}
		op.outID = lo.def(lo.sh.size())
		lo.ops = append(lo.ops, op)
		lo.cur = op.outID
		lo.sh.nchw = true
	}
	if lo.cur == 0 {
		return nil, fmt.Errorf("nn.Compile: graph output aliases the input")
	}
	// The output must survive the whole plan (and the caller's use of it).
	lo.vals[lo.cur].lastUse = len(lo.ops)

	p := &plan{
		ops:     lo.ops,
		valOff:  make([]int, len(lo.vals)),
		valSize: make([]int, len(lo.vals)),
		outID:   lo.cur,
	}
	if lo.sh.flat {
		p.outDims = []int{lo.sh.d}
	} else {
		p.outDims = []int{lo.sh.c, lo.sh.h, lo.sh.w}
	}
	for id, v := range lo.vals {
		p.valSize[id] = v.size
	}
	p.valOff[0] = -1

	var free freeList
	watermark, peak := 0, 0
	for i := range lo.ops {
		for id := 1; id < len(lo.vals); id++ {
			if lo.vals[id].def != i {
				continue
			}
			off, ok := free.take(lo.vals[id].size)
			if !ok {
				off = watermark
				watermark += lo.vals[id].size
				if watermark > peak {
					peak = watermark
				}
			}
			p.valOff[id] = off
		}
		for id := 1; id < len(lo.vals); id++ {
			if lo.vals[id].lastUse == i {
				watermark = free.give(p.valOff[id], lo.vals[id].size, watermark)
			}
		}
	}
	p.slot = peak
	return p, nil
}

// freeList is a sorted, coalescing list of reusable slab gaps.
type freeList []struct{ off, size int }

// take removes (part of) the best-fit gap of at least size floats.
func (f *freeList) take(size int) (off int, ok bool) {
	best := -1
	for i, g := range *f {
		if g.size >= size && (best < 0 || g.size < (*f)[best].size) {
			best = i
		}
	}
	if best < 0 {
		return 0, false
	}
	g := &(*f)[best]
	off = g.off
	if g.size == size {
		*f = append((*f)[:best], (*f)[best+1:]...)
	} else {
		g.off += size
		g.size -= size
	}
	return off, true
}

// give returns a region to the list, coalescing neighbours; a gap that
// reaches the watermark is trimmed off it (the returned value is the
// new watermark).
func (f *freeList) give(off, size, watermark int) int {
	i := 0
	for i < len(*f) && (*f)[i].off < off {
		i++
	}
	*f = append(*f, struct{ off, size int }{})
	copy((*f)[i+1:], (*f)[i:])
	(*f)[i] = struct{ off, size int }{off, size}
	// Coalesce with the right then left neighbour.
	if i+1 < len(*f) && (*f)[i].off+(*f)[i].size == (*f)[i+1].off {
		(*f)[i].size += (*f)[i+1].size
		*f = append((*f)[:i+1], (*f)[i+2:]...)
	}
	if i > 0 && (*f)[i-1].off+(*f)[i-1].size == (*f)[i].off {
		(*f)[i-1].size += (*f)[i].size
		*f = append((*f)[:i], (*f)[i+1:]...)
		i--
	}
	if (*f)[i].off+(*f)[i].size == watermark {
		watermark = (*f)[i].off
		*f = append((*f)[:i], (*f)[i+1:]...)
	}
	return watermark
}
