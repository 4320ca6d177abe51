package nn

import (
	"sync"

	"repro/internal/tensor"
)

// The stateless inference path.
//
// Layer.Forward mutates the layer even in eval mode — it may cache
// activations for Backward — so one network cannot be shared across
// goroutines through Forward. A frozen network is served instead through
// its compiled plan (CompiledNet), a read-only object: everything a call
// needs to write (activations, im2col workspace, GEMM panels) lives in a
// per-call Scratch the caller threads through. Any number of goroutines
// may Infer on one plan concurrently, each with its own Scratch.

// Scratch is the per-call workspace of the stateless inference path: an
// arena for activation and im2col buffers plus the matmul worker budget.
// A Scratch is not safe for concurrent use; use one per goroutine,
// typically via GetScratch/PutScratch.
type Scratch struct {
	arena tensor.Arena
	// gemm owns the GEMM packing panels (tensor.GemmBuf): grown once,
	// reused by every plan step this scratch drives, zero steady-state
	// allocations.
	gemm tensor.GemmBuf
	// Workers is the worker budget plan GEMMs may fan out over
	// (tensor.GemmOpts.Workers). It defaults to 1 — callers that already
	// parallelize across batches (the evaluation pipeline, the serving
	// layer under load) keep per-call compute serial; latency-sensitive
	// single-stream callers can raise it. Results are bitwise identical
	// for any value.
	Workers int
}

// NewScratch returns an empty scratch with a serial worker budget.
func NewScratch() *Scratch { return &Scratch{Workers: 1} }

// Grab returns an UNINITIALIZED float32 slice carved from the arena,
// valid until Reset. The compiled inference plan (CompiledNet) reserves
// its activation slab this way; callers must overwrite every element
// they read.
func (s *Scratch) Grab(n int) []float32 { return s.arena.Grab(n) }

// Grab8 returns an UNINITIALIZED int8 slice carved from the arena,
// valid until Reset — the quantized compiled plan's activation slab.
func (s *Scratch) Grab8(n int) []int8 { return s.arena.Grab8(n) }

// Wrap returns an arena-backed tensor header over data (not copied).
func (s *Scratch) Wrap(data []float32, shape ...int) *tensor.Tensor {
	return s.arena.Wrap(data, shape...)
}

// GemmOpts returns the scratch-backed GEMM options the f32 plan ops use:
// this scratch's packing workspace and worker budget.
func (s *Scratch) GemmOpts() tensor.GemmOpts {
	return tensor.GemmOpts{Workers: s.workers(), Buf: &s.gemm}
}

// Gemm8Opts returns the scratch-backed int8 GEMM options the quantized
// compiled plan ops use: this scratch's packing workspace and worker
// budget.
func (s *Scratch) Gemm8Opts() tensor.Gemm8Opts {
	return tensor.Gemm8Opts{Workers: s.workers(), Buf: &s.gemm}
}

// Reset reclaims every arena allocation at once, invalidating tensors
// returned by earlier Infer calls that used this scratch.
func (s *Scratch) Reset() { s.arena.Reset() }

// workers clamps the worker budget to at least 1.
func (s *Scratch) workers() int {
	if s.Workers < 1 {
		return 1
	}
	return s.Workers
}

var scratchPool = sync.Pool{New: func() any { return NewScratch() }}

// GetScratch checks a reset Scratch out of the shared pool.
func GetScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// PutScratch resets s and returns it to the pool. Tensors allocated from
// s become invalid; Clone anything that must survive first.
func PutScratch(s *Scratch) {
	s.Reset()
	s.Workers = 1
	scratchPool.Put(s)
}

// Inferer is the stateless inference contract (see the package comment
// above): a frozen network that computes its eval-mode forward pass
// without mutating itself, allocating from the caller's Scratch. The
// output is scratch-backed and valid until the Scratch is Reset.
// *CompiledNet implements it.
type Inferer interface {
	Infer(x *tensor.Tensor, s *Scratch) *tensor.Tensor
}
