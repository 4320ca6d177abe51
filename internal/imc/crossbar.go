// Package imc simulates the in-memory-computing deployment the paper's
// outlook (§V) proposes: offloading the stationary binary attribute
// encoder weights and the similarity-kernel matrix-vector products to an
// analog non-von-Neumann accelerator such as the PCM-based Hermes core
// [37] or a digital always-on HDC accelerator [38].
//
// The model captures the three dominant analog non-idealities:
//
//   - programming noise: each stored conductance deviates from its
//     target by a Gaussian proportional to the conductance range;
//   - read noise: every matrix-vector product adds fresh Gaussian noise
//     per output line;
//   - ADC quantization: outputs are clipped and uniformly quantized to
//     a configurable bit width.
//
// The point of the simulation — and of the paper's architecture — is
// that the HDC similarity readout tolerates these corruptions: class
// predictions survive noise levels that would cripple exact arithmetic.
// BenchmarkIMCRobustness and examples/edge_profile quantify it.
package imc

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"

	"repro/internal/tensor"
)

// Config describes the analog array non-idealities.
type Config struct {
	// ProgNoise is the std of programming error relative to the full
	// conductance range (typical PCM: 0.02–0.08).
	ProgNoise float64
	// ReadNoise is the std of per-MVM additive output noise relative to
	// the maximum ideal output magnitude.
	ReadNoise float64
	// ADCBits is the output quantizer resolution; 0 disables quantization.
	ADCBits int
	// Seed drives the programming-noise draw (fixed at Program time) and
	// the read-noise stream.
	Seed int64
}

// Ideal returns a configuration with no non-idealities, for A/B testing.
func Ideal() Config { return Config{} }

// TypicalPCM returns non-idealities representative of a PCM crossbar of
// the Hermes-core class [37].
func TypicalPCM() Config {
	return Config{ProgNoise: 0.04, ReadNoise: 0.02, ADCBits: 8, Seed: 1}
}

// Crossbar is a weight matrix programmed into a simulated analog array.
// The programmed (noisy) conductances are drawn once at Program time —
// exactly like device programming — while read noise is fresh per MVM.
// A Crossbar is safe for concurrent MVMs: the read-noise stream is the
// only mutable state and is drawn under a mutex. Sequential callers see
// a deterministic stream per seed; concurrent callers interleave draws
// nondeterministically, exactly like concurrent reads of a physical
// array.
type Crossbar struct {
	cfg        Config
	programmed *tensor.Tensor // [rows, cols] with programming noise baked in
	scale      float32        // max |w| of the ideal matrix

	// packedT lazily caches the programmed matrix transpose-packed for
	// the register-blocked GEMM the batched MVM path runs on (the
	// digital model of a parallel analog read). The programmed
	// conductances are immutable after Program, so the pack never
	// invalidates.
	packedT atomic.Pointer[tensor.PackedB]

	mu      sync.Mutex // guards readRng
	readRng *rand.Rand
}

// Program stores the weight matrix w [rows, cols] into a new crossbar,
// applying programming noise.
func Program(w *tensor.Tensor, cfg Config) *Crossbar {
	if w.Rank() != 2 {
		panic(fmt.Sprintf("imc.Program: want rank-2 weights, have %v", w.Shape()))
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	mn, mx := w.MinMax()
	scale := float32(math.Max(math.Abs(float64(mn)), math.Abs(float64(mx))))
	if scale == 0 {
		scale = 1
	}
	prog := w.Clone()
	if cfg.ProgNoise > 0 {
		for i := range prog.Data {
			prog.Data[i] += scale * float32(rng.NormFloat64()*cfg.ProgNoise)
		}
	}
	return &Crossbar{
		cfg:        cfg,
		programmed: prog,
		scale:      scale,
		readRng:    rand.New(rand.NewSource(cfg.Seed + 1)),
	}
}

// Rows returns the number of stored rows (output lines).
func (c *Crossbar) Rows() int { return c.programmed.Dim(0) }

// Cols returns the input dimension.
func (c *Crossbar) Cols() int { return c.programmed.Dim(1) }

// MatMulTInto computes X·Wᵀ for a batch X [n, cols] into the caller's
// dst [n, rows] without allocating, applying read noise and ADC
// quantization per probe row — the steady-state path of the inference
// engine's crossbar backend. The ideal products run through the packed
// register-blocked GEMM over a cached transpose-packed tile of the
// programmed matrix (one analog array computes all its output lines at
// once; the digital model may too — FloatBackend uses the same kernel,
// which is what keeps the ideal crossbar bit-identical to the float
// reference). The noise stream is consumed one corruptRow pass per probe
// row, in row order, so seeded noisy runs stay reproducible.
func (c *Crossbar) MatMulTInto(dst, x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() != 2 || x.Dim(1) != c.Cols() {
		panic(fmt.Sprintf("imc.MatMulTInto: input %v incompatible with crossbar %dx%d",
			x.Shape(), c.Rows(), c.Cols()))
	}
	pb := c.packedT.Load()
	if pb == nil {
		// Concurrent builders produce identical packs; one wins.
		pb = tensor.PackBT(c.programmed)
		c.packedT.Store(pb)
	}
	tensor.GemmInto(dst, x, nil, tensor.GemmOpts{PB: pb})
	for r := 0; r < dst.Dim(0); r++ {
		c.corruptRow(dst.Row(r), x.Row(r))
	}
	return dst
}

// corruptRow applies read noise and ADC quantization in place to one
// probe's output lines. The noise and clipping ranges are referenced to
// the worst-case ideal output magnitude scale·‖x‖₁, the physically
// meaningful full-scale range.
func (c *Crossbar) corruptRow(out, x []float32) {
	var l1 float64
	for _, v := range x {
		l1 += math.Abs(float64(v))
	}
	full := float64(c.scale) * l1
	if full == 0 {
		return
	}
	if c.cfg.ReadNoise > 0 {
		c.mu.Lock()
		for i := range out {
			out[i] += float32(c.readRng.NormFloat64() * c.cfg.ReadNoise * full)
		}
		c.mu.Unlock()
	}
	if c.cfg.ADCBits > 0 {
		levels := float64(int(1) << uint(c.cfg.ADCBits))
		step := 2 * full / levels
		for i := range out {
			v := math.Max(-full, math.Min(full, float64(out[i])))
			out[i] = float32(math.Round(v/step) * step)
		}
	}
}

// SimilarityKernel computes the HDC-ZSC similarity logits with the class
// embedding matrix resident in the crossbar: cos(x, W_r)/K per output
// line, using analog MVMs for the dot products. Row norms are taken from
// the *programmed* matrix (they would be calibrated once on-device).
type SimilarityKernel struct {
	bar      *Crossbar
	rowNorms *tensor.Tensor
	K        float32
}

// NewSimilarityKernel programs the class-embedding matrix phi [C, d]
// into an array and returns the analog similarity kernel with
// temperature k.
func NewSimilarityKernel(phi *tensor.Tensor, k float32, cfg Config) *SimilarityKernel {
	if k <= 0 {
		panic("imc.NewSimilarityKernel: temperature must be positive")
	}
	bar := Program(phi, cfg)
	return &SimilarityKernel{bar: bar, rowNorms: tensor.RowNorms(bar.programmed), K: k}
}

// NewSimilarityKernelRows programs rows — rows [lo, lo+rows.Dim(0)) of
// a larger class matrix — into an array: one tile of a sharded
// deployment where the class memory is split across several physical
// crossbars and queried in parallel (the infer engine's crossbar
// backend). Each tile
// strides its noise seed by twice the row offset — Program consumes two
// consecutive seeds (programming at Seed, read noise at Seed+1), so a
// stride of one would alias adjacent width-1 tiles' streams — keeping
// distinct tiles on independent noise streams and a given shard layout
// deterministic.
func NewSimilarityKernelRows(rows *tensor.Tensor, lo int, k float32, cfg Config) *SimilarityKernel {
	if rows.Rank() != 2 {
		panic(fmt.Sprintf("imc.NewSimilarityKernelRows: want rank-2 rows, have %v", rows.Shape()))
	}
	if lo < 0 || rows.Dim(0) == 0 {
		panic(fmt.Sprintf("imc.NewSimilarityKernelRows: bad row range [%d,%d)", lo, lo+rows.Dim(0)))
	}
	cfg.Seed += int64(lo) * 2
	return NewSimilarityKernel(rows, k, cfg)
}

// Rows returns the number of class rows resident in the kernel's array.
func (s *SimilarityKernel) Rows() int { return s.bar.Rows() }

// Logits returns the [n, C] similarity logits for embeddings x [n, d].
func (s *SimilarityKernel) Logits(x *tensor.Tensor) *tensor.Tensor {
	return s.LogitsInto(tensor.New(x.Dim(0), s.Rows()), x)
}

// LogitsInto computes the similarity logits into the caller's dst
// [n, C] without allocating; dst is fully overwritten (zero where the
// cosine denominator degenerates). Noise consumption and arithmetic are
// identical to Logits.
func (s *SimilarityKernel) LogitsInto(dst, x *tensor.Tensor) *tensor.Tensor {
	s.bar.MatMulTInto(dst, x)
	d := x.Dim(1)
	for r := 0; r < dst.Dim(0); r++ {
		// Row norm computed exactly like tensor.RowNorms (float64
		// accumulation), so logits match the allocating path bit for bit.
		var sq float64
		row := x.Data[r*d : (r+1)*d]
		for _, v := range row {
			sq += float64(v) * float64(v)
		}
		xn := float32(math.Sqrt(sq))
		drow := dst.Row(r)
		for cIdx := range drow {
			den := xn * s.rowNorms.Data[cIdx] * s.K
			if den != 0 {
				drow[cIdx] /= den
			} else {
				drow[cIdx] = 0
			}
		}
	}
	return dst
}
