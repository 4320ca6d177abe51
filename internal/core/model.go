package core

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// AttributeEncoder is the contract both of the paper's attribute encoders
// satisfy: the stationary HDC codebook encoder (attrenc.HDCEncoder) and
// the trainable MLP reference (attrenc.MLPEncoder).
type AttributeEncoder interface {
	// Encode maps a class-attribute matrix [C, α] to embeddings [C, d].
	Encode(a *tensor.Tensor, train bool) *tensor.Tensor
	// Backward consumes ∂loss/∂embeddings; stationary encoders ignore it.
	Backward(dPhi *tensor.Tensor)
	// Params returns trainable parameters (nil for stationary encoders).
	Params() []*nn.Param
	// OutDim returns the embedding dimensionality d.
	OutDim() int
	// Name labels the encoder in reports ("HDC", "MLP").
	Name() string
}

// ImageEncoder is γ(·): a ResNet backbone optionally followed by an FC
// projection to the ZSC embedding dimension d (Fig. 2). Without the
// projection, d equals the backbone output d′ (the "ResNet50, d=2048"
// ablation row of Table II).
type ImageEncoder struct {
	Backbone *nn.ResNet
	Proj     *nn.Linear // nil when no projection layer is used

	compileOnce sync.Once
	compiled    *nn.CompiledNet

	// quantMu guards the optional quantized plan installed by
	// CompiledInt8.
	quantMu  sync.Mutex
	quantNet *nn.CompiledNet
}

// NewImageEncoder builds γ from a backbone config; projDim ≤ 0 omits the
// FC projection.
func NewImageEncoder(rng *rand.Rand, cfg nn.ResNetConfig, projDim int) *ImageEncoder {
	backbone := nn.NewResNet(rng, cfg)
	enc := &ImageEncoder{Backbone: backbone}
	if projDim > 0 {
		enc.Proj = nn.NewLinear(rng, cfg.Name+".proj", backbone.OutDim(), projDim, true)
	}
	return enc
}

// OutDim returns the embedding dimension the encoder produces.
func (e *ImageEncoder) OutDim() int {
	if e.Proj != nil {
		return e.Proj.OutDim()
	}
	return e.Backbone.OutDim()
}

// Forward computes γ(x) for images [B, 3, H, W] → [B, d].
func (e *ImageEncoder) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	emb := e.Backbone.Forward(x, train)
	if e.Proj != nil {
		emb = e.Proj.Forward(emb, train)
	}
	return emb
}

// CompileChain describes γ to the frozen-graph compiler (nn.Compile)
// as its ordered layer chain: backbone, then the optional projection.
func (e *ImageEncoder) CompileChain() []nn.Layer {
	if e.Proj != nil {
		return []nn.Layer{e.Backbone, e.Proj}
	}
	return []nn.Layer{e.Backbone}
}

// Compiled returns the encoder's frozen inference plan: BatchNorms
// folded into conv weights, bias/ReLU/residual adds fused into GEMM
// write-backs, buffers pre-scheduled (see nn.CompiledNet). It is the
// serving, evaluation and attribute-score (AttributeScores) readout
// path, safe for any number of goroutines sharing one encoder (each
// brings its own nn.Scratch); plans build lazily per input geometry and
// refold automatically when parameters change (optimizer steps,
// LoadParams). The plan matches
// Forward(x, false) only within the BN-folding rounding tolerance,
// while remaining bitwise deterministic across worker counts itself.
func (e *ImageEncoder) Compiled() *nn.CompiledNet {
	e.compileOnce.Do(func() { e.compiled = nn.MustCompile(e) })
	return e.compiled
}

// CompiledInt8 builds (once) and returns the encoder's quantized
// inference plan: the frozen graph of Compiled lowered to int8 GEMM
// steps, with per-channel weight scales and activation scales
// calibrated on calib (a representative image batch [B, 3, H, W] at the
// serving geometry — see nn.CompileQuantized). The plan keeps
// activations int8 between steps and dequantizes only at the embedding
// boundary; inputs whose geometry differs from calib transparently run
// the f32 plan of the same net. The first call's calibration batch
// wins; later calls return the cached plan. Installing the plan also
// switches EvalNet — and with it the evaluation readout — to int8.
func (e *ImageEncoder) CompiledInt8(calib *tensor.Tensor) (*nn.CompiledNet, error) {
	e.quantMu.Lock()
	defer e.quantMu.Unlock()
	if e.quantNet == nil {
		q, err := nn.CompileQuantized(e, calib)
		if err != nil {
			return nil, err
		}
		e.quantNet = q
	}
	return e.quantNet, nil
}

// EvalNet returns the plan the evaluation readout embeds through: the
// quantized plan when CompiledInt8 has installed one, else the f32
// compiled plan. Both are safe for any number of concurrent Infer
// callers and bitwise deterministic across worker budgets.
func (e *ImageEncoder) EvalNet() *nn.CompiledNet {
	e.quantMu.Lock()
	q := e.quantNet
	e.quantMu.Unlock()
	if q != nil {
		return q
	}
	return e.Compiled()
}

// Backward propagates the embedding gradient through the encoder.
func (e *ImageEncoder) Backward(dout *tensor.Tensor) *tensor.Tensor {
	if e.Proj != nil {
		dout = e.Proj.Backward(dout)
	}
	return e.Backbone.Backward(dout)
}

// Params returns backbone plus projection parameters.
func (e *ImageEncoder) Params() []*nn.Param {
	ps := e.Backbone.Params()
	if e.Proj != nil {
		ps = append(ps, e.Proj.Params()...)
	}
	return ps
}

// FreezeBackbone marks backbone parameters frozen (phase III keeps the
// backbone stationary while the FC projection fine-tunes).
func (e *ImageEncoder) FreezeBackbone() { nn.SetFrozen(e.Backbone.Params(), true) }

// UnfreezeBackbone re-enables backbone training.
func (e *ImageEncoder) UnfreezeBackbone() { nn.SetFrozen(e.Backbone.Params(), false) }

// Model is the full HDC-ZSC architecture of Fig. 1: image encoder γ,
// attribute encoder ϕ, and the similarity kernel.
type Model struct {
	Image  *ImageEncoder
	Attr   AttributeEncoder
	Kernel *SimilarityKernel

	// caches for Backward
	lastPhi *tensor.Tensor
}

// NewModel assembles a model; the encoders must agree on d.
func NewModel(img *ImageEncoder, attr AttributeEncoder, kernel *SimilarityKernel) *Model {
	if img.OutDim() != attr.OutDim() {
		panic(fmt.Sprintf("core.NewModel: image encoder d=%d but attribute encoder d=%d",
			img.OutDim(), attr.OutDim()))
	}
	return &Model{Image: img, Attr: attr, Kernel: kernel}
}

// Logits runs the full pipeline: images [B,3,H,W] and class attributes
// [C,α] to similarity logits [B,C].
func (m *Model) Logits(images, classAttr *tensor.Tensor, train bool) *tensor.Tensor {
	emb := m.Image.Forward(images, train)
	m.lastPhi = m.Attr.Encode(classAttr, train)
	return m.Kernel.Forward(emb, m.lastPhi)
}

// Backward propagates ∂loss/∂logits through the kernel into both
// encoders.
func (m *Model) Backward(dlogits *tensor.Tensor) {
	dx, dp := m.Kernel.Backward(dlogits)
	m.Image.Backward(dx)
	m.Attr.Backward(dp)
}

// Params returns every trainable parameter of the model (image encoder,
// attribute encoder if trainable, kernel temperature).
func (m *Model) Params() []*nn.Param {
	ps := m.Image.Params()
	ps = append(ps, m.Attr.Params()...)
	ps = append(ps, m.Kernel.Params()...)
	return ps
}

// ParamCount returns the total trainable parameter count, the Fig. 4
// x-axis. Frozen parameters still count (they are part of the deployed
// model); the stationary HDC codebooks do not (they are not parameters).
func (m *Model) ParamCount() int { return nn.CountParams(m.Params()) }

// Predict returns the predicted class index per image:
// ŷ = argmax_i cossim(γ(x), ϕ(a_i)).
func (m *Model) Predict(images, classAttr *tensor.Tensor) []int {
	return tensor.ArgMax(m.Logits(images, classAttr, false))
}
