// Package nn is a from-scratch neural-network stack: layers with manual
// backpropagation (convolution, batch normalization, pooling, linear),
// a residual-network builder mirroring the ResNet50/ResNet101 topologies
// the paper uses as image encoders, loss functions (softmax cross entropy,
// the weighted binary cross entropy of §III-A, MSE), the AdamW optimizer
// with decoupled weight decay and the cosine-annealing learning-rate
// schedule of the paper's training recipe.
//
// Conventions: image activations are NCHW [N, C, H, W]; feature matrices
// are [N, d]; all compute is float32; every source of randomness is an
// explicit *rand.Rand.
package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// Param is a trainable parameter: a value tensor and its accumulated
// gradient. The optimizer consumes the gradient; ZeroGrad resets it.
type Param struct {
	// Name identifies the parameter in diagnostics and checkpoints.
	Name string
	// Value is the current parameter tensor.
	Value *tensor.Tensor
	// Grad accumulates ∂loss/∂Value; same shape as Value.
	Grad *tensor.Tensor
	// NoDecay exempts the parameter from weight decay (biases and
	// normalization affine parameters, following AdamW practice).
	NoDecay bool
	// Frozen parameters are skipped by optimizers; used in phase III where
	// the backbone stays stationary while the projection FC trains.
	Frozen bool
	// version counts value mutations; layers that cache derived forms of
	// the value (Linear's packed weight panel) compare it to invalidate.
	version uint64
}

// Version returns the mutation counter of the parameter value. Layers
// caching derived forms of Value (e.g. Linear's pre-packed weight panel)
// rebuild when it changes.
func (p *Param) Version() uint64 { return p.version }

// BumpVersion records a mutation of Value. The optimizers and checkpoint
// loader call it; any other code that writes Value (or replaces the
// tensor wholesale) must too, or stale derived caches will be served.
func (p *Param) BumpVersion() { p.version++ }

// NewParam allocates a parameter wrapping value with a zero gradient.
func NewParam(name string, value *tensor.Tensor) *Param {
	return &Param{Name: name, Value: value, Grad: tensor.New(value.Shape()...)}
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// Count returns the number of scalar parameters.
func (p *Param) Count() int { return p.Value.Len() }

// Layer is the unit of composition: a differentiable module with manual
// forward and backward passes.
//
// Forward consumes the input and returns the output; train selects
// training behaviour (batch-norm batch statistics). Backward
// consumes ∂loss/∂output and returns ∂loss/∂input, accumulating parameter
// gradients into Params() along the way. Backward must be called after
// the Forward whose activations it differentiates.
type Layer interface {
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	Backward(dout *tensor.Tensor) *tensor.Tensor
	Params() []*Param
}

// Stateful is implemented by layers that carry non-parameter state which
// must survive checkpointing — batch-norm running statistics being the
// canonical example. State returns the tensors in a deterministic order.
type Stateful interface {
	State() []*tensor.Tensor
}

// Sequential chains layers; it implements Layer itself.
type Sequential struct {
	Layers []Layer
}

// State aggregates the state tensors of all Stateful children in layer
// order, so Sequential itself satisfies Stateful.
func (s *Sequential) State() []*tensor.Tensor {
	var out []*tensor.Tensor
	for _, l := range s.Layers {
		if st, ok := l.(Stateful); ok {
			out = append(out, st.State()...)
		}
	}
	return out
}

// NewSequential builds a sequential container from the given layers.
func NewSequential(layers ...Layer) *Sequential { return &Sequential{Layers: layers} }

// Append adds more layers to the end of the chain.
func (s *Sequential) Append(layers ...Layer) { s.Layers = append(s.Layers, layers...) }

// Forward runs the layers in order.
func (s *Sequential) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	for _, l := range s.Layers {
		x = l.Forward(x, train)
	}
	return x
}

// Backward runs the layers in reverse order.
func (s *Sequential) Backward(dout *tensor.Tensor) *tensor.Tensor {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		dout = s.Layers[i].Backward(dout)
	}
	return dout
}

// Params returns the concatenated parameters of all layers.
func (s *Sequential) Params() []*Param {
	var ps []*Param
	for _, l := range s.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// CountParams returns the total number of scalar parameters in ps,
// the quantity Fig. 4's x-axis plots.
func CountParams(ps []*Param) int {
	var n int
	for _, p := range ps {
		n += p.Count()
	}
	return n
}

// ZeroGrads clears the gradients of all parameters.
func ZeroGrads(ps []*Param) {
	for _, p := range ps {
		p.ZeroGrad()
	}
}

// SetFrozen marks all parameters in ps as frozen (or unfrozen); frozen
// parameters are skipped by optimizers.
func SetFrozen(ps []*Param, frozen bool) {
	for _, p := range ps {
		p.Frozen = frozen
	}
}

// checkRank panics with a layer-specific message when x does not have the
// expected rank; shared by the layer implementations.
func checkRank(layer string, x *tensor.Tensor, rank int) {
	if x.Rank() != rank {
		panic(fmt.Sprintf("nn.%s: want rank-%d input, have shape %v", layer, rank, x.Shape()))
	}
}
