package nn

import (
	"repro/internal/tensor"
)

// ReLU is the rectified linear activation, max(0, x), any rank.
type ReLU struct {
	mask []bool
}

// NewReLU returns a ReLU layer.
func NewReLU() *ReLU { return &ReLU{} }

// Forward zeroes negative activations, recording the pass-through mask
// for Backward only in training mode (eval retains nothing).
func (r *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	out := tensor.New(x.Shape()...)
	r.mask = nil
	if train {
		r.mask = make([]bool, x.Len())
	}
	for i, v := range x.Data {
		if v > 0 {
			out.Data[i] = v
			if train {
				r.mask[i] = true
			}
		}
	}
	return out
}

// Backward gates the incoming gradient by the forward mask.
func (r *ReLU) Backward(dout *tensor.Tensor) *tensor.Tensor {
	if r.mask == nil {
		panic("nn.ReLU: Backward called before Forward")
	}
	dx := tensor.New(dout.Shape()...)
	for i, pass := range r.mask {
		if pass {
			dx.Data[i] = dout.Data[i]
		}
	}
	return dx
}

// Params returns nil; ReLU has no parameters.
func (r *ReLU) Params() []*Param { return nil }

// Flatten reshapes [N, C, H, W] activations to [N, C·H·W]; backward
// restores the original shape.
type Flatten struct {
	inShape []int
}

// NewFlatten returns a flatten layer.
func NewFlatten() *Flatten { return &Flatten{} }

// Forward flattens all but the batch dimension.
func (f *Flatten) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	f.inShape = x.Shape()
	n := x.Dim(0)
	return x.Reshape(n, x.Len()/n)
}

// Backward restores the pre-flatten shape.
func (f *Flatten) Backward(dout *tensor.Tensor) *tensor.Tensor {
	if f.inShape == nil {
		panic("nn.Flatten: Backward called before Forward")
	}
	return dout.Reshape(f.inShape...)
}

// Params returns nil; Flatten has no parameters.
func (f *Flatten) Params() []*Param { return nil }
