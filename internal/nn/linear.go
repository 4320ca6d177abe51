package nn

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"repro/internal/tensor"
)

// Linear is a fully connected layer y = x·W + b with W stored [in, out].
// It implements the paper's FC projection layer (backbone embedding d' →
// ZSC embedding d) and the temporary FC' softmax head of phase I.
type Linear struct {
	W, B *Param
	in   *tensor.Tensor // cached input for backward
	out  int

	// packed caches W in the GEMM column-panel layout keyed by W's
	// version. Compiled plans read it when they lower this layer, so the
	// f32 and int8 plans of one network share a single packed panel. It
	// is an atomically-published cache of a pure function of W, safe
	// under concurrent plan builds and invalidated whenever W's version
	// moves (optimizer steps, checkpoint loads — see Param.BumpVersion).
	packed atomic.Pointer[packedWeight]
}

// packedWeight pairs a packed panel with the weight version it was
// packed from.
type packedWeight struct {
	pb      *tensor.PackedB
	version uint64
}

// packedW returns W in packed-panel form, rebuilding if W changed since
// the last pack. Concurrent callers may race to rebuild; all results are
// identical (packing is pure data movement) and one wins the publish.
func (l *Linear) packedW() *tensor.PackedB {
	v := l.W.Version()
	if c := l.packed.Load(); c != nil && c.version == v {
		return c.pb
	}
	pb := tensor.PackB(l.W.Value)
	l.packed.Store(&packedWeight{pb: pb, version: v})
	return pb
}

// NewLinear builds a linear layer with He initialization (suitable for the
// ReLU backbones here) and zero bias. bias=false omits the bias term, as
// in layers immediately followed by batch normalization.
func NewLinear(rng *rand.Rand, name string, in, out int, bias bool) *Linear {
	l := &Linear{
		W:   NewParam(name+".W", tensor.HeInit(rng, in, in, out)),
		out: out,
	}
	if bias {
		l.B = NewParam(name+".b", tensor.New(out))
		l.B.NoDecay = true
	}
	return l
}

// InDim returns the input feature dimension.
func (l *Linear) InDim() int { return l.W.Value.Dim(0) }

// OutDim returns the output feature dimension.
func (l *Linear) OutDim() int { return l.out }

// Forward computes x·W (+ b) for x of shape [N, in]. The input is
// cached for Backward only in training mode; in eval mode no reference
// is retained, so long-lived serving processes don't pin the last batch.
func (l *Linear) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	l.checkIn(x)
	if train {
		l.in = x
	} else {
		l.in = nil
	}
	y := tensor.MatMul(x, l.W.Value)
	if l.B != nil {
		y = tensor.AddRowVector(y, l.B.Value)
	}
	return y
}

// checkIn validates the input shape against the weight matrix.
func (l *Linear) checkIn(x *tensor.Tensor) {
	checkRank("Linear", x, 2)
	if x.Dim(1) != l.W.Value.Dim(0) {
		panic(fmt.Sprintf("nn.Linear: input dim %d does not match weight in-dim %d",
			x.Dim(1), l.W.Value.Dim(0)))
	}
}

// Backward accumulates dW = xᵀ·dout and db = Σ_rows dout, returning
// dx = dout·Wᵀ.
func (l *Linear) Backward(dout *tensor.Tensor) *tensor.Tensor {
	if l.in == nil {
		panic("nn.Linear: Backward called before Forward")
	}
	dw := tensor.TMatMul(l.in, dout)
	tensor.AddInPlace(l.W.Grad, dw)
	if l.B != nil {
		tensor.AddInPlace(l.B.Grad, tensor.SumCols(dout))
	}
	return tensor.MatMulT(dout, l.W.Value)
}

// Params returns the layer's trainable parameters.
func (l *Linear) Params() []*Param {
	if l.B != nil {
		return []*Param{l.W, l.B}
	}
	return []*Param{l.W}
}
