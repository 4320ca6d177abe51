package nn

import (
	"repro/internal/tensor"
)

// GlobalAvgPool averages each channel plane to a single value, producing
// [N, C] from [N, C, H, W]. It is the final spatial reduction of the
// ResNet image encoder before the FC projection.
type GlobalAvgPool struct {
	inShape []int
}

// NewGlobalAvgPool returns a global average pooling layer.
func NewGlobalAvgPool() *GlobalAvgPool { return &GlobalAvgPool{} }

// Forward averages over the spatial axes, recording the input shape for
// Backward only in training mode.
func (g *GlobalAvgPool) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	checkRank("GlobalAvgPool", x, 4)
	if train {
		g.inShape = x.Shape()
	} else {
		g.inShape = nil
	}
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	out := tensor.New(n, c)
	plane := h * w
	for i := 0; i < n; i++ {
		for ch := 0; ch < c; ch++ {
			base := (i*c + ch) * plane
			var s float64
			for p := 0; p < plane; p++ {
				s += float64(x.Data[base+p])
			}
			out.Data[i*c+ch] = float32(s / float64(plane))
		}
	}
	return out
}

// Backward spreads each channel gradient uniformly over the plane.
func (g *GlobalAvgPool) Backward(dout *tensor.Tensor) *tensor.Tensor {
	if g.inShape == nil {
		panic("nn.GlobalAvgPool: Backward called before Forward")
	}
	n, c, h, w := g.inShape[0], g.inShape[1], g.inShape[2], g.inShape[3]
	plane := h * w
	inv := 1 / float32(plane)
	dx := tensor.New(n, c, h, w)
	for i := 0; i < n; i++ {
		for ch := 0; ch < c; ch++ {
			gv := dout.Data[i*c+ch] * inv
			base := (i*c + ch) * plane
			for p := 0; p < plane; p++ {
				dx.Data[base+p] = gv
			}
		}
	}
	return dx
}

// Params returns nil; pooling has no parameters.
func (g *GlobalAvgPool) Params() []*Param { return nil }
