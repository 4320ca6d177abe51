package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// MaxPool2D is a max pooling layer over NCHW activations with a square
// window and equal stride (the ResNet stem uses kernel 2/3, stride 2).
type MaxPool2D struct {
	Kernel, Stride int
	argmax         []int // flat input index chosen for each output element
	inShape        []int
}

// NewMaxPool2D builds a max-pool layer.
func NewMaxPool2D(kernel, stride int) *MaxPool2D {
	if kernel <= 0 || stride <= 0 {
		panic(fmt.Sprintf("nn.MaxPool2D: bad geometry kernel=%d stride=%d", kernel, stride))
	}
	return &MaxPool2D{Kernel: kernel, Stride: stride}
}

// Forward pools x [N,C,H,W] to [N,C,H',W'], recording argmax positions
// for Backward only in training mode (eval retains nothing).
func (m *MaxPool2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	out := tensor.New(m.outShape(x)...)
	if train {
		m.inShape = x.Shape()
		m.argmax = make([]int, out.Len())
	} else {
		m.inShape, m.argmax = nil, nil
	}
	m.poolInto(out, x, m.argmax)
	return out
}

// outShape validates the input and returns the pooled output shape.
func (m *MaxPool2D) outShape(x *tensor.Tensor) []int {
	checkRank("MaxPool2D", x, 4)
	h, w := x.Dim(2), x.Dim(3)
	oh := (h-m.Kernel)/m.Stride + 1
	ow := (w-m.Kernel)/m.Stride + 1
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("nn.MaxPool2D: input %dx%d too small for kernel %d stride %d",
			h, w, m.Kernel, m.Stride))
	}
	return []int{x.Dim(0), x.Dim(1), oh, ow}
}

// poolInto writes the pooled maxima into out; when argmax is non-nil it
// also records the winning input index per output element.
func (m *MaxPool2D) poolInto(out, x *tensor.Tensor, argmax []int) {
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	oh, ow := out.Dim(2), out.Dim(3)
	oi := 0
	for i := 0; i < n; i++ {
		for ch := 0; ch < c; ch++ {
			base := (i*c + ch) * h * w
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					bestIdx := base + (oy*m.Stride)*w + ox*m.Stride
					best := x.Data[bestIdx]
					for ky := 0; ky < m.Kernel; ky++ {
						rowIdx := base + (oy*m.Stride+ky)*w + ox*m.Stride
						for kx := 0; kx < m.Kernel; kx++ {
							if v := x.Data[rowIdx+kx]; v > best {
								best, bestIdx = v, rowIdx+kx
							}
						}
					}
					out.Data[oi] = best
					if argmax != nil {
						argmax[oi] = bestIdx
					}
					oi++
				}
			}
		}
	}
}

// Backward routes each output gradient to the input position that won the
// forward max.
func (m *MaxPool2D) Backward(dout *tensor.Tensor) *tensor.Tensor {
	if m.argmax == nil {
		panic("nn.MaxPool2D: Backward called before Forward")
	}
	dx := tensor.New(m.inShape...)
	for oi, src := range m.argmax {
		dx.Data[src] += dout.Data[oi]
	}
	return dx
}

// Params returns nil; pooling has no parameters.
func (m *MaxPool2D) Params() []*Param { return nil }

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
