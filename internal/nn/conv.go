package nn

import (
	"fmt"
	"math/rand"

	"repro/internal/tensor"
)

// Conv2D is a 2-D convolution over NCHW activations, implemented as
// im2col followed by a matrix product so it rides the blocked matmul in
// package tensor. The weight is stored flattened as [outC, inC·kH·kW].
type Conv2D struct {
	W, B           *Param
	inC, outC      int
	kH, kW         int
	stride, pad    int
	in             *tensor.Tensor   // cached input
	cols           []*tensor.Tensor // cached im2col matrices, one per sample
	outH, outW     int
	lastBatch      int
	lastInH, lastW int
}

// NewConv2D builds a convolution layer with He initialization. bias=false
// is the usual choice when a batch-norm layer follows.
func NewConv2D(rng *rand.Rand, name string, inC, outC, kernel, stride, pad int, bias bool) *Conv2D {
	if kernel <= 0 || stride <= 0 || pad < 0 {
		panic(fmt.Sprintf("nn.Conv2D: bad geometry kernel=%d stride=%d pad=%d", kernel, stride, pad))
	}
	fanIn := inC * kernel * kernel
	c := &Conv2D{
		W:   NewParam(name+".W", tensor.HeInit(rng, fanIn, outC, fanIn)),
		inC: inC, outC: outC,
		kH: kernel, kW: kernel,
		stride: stride, pad: pad,
	}
	if bias {
		c.B = NewParam(name+".b", tensor.New(outC))
		c.B.NoDecay = true
	}
	return c
}

// OutSize returns the spatial output size for an input of size h×w.
func (c *Conv2D) OutSize(h, w int) (int, int) {
	oh := (h+2*c.pad-c.kH)/c.stride + 1
	ow := (w+2*c.pad-c.kW)/c.stride + 1
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("nn.Conv2D: input %dx%d too small for kernel %d stride %d pad %d",
			h, w, c.kH, c.stride, c.pad))
	}
	return oh, ow
}

// im2col unpacks the receptive fields of one sample into a matrix of shape
// [inC·kH·kW, outH·outW]; column j holds the patch that produces output
// pixel j. Padded positions keep the fresh matrix's zeros.
func (c *Conv2D) im2col(x *tensor.Tensor, n, h, w, oh, ow int) *tensor.Tensor {
	col := tensor.New(c.inC*c.kH*c.kW, oh*ow)
	xoff := n * c.inC * h * w
	for ic := 0; ic < c.inC; ic++ {
		chanOff := xoff + ic*h*w
		for ky := 0; ky < c.kH; ky++ {
			for kx := 0; kx < c.kW; kx++ {
				rowOff := ((ic*c.kH+ky)*c.kW + kx) * oh * ow
				for oy := 0; oy < oh; oy++ {
					iy := oy*c.stride + ky - c.pad
					if iy < 0 || iy >= h {
						continue
					}
					srcRow := chanOff + iy*w
					dstRow := rowOff + oy*ow
					for ox := 0; ox < ow; ox++ {
						ix := ox*c.stride + kx - c.pad
						if ix < 0 || ix >= w {
							continue
						}
						col.Data[dstRow+ox] = x.Data[srcRow+ix]
					}
				}
			}
		}
	}
	return col
}

// col2im scatters gradient columns back into an input-gradient tensor,
// accumulating where receptive fields overlap.
func (c *Conv2D) col2im(col *tensor.Tensor, dx *tensor.Tensor, n, h, w, oh, ow int) {
	xoff := n * c.inC * h * w
	for ic := 0; ic < c.inC; ic++ {
		chanOff := xoff + ic*h*w
		for ky := 0; ky < c.kH; ky++ {
			for kx := 0; kx < c.kW; kx++ {
				rowOff := ((ic*c.kH+ky)*c.kW + kx) * oh * ow
				for oy := 0; oy < oh; oy++ {
					iy := oy*c.stride + ky - c.pad
					if iy < 0 || iy >= h {
						continue
					}
					dstRow := chanOff + iy*w
					srcRow := rowOff + oy*ow
					for ox := 0; ox < ow; ox++ {
						ix := ox*c.stride + kx - c.pad
						if ix < 0 || ix >= w {
							continue
						}
						dx.Data[dstRow+ix] += col.Data[srcRow+ox]
					}
				}
			}
		}
	}
}

// Forward computes the convolution for x of shape [N, inC, H, W],
// returning [N, outC, outH, outW]. The input and per-sample im2col
// matrices are cached for Backward only in training mode; eval mode
// retains nothing, so a long-lived frozen layer doesn't pin the last
// batch's activations.
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n, h, w, oh, ow := c.checkIn(x)
	if train {
		c.in, c.lastBatch, c.lastInH, c.lastW = x, n, h, w
		c.outH, c.outW = oh, ow
		c.cols = make([]*tensor.Tensor, n)
	} else {
		c.in, c.cols = nil, nil
	}

	out := tensor.New(n, c.outC, oh, ow)
	for i := 0; i < n; i++ {
		col := c.im2col(x, i, h, w, oh, ow)
		if train {
			c.cols[i] = col
		}
		y := tensor.MatMul(c.W.Value, col) // [outC, oh*ow]
		dst := out.Data[i*c.outC*oh*ow : (i+1)*c.outC*oh*ow]
		copy(dst, y.Data)
		c.addBias(dst, oh, ow)
	}
	return out
}

// addBias adds the per-channel bias to one sample's output planes.
func (c *Conv2D) addBias(dst []float32, oh, ow int) {
	if c.B == nil {
		return
	}
	for oc := 0; oc < c.outC; oc++ {
		bo := c.B.Value.Data[oc]
		plane := dst[oc*oh*ow : (oc+1)*oh*ow]
		for p := range plane {
			plane[p] += bo
		}
	}
}

// checkIn validates the input and returns its geometry.
func (c *Conv2D) checkIn(x *tensor.Tensor) (n, h, w, oh, ow int) {
	checkRank("Conv2D", x, 4)
	if x.Dim(1) != c.inC {
		panic(fmt.Sprintf("nn.Conv2D: input channels %d, layer expects %d", x.Dim(1), c.inC))
	}
	n, h, w = x.Dim(0), x.Dim(2), x.Dim(3)
	oh, ow = c.OutSize(h, w)
	return n, h, w, oh, ow
}

// Backward accumulates weight/bias gradients and returns the input
// gradient of shape [N, inC, H, W].
func (c *Conv2D) Backward(dout *tensor.Tensor) *tensor.Tensor {
	if c.in == nil {
		panic("nn.Conv2D: Backward called before Forward")
	}
	n, h, w := c.lastBatch, c.lastInH, c.lastW
	oh, ow := c.outH, c.outW
	dx := tensor.New(n, c.inC, h, w)
	wT := tensor.Transpose2D(c.W.Value) // [inC·kH·kW, outC]
	for i := 0; i < n; i++ {
		dy := tensor.FromSlice(
			dout.Data[i*c.outC*oh*ow:(i+1)*c.outC*oh*ow], c.outC, oh*ow)
		// dW += dy · colᵀ; MatMulT(dy, col) multiplies against the transpose
		// without materializing it.
		tensor.AddInPlace(c.W.Grad, tensor.MatMulT(dy, c.cols[i]))
		// db += Σ spatial dy
		if c.B != nil {
			for oc := 0; oc < c.outC; oc++ {
				var s float32
				for _, v := range dy.Row(oc) {
					s += v
				}
				c.B.Grad.Data[oc] += s
			}
		}
		// dcol = Wᵀ · dy, scattered back through col2im.
		dcol := tensor.MatMul(wT, dy)
		c.col2im(dcol, dx, i, h, w, oh, ow)
	}
	return dx
}

// Params returns the layer's trainable parameters.
func (c *Conv2D) Params() []*Param {
	if c.B != nil {
		return []*Param{c.W, c.B}
	}
	return []*Param{c.W}
}
