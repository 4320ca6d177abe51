package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// BatchNorm2D normalizes each channel of NCHW activations over the batch
// and spatial axes, with learnable per-channel scale (gamma) and shift
// (beta) and running statistics for inference.
type BatchNorm2D struct {
	Gamma, Beta             *Param
	RunningMean, RunningVar *tensor.Tensor
	Momentum                float32
	Eps                     float32

	// cached forward state for backward
	xhat      *tensor.Tensor
	invStd    []float32
	lastShape []int
}

// NewBatchNorm2D builds a batch-norm layer for c channels with gamma=1,
// beta=0, running statistics initialized to the standard (0, 1).
func NewBatchNorm2D(name string, c int) *BatchNorm2D {
	bn := &BatchNorm2D{
		Gamma:       NewParam(name+".gamma", tensor.Ones(c)),
		Beta:        NewParam(name+".beta", tensor.New(c)),
		RunningMean: tensor.New(c),
		RunningVar:  tensor.Ones(c),
		Momentum:    0.9,
		Eps:         1e-5,
	}
	bn.Gamma.NoDecay = true
	bn.Beta.NoDecay = true
	return bn
}

// Forward normalizes x. In training mode it uses batch statistics and
// updates the running estimates; in evaluation mode it uses the running
// estimates, which keeps inference deterministic (the paper's stationary
// deployment).
func (bn *BatchNorm2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n, c, h, w := bn.checkIn(x)
	plane := h * w
	count := n * plane
	out := tensor.New(n, c, h, w)
	if !train {
		// Eval mode retains nothing for Backward: normalize with the frozen
		// running statistics and drop any stale training caches.
		bn.xhat, bn.invStd, bn.lastShape = nil, nil, nil
		bn.normalizeFrozen(x, out, n, c, plane)
		return out
	}
	bn.xhat = tensor.New(n, c, h, w)
	bn.invStd = make([]float32, c)
	bn.lastShape = []int{n, c, h, w}

	for ch := 0; ch < c; ch++ {
		var s float64
		for i := 0; i < n; i++ {
			base := (i*c + ch) * plane
			for p := 0; p < plane; p++ {
				s += float64(x.Data[base+p])
			}
		}
		mean := float32(s / float64(count))
		var sv float64
		for i := 0; i < n; i++ {
			base := (i*c + ch) * plane
			for p := 0; p < plane; p++ {
				d := float64(x.Data[base+p] - mean)
				sv += d * d
			}
		}
		variance := float32(sv / float64(count))
		m := bn.Momentum
		bn.RunningMean.Data[ch] = m*bn.RunningMean.Data[ch] + (1-m)*mean
		bn.RunningVar.Data[ch] = m*bn.RunningVar.Data[ch] + (1-m)*variance

		inv := float32(1 / math.Sqrt(float64(variance)+float64(bn.Eps)))
		bn.invStd[ch] = inv
		g, b := bn.Gamma.Value.Data[ch], bn.Beta.Value.Data[ch]
		for i := 0; i < n; i++ {
			base := (i*c + ch) * plane
			for p := 0; p < plane; p++ {
				xh := (x.Data[base+p] - mean) * inv
				bn.xhat.Data[base+p] = xh
				out.Data[base+p] = g*xh + b
			}
		}
	}
	return out
}

// normalizeFrozen writes γ·(x−μ̂)/σ̂+β per channel using the running
// statistics — the eval branch of Forward, read-only on bn.
func (bn *BatchNorm2D) normalizeFrozen(x, out *tensor.Tensor, n, c, plane int) {
	for ch := 0; ch < c; ch++ {
		mean := bn.RunningMean.Data[ch]
		variance := bn.RunningVar.Data[ch]
		inv := float32(1 / math.Sqrt(float64(variance)+float64(bn.Eps)))
		g, b := bn.Gamma.Value.Data[ch], bn.Beta.Value.Data[ch]
		for i := 0; i < n; i++ {
			base := (i*c + ch) * plane
			for p := 0; p < plane; p++ {
				xh := (x.Data[base+p] - mean) * inv
				out.Data[base+p] = g*xh + b
			}
		}
	}
}

// checkIn validates the input and returns its dimensions.
func (bn *BatchNorm2D) checkIn(x *tensor.Tensor) (n, c, h, w int) {
	checkRank("BatchNorm2D", x, 4)
	n, c, h, w = x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	if c != bn.Gamma.Value.Len() {
		panic(fmt.Sprintf("nn.BatchNorm2D: %d channels, layer has %d", c, bn.Gamma.Value.Len()))
	}
	return n, c, h, w
}

// Backward implements the standard batch-norm gradient:
// dx = (γ/σ)·(dy − mean(dy) − x̂·mean(dy·x̂)), per channel, with the means
// taken over the normalization axes. It also accumulates dγ and dβ.
func (bn *BatchNorm2D) Backward(dout *tensor.Tensor) *tensor.Tensor {
	if bn.xhat == nil {
		panic("nn.BatchNorm2D: Backward called before Forward")
	}
	n, c, h, w := bn.lastShape[0], bn.lastShape[1], bn.lastShape[2], bn.lastShape[3]
	plane := h * w
	count := float32(n * plane)
	dx := tensor.New(n, c, h, w)
	for ch := 0; ch < c; ch++ {
		var sumDy, sumDyXhat float64
		for i := 0; i < n; i++ {
			base := (i*c + ch) * plane
			for p := 0; p < plane; p++ {
				dy := float64(dout.Data[base+p])
				sumDy += dy
				sumDyXhat += dy * float64(bn.xhat.Data[base+p])
			}
		}
		bn.Beta.Grad.Data[ch] += float32(sumDy)
		bn.Gamma.Grad.Data[ch] += float32(sumDyXhat)

		meanDy := float32(sumDy) / count
		meanDyXhat := float32(sumDyXhat) / count
		scale := bn.Gamma.Value.Data[ch] * bn.invStd[ch]
		for i := 0; i < n; i++ {
			base := (i*c + ch) * plane
			for p := 0; p < plane; p++ {
				dx.Data[base+p] = scale * (dout.Data[base+p] - meanDy - bn.xhat.Data[base+p]*meanDyXhat)
			}
		}
	}
	return dx
}

// StatsFingerprint folds the running statistics' bit patterns into one
// 64-bit FNV-1a value — the running-stat analogue of Param.Version the
// frozen-graph compiler keys its BN folds on. A content hash rather
// than a mutation counter, so EVERY way the stats can change — training
// Forward passes, checkpoint restores through StateParams (which write
// the tensors directly), hand edits — invalidates the fold; no caller
// cooperation required.
func (bn *BatchNorm2D) StatsFingerprint() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, v := range bn.RunningMean.Data {
		h = (h ^ uint64(math.Float32bits(v))) * prime64
	}
	for _, v := range bn.RunningVar.Data {
		h = (h ^ uint64(math.Float32bits(v))) * prime64
	}
	return h
}

// Params returns gamma and beta.
func (bn *BatchNorm2D) Params() []*Param { return []*Param{bn.Gamma, bn.Beta} }

// State exposes the running statistics for checkpointing (they are not
// parameters, but inference depends on them).
func (bn *BatchNorm2D) State() []*tensor.Tensor {
	return []*tensor.Tensor{bn.RunningMean, bn.RunningVar}
}
