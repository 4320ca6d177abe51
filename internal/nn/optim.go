package nn

import (
	"math"

	"repro/internal/tensor"
)

// AdamW is Adam with decoupled weight decay (Loshchilov & Hutter, the
// paper's optimizer, "with default settings"): β₁=0.9, β₂=0.999, ε=1e−8.
type AdamW struct {
	lr, Beta1, Beta2, Eps, Decay float32
	t                            int
	m, v                         map[*Param]*tensor.Tensor
}

// NewAdamW builds an AdamW optimizer with the standard defaults.
func NewAdamW(lr, decay float32) *AdamW {
	return &AdamW{
		lr: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, Decay: decay,
		m: map[*Param]*tensor.Tensor{}, v: map[*Param]*tensor.Tensor{},
	}
}

// Step applies one AdamW update with bias correction to every unfrozen
// parameter; weight decay is applied directly to the weights
// (decoupled), skipping NoDecay params. Gradients are left as they are.
func (o *AdamW) Step(params []*Param) {
	o.t++
	bc1 := 1 - float32(math.Pow(float64(o.Beta1), float64(o.t)))
	bc2 := 1 - float32(math.Pow(float64(o.Beta2), float64(o.t)))
	for _, p := range params {
		if p.Frozen {
			continue
		}
		m, ok := o.m[p]
		if !ok {
			m = tensor.New(p.Value.Shape()...)
			o.m[p] = m
			o.v[p] = tensor.New(p.Value.Shape()...)
		}
		v := o.v[p]
		decay := o.Decay
		if p.NoDecay {
			decay = 0
		}
		for i := range p.Value.Data {
			g := p.Grad.Data[i]
			m.Data[i] = o.Beta1*m.Data[i] + (1-o.Beta1)*g
			v.Data[i] = o.Beta2*v.Data[i] + (1-o.Beta2)*g*g
			mhat := m.Data[i] / bc1
			vhat := v.Data[i] / bc2
			p.Value.Data[i] -= o.lr * (mhat/(float32(math.Sqrt(float64(vhat)))+o.Eps) + decay*p.Value.Data[i])
		}
		p.BumpVersion()
	}
}

// CosineAnnealingLR implements the cosine-annealing schedule of SGDR
// (without restarts), the paper's scheduler:
//
//	lr(t) = lrMin + ½(lrMax − lrMin)(1 + cos(π·t/T))
type CosineAnnealingLR struct {
	LRMax, LRMin float32
	T            int
}

// NewCosineAnnealingLR builds the schedule over T steps from lrMax down
// to lrMin.
func NewCosineAnnealingLR(lrMax, lrMin float32, totalSteps int) *CosineAnnealingLR {
	if totalSteps <= 0 {
		panic("nn.NewCosineAnnealingLR: totalSteps must be positive")
	}
	return &CosineAnnealingLR{LRMax: lrMax, LRMin: lrMin, T: totalSteps}
}

// At returns the learning rate for step t (clamped to [0, T]).
func (s *CosineAnnealingLR) At(t int) float32 {
	if t < 0 {
		t = 0
	}
	if t > s.T {
		t = s.T
	}
	frac := float64(t) / float64(s.T)
	return s.LRMin + 0.5*(s.LRMax-s.LRMin)*float32(1+math.Cos(math.Pi*frac))
}

// Apply sets the optimizer's learning rate for step t.
func (s *CosineAnnealingLR) Apply(o *AdamW, t int) { o.lr = s.At(t) }

// ClipGradNorm rescales all gradients so their global L2 norm does not
// exceed maxNorm; returns the pre-clip norm. A standard guard for the
// small-batch training runs the reproduction uses.
func ClipGradNorm(params []*Param, maxNorm float32) float32 {
	var total float64
	for _, p := range params {
		for _, g := range p.Grad.Data {
			total += float64(g) * float64(g)
		}
	}
	norm := float32(math.Sqrt(total))
	if norm > maxNorm && norm > 0 {
		scale := maxNorm / norm
		for _, p := range params {
			tensor.ScaleInPlace(p.Grad, scale)
		}
	}
	return norm
}
