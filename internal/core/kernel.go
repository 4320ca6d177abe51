// Package core implements the paper's primary contribution: the HDC-ZSC
// model (trainable image encoder γ, stationary HDC-based attribute
// encoder ϕ, cosine-similarity kernel with learnable temperature K) and
// its three-phase training methodology — phase I classification
// pre-training, phase II attribute extraction with weighted BCE, and
// phase III zero-shot-classification fine-tuning with the backbone
// frozen — plus inference and the multi-seed experiment runner behind the
// paper's µ±σ protocol.
package core

import (
	"fmt"
	"math"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// SimilarityKernel computes the paper's bi-similarity kernel
//
//	cossim(γ(X), ϕ(A)) = (1/K) · γ(X)ᵀ·ϕ(A) / (‖γ(X)‖‖ϕ(A)‖)
//
// between image embeddings [B, d] and attribute embeddings [C, d], with
// a learnable temperature-scaling parameter K. It backpropagates to both
// embedding sides and to K.
type SimilarityKernel struct {
	// K is the temperature parameter (scalar stored as a 1-element param).
	K *nn.Param

	// forward caches
	xn, pn *tensor.Tensor // row-normalized embeddings
	xnorm  *tensor.Tensor // row norms of x
	pnorm  *tensor.Tensor // row norms of p
	cos    *tensor.Tensor // raw cosine matrix
}

// NewSimilarityKernel builds a kernel with initial temperature k.
func NewSimilarityKernel(k float32) *SimilarityKernel {
	if k <= 0 {
		panic(fmt.Sprintf("core.NewSimilarityKernel: temperature must be positive, got %v", k))
	}
	p := nn.NewParam("kernel.K", tensor.FromSlice([]float32{k}, 1))
	p.NoDecay = true
	return &SimilarityKernel{K: p}
}

// Forward returns the scaled similarity logits [B, C] for image
// embeddings x [B, d] and attribute embeddings p [C, d].
func (s *SimilarityKernel) Forward(x, p *tensor.Tensor) *tensor.Tensor {
	if x.Rank() != 2 || p.Rank() != 2 || x.Dim(1) != p.Dim(1) {
		panic(fmt.Sprintf("core.SimilarityKernel: incompatible shapes %v and %v", x.Shape(), p.Shape()))
	}
	s.xn = tensor.NormalizeRows(x)
	s.pn = tensor.NormalizeRows(p)
	s.xnorm = tensor.RowNorms(x)
	s.pnorm = tensor.RowNorms(p)
	s.cos = tensor.MatMulT(s.xn, s.pn)
	return tensor.Scale(s.cos, 1/s.K.Value.Data[0])
}

// Backward consumes ∂loss/∂logits and returns (∂loss/∂x, ∂loss/∂p),
// accumulating the temperature gradient. The gradient through row
// normalization x̂ = x/‖x‖ is dx = (dx̂ − x̂·(x̂ᵀdx̂))/‖x‖ per row.
func (s *SimilarityKernel) Backward(dlogits *tensor.Tensor) (*tensor.Tensor, *tensor.Tensor) {
	if s.cos == nil {
		panic("core.SimilarityKernel: Backward called before Forward")
	}
	k := s.K.Value.Data[0]
	invK := 1 / k

	// dK = Σ dlogits ⊙ (−cos/K²).
	var dk float64
	for i := range dlogits.Data {
		dk -= float64(dlogits.Data[i]) * float64(s.cos.Data[i]) / float64(k*k)
	}
	s.K.Grad.Data[0] += float32(dk)

	// dcos = dlogits/K.
	dcos := tensor.Scale(dlogits, invK)
	// dx̂ = dcos × p̂ ; dp̂ = dcosᵀ × x̂.
	dxn := tensor.MatMul(dcos, s.pn)
	dpn := tensor.TMatMul(dcos, s.xn)

	dx := normBackward(dxn, s.xn, s.xnorm)
	dp := normBackward(dpn, s.pn, s.pnorm)
	return dx, dp
}

// normBackward maps the gradient wrt the normalized rows back through
// row normalization. Zero-norm rows receive zero gradient (their forward
// output was zero).
func normBackward(dn, normed, norms *tensor.Tensor) *tensor.Tensor {
	rows, cols := dn.Dim(0), dn.Dim(1)
	out := tensor.New(rows, cols)
	for r := 0; r < rows; r++ {
		nrm := norms.Data[r]
		if nrm == 0 {
			continue
		}
		dr := dn.Row(r)
		xr := normed.Row(r)
		or := out.Row(r)
		var dot float64
		for c := 0; c < cols; c++ {
			dot += float64(dr[c]) * float64(xr[c])
		}
		inv := 1 / nrm
		for c := 0; c < cols; c++ {
			or[c] = (dr[c] - xr[c]*float32(dot)) * inv
		}
	}
	return out
}

// Temperature returns the current K value.
func (s *SimilarityKernel) Temperature() float32 { return s.K.Value.Data[0] }

// Params returns the kernel's single learnable parameter.
func (s *SimilarityKernel) Params() []*nn.Param { return []*nn.Param{s.K} }

// ClampTemperature keeps K in [lo, hi] after an optimizer step; CLIP-style
// models guard the logit scale the same way to avoid training collapse.
func (s *SimilarityKernel) ClampTemperature(lo, hi float32) {
	v := s.K.Value.Data[0]
	if v < lo {
		v = lo
	}
	if v > hi {
		v = hi
	}
	if v != v || math.IsInf(float64(v), 0) { // NaN guard
		v = lo
	}
	s.K.Value.Data[0] = v
	s.K.BumpVersion()
}
