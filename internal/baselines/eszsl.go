// Package baselines implements the comparison systems of the paper's
// evaluation: ESZSL (the main non-generative baseline of Fig. 4),
// Finetag-like and A3M-like attribute-extraction baselines (Table I),
// a simplified generative feature-synthesis pipeline standing in for the
// GAN-based models of Fig. 4, and a TCN-like contrastive network. Each
// file documents how the reproduction simplifies the original system and
// why the simplification preserves the comparison the paper makes.
package baselines

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// ESZSL is Romera-Paredes & Torr's "embarrassingly simple" zero-shot
// learner [4]: a bilinear compatibility matrix V minimizing
//
//	‖XᵀV S − Y‖² + Ω(V)
//
// with a Frobenius-norm regularizer, which admits the closed form
//
//	V = (X Xᵀ + γI)⁻¹ X Y Sᵀ (S Sᵀ + λI)⁻¹
//
// (X: features × samples, S: attributes × classes, Y: samples × classes
// in ±1). Features come from a frozen image encoder; the only learned
// object is V ∈ R^{f×α}.
type ESZSL struct {
	// Gamma and Lambda are the two regularization strengths.
	Gamma, Lambda float32
	// V is the learned bilinear compatibility matrix [f, α].
	V *tensor.Tensor
}

// NewESZSL returns an untrained model with the given regularizers.
func NewESZSL(gamma, lambda float32) *ESZSL {
	return &ESZSL{Gamma: gamma, Lambda: lambda}
}

// Fit solves the closed form from features X [N, f], labels (indices into
// the training-class list), and the training-class attribute matrix
// S [Ctr, α]. It returns an error if either regularized Gram matrix is
// singular (raise the regularizers).
func (m *ESZSL) Fit(x *tensor.Tensor, labels []int, s *tensor.Tensor) error {
	n := x.Dim(0)
	cTr := s.Dim(0)
	if len(labels) != n {
		panic(fmt.Sprintf("baselines.ESZSL.Fit: %d labels for %d samples", len(labels), n))
	}
	// Y ∈ {−1, +1}^{N×Ctr}.
	y := tensor.Full(-1, n, cTr)
	for i, l := range labels {
		if l < 0 || l >= cTr {
			panic(fmt.Sprintf("baselines.ESZSL.Fit: label %d out of range [0,%d)", l, cTr))
		}
		y.Set(1, i, l)
	}
	// Left factor: (XᵀX + γI)⁻¹ (features are rows here, so the Gram is
	// [f, f]).
	gram := tensor.TMatMul(x, x)
	tensor.AddDiagonal(gram, m.Gamma)
	xy := tensor.TMatMul(x, y)  // [f, Ctr]
	xys := tensor.MatMul(xy, s) // [f, α]
	left, err := tensor.SolveSPD(gram, xys)
	if err != nil {
		return fmt.Errorf("eszsl: feature Gram solve: %w", err)
	}
	// Right factor: (SᵀS + λI)⁻¹ applied on the attribute side.
	sGram := tensor.TMatMul(s, s) // [α, α]
	tensor.AddDiagonal(sGram, m.Lambda)
	// Solve (SᵀS+λI)·Z = leftᵀ then V = Zᵀ.
	zt, err := tensor.SolveSPD(sGram, tensor.Transpose2D(left))
	if err != nil {
		return fmt.Errorf("eszsl: attribute Gram solve: %w", err)
	}
	m.V = tensor.Transpose2D(zt)
	return nil
}

// Scores returns the compatibility X·V·Sᵀ [N, C] against the class
// attribute matrix s [C, α].
func (m *ESZSL) Scores(x, s *tensor.Tensor) *tensor.Tensor {
	if m.V == nil {
		panic("baselines.ESZSL: Scores before Fit")
	}
	return tensor.MatMulT(tensor.MatMul(x, m.V), s)
}

// ParamCount returns the size of the bilinear map (the model's trainable
// parameters).
func (m *ESZSL) ParamCount() int {
	if m.V == nil {
		return 0
	}
	return m.V.Len()
}

// ESZSLResult is a zero-shot evaluation of ESZSL on a split.
type ESZSLResult struct {
	Top1, Top5 float64
	ParamCount int
}

// RunESZSL trains a frozen feature extractor on phase-I-style
// pre-training, fits ESZSL's closed form on the split's training classes
// and evaluates on its unseen test classes. The backbone is shared with
// the HDC-ZSC pipeline for a controlled comparison; total parameters are
// backbone + V (ESZSL has no FC projection and no codebooks).
func RunESZSL(img *core.ImageEncoder, d *dataset.SynthCUB, split dataset.Split,
	gamma, lambda float32) (ESZSLResult, error) {

	feats, labels := core.EmbedInstances(img.Compiled(), d, split.Train, dataset.ClassIndexMap(split.TrainClasses))
	sTr := d.ClassAttrRows(split.TrainClasses)
	model := NewESZSL(gamma, lambda)
	if err := model.Fit(feats, labels, sTr); err != nil {
		return ESZSLResult{}, err
	}

	testFeats, testLabels := core.EmbedInstances(img.Compiled(), d, split.Test, dataset.ClassIndexMap(split.TestClasses))
	sTe := d.ClassAttrRows(split.TestClasses)
	scores := model.Scores(testFeats, sTe)
	k := 5
	if len(split.TestClasses) < k {
		k = len(split.TestClasses)
	}
	return ESZSLResult{
		Top1:       metrics.Top1Accuracy(scores, testLabels),
		Top5:       metrics.TopKAccuracy(scores, testLabels, k),
		ParamCount: model.ParamCount() + nn.CountParams(img.Params()),
	}, nil
}
