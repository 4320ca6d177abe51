package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// SoftmaxCrossEntropy computes the mean cross-entropy loss between logits
// [N, C] and integer labels, returning the loss and ∂loss/∂logits. It is
// the phase-I (ImageNet-style classification) and phase-III (ZSC over
// class similarities) objective.
func SoftmaxCrossEntropy(logits *tensor.Tensor, labels []int) (float32, *tensor.Tensor) {
	checkRank("SoftmaxCrossEntropy", logits, 2)
	n, c := logits.Dim(0), logits.Dim(1)
	if len(labels) != n {
		panic(fmt.Sprintf("nn.SoftmaxCrossEntropy: %d labels for %d rows", len(labels), n))
	}
	probs := tensor.SoftmaxRows(logits)
	var loss float64
	grad := probs.Clone()
	invN := 1 / float32(n)
	for i, y := range labels {
		if y < 0 || y >= c {
			panic(fmt.Sprintf("nn.SoftmaxCrossEntropy: label %d out of range [0,%d)", y, c))
		}
		p := probs.At(i, y)
		loss -= math.Log(math.Max(float64(p), 1e-12))
		grad.Data[i*c+y] -= 1
	}
	tensor.ScaleInPlace(grad, invN)
	return float32(loss / float64(n)), grad
}

// BCEWithLogits computes the mean binary cross entropy over a multi-label
// target matrix, applying the sigmoid internally for numerical stability,
// with optional per-attribute positive weights.
//
// The paper (§III-A) weights the positive term to counter the large class
// imbalance of the attribute-extraction task (most of the 312 attributes
// are inactive for any given image): the loss per element is
//
//	−[ w·t·log σ(x) + (1−t)·log(1−σ(x)) ]
//
// where w is posWeight for that attribute column. posWeight may be nil
// (uniform weight 1, plain BCE, the Finetag-like baseline objective).
// Targets may be soft (in [0,1]).
func BCEWithLogits(logits, targets *tensor.Tensor, posWeight []float32) (float32, *tensor.Tensor) {
	checkRank("BCEWithLogits", logits, 2)
	if !logits.SameShape(targets) {
		panic(fmt.Sprintf("nn.BCEWithLogits: logits %v vs targets %v", logits.Shape(), targets.Shape()))
	}
	n, c := logits.Dim(0), logits.Dim(1)
	if posWeight != nil && len(posWeight) != c {
		panic(fmt.Sprintf("nn.BCEWithLogits: %d pos weights for %d attributes", len(posWeight), c))
	}
	grad := tensor.New(n, c)
	var loss float64
	invCount := 1 / float32(n*c)
	for i := 0; i < n; i++ {
		for j := 0; j < c; j++ {
			x := float64(logits.At(i, j))
			t := float64(targets.At(i, j))
			w := 1.0
			if posWeight != nil {
				w = float64(posWeight[j])
			}
			// Stable log-sigmoid: log σ(x) = −log(1+e^{−x}) = min(x,0) − log1p(e^{−|x|}) ... use softplus.
			sp := softplus(-x) // −log σ(x)
			spn := softplus(x) // −log(1−σ(x))
			loss += w*t*sp + (1-t)*spn
			s := sigmoid(x)
			// d/dx [w·t·softplus(−x) + (1−t)·softplus(x)]
			//   = −w·t·(1−σ) + (1−t)·σ
			g := (1-t)*s - w*t*(1-s)
			grad.Data[i*c+j] = float32(g) * invCount
		}
	}
	return float32(loss) * invCount, grad
}

// MSE computes the mean squared error ½·mean((a−b)²) and its gradient with
// respect to a.
func MSE(a, b *tensor.Tensor) (float32, *tensor.Tensor) {
	if !a.SameShape(b) {
		panic(fmt.Sprintf("nn.MSE: shapes %v vs %v", a.Shape(), b.Shape()))
	}
	n := float32(a.Len())
	grad := tensor.New(a.Shape()...)
	var loss float64
	for i := range a.Data {
		d := a.Data[i] - b.Data[i]
		loss += 0.5 * float64(d) * float64(d)
		grad.Data[i] = d / n
	}
	return float32(loss / float64(a.Len())), grad
}

// PosWeights computes per-attribute positive-class weights #neg/#pos from
// a target matrix [N, α], clamped to [1, maxW]. Attributes that never
// fire get the maximum weight. This is the class-imbalance compensation
// of the paper's weighted BCE.
func PosWeights(targets *tensor.Tensor, maxW float32) []float32 {
	checkRank("PosWeights", targets, 2)
	n, c := targets.Dim(0), targets.Dim(1)
	out := make([]float32, c)
	for j := 0; j < c; j++ {
		var pos float64
		for i := 0; i < n; i++ {
			pos += float64(targets.At(i, j))
		}
		neg := float64(n) - pos
		w := maxW
		if pos > 0 {
			w = float32(neg / pos)
		}
		if w < 1 {
			w = 1
		}
		if w > maxW {
			w = maxW
		}
		out[j] = w
	}
	return out
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// softplus computes log(1+e^x) without overflow.
func softplus(x float64) float64 {
	if x > 30 {
		return x
	}
	if x < -30 {
		return math.Exp(x)
	}
	return math.Log1p(math.Exp(x))
}
