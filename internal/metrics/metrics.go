// Package metrics implements the paper's evaluation metrics: top-1/top-5
// classification accuracy (§IV-A-b), per-attribute-group top-1 % accuracy
// and Weighted Mean Average Precision (WMAP) for the attribute-extraction
// task of Table I, multi-seed mean±std aggregation, and the Pareto-front
// extraction behind Fig. 4.
package metrics

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/tensor"
)

// TopKAccuracy returns the fraction of rows whose true label appears in
// the k highest-scoring entries of the score matrix [N, C].
func TopKAccuracy(scores *tensor.Tensor, labels []int, k int) float64 {
	if scores.Rank() != 2 || scores.Dim(0) != len(labels) {
		panic(fmt.Sprintf("metrics.TopKAccuracy: scores %v vs %d labels", scores.Shape(), len(labels)))
	}
	if k <= 0 || k > scores.Dim(1) {
		panic(fmt.Sprintf("metrics.TopKAccuracy: k=%d with %d classes", k, scores.Dim(1)))
	}
	var hits int
	for i, y := range labels {
		for _, idx := range tensor.TopKRow(scores, i, k) {
			if idx == y {
				hits++
				break
			}
		}
	}
	return float64(hits) / float64(len(labels))
}

// Top1Accuracy is TopKAccuracy with k=1.
func Top1Accuracy(scores *tensor.Tensor, labels []int) float64 {
	return TopKAccuracy(scores, labels, 1)
}

// AveragePrecision computes AP for one binary attribute: scores ranks the
// samples, targets marks the positives. It is the area under the
// precision-recall curve using the standard finite-sum formulation
// (precision averaged at each positive hit). Returns 0 when there are no
// positives.
func AveragePrecision(scores []float32, targets []float32) float64 {
	if len(scores) != len(targets) {
		panic(fmt.Sprintf("metrics.AveragePrecision: %d scores vs %d targets", len(scores), len(targets)))
	}
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })
	var positives, sum float64
	for rank, i := range idx {
		if targets[i] > 0.5 {
			positives++
			sum += positives / float64(rank+1)
		}
	}
	if positives == 0 {
		return 0
	}
	return sum / positives
}

// WMAP computes the Weighted Mean Average Precision over attribute
// columns: per-attribute AP combined with weights inversely proportional
// to the attribute's positive frequency, compensating for attributes that
// are less frequent in the dataset (§IV-A-b). Columns with no positives
// are skipped (their AP is undefined). scores and targets are [N, α].
func WMAP(scores, targets *tensor.Tensor) float64 {
	if !scores.SameShape(targets) || scores.Rank() != 2 {
		panic(fmt.Sprintf("metrics.WMAP: scores %v vs targets %v", scores.Shape(), targets.Shape()))
	}
	n, alpha := scores.Dim(0), scores.Dim(1)
	col := make([]float32, n)
	tcol := make([]float32, n)
	var wsum, acc float64
	for a := 0; a < alpha; a++ {
		var pos float64
		for i := 0; i < n; i++ {
			col[i] = scores.At(i, a)
			tcol[i] = targets.At(i, a)
			if tcol[i] > 0.5 {
				pos++
			}
		}
		if pos == 0 {
			continue
		}
		w := float64(n) / pos // inverse frequency
		acc += w * AveragePrecision(col, tcol)
		wsum += w
	}
	if wsum == 0 {
		return 0
	}
	return acc / wsum
}

// GroupTop1Accuracy computes, for one attribute group occupying score
// columns [off, off+size), the fraction of samples whose highest-scoring
// value within the group matches the ground-truth active value — the
// "top-1 % accuracy" metric of Table I's A3M comparison.
func GroupTop1Accuracy(scores, targets *tensor.Tensor, off, size int) float64 {
	n := scores.Dim(0)
	var hits, counted int
	for i := 0; i < n; i++ {
		srow := scores.Row(i)[off : off+size]
		trow := targets.Row(i)[off : off+size]
		truth := -1
		for vi, tv := range trow {
			if tv > 0.5 {
				truth = vi
				break
			}
		}
		if truth < 0 {
			continue // no active value recorded for this group
		}
		best := 0
		for vi := 1; vi < size; vi++ {
			if srow[vi] > srow[best] {
				best = vi
			}
		}
		counted++
		if best == truth {
			hits++
		}
	}
	if counted == 0 {
		return 0
	}
	return float64(hits) / float64(counted)
}

// MeanStd aggregates per-seed results into the paper's µ±σ report format
// (sample standard deviation).
func MeanStd(xs []float64) (mean, std float64) {
	if len(xs) == 0 {
		panic("metrics.MeanStd: empty input")
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	if len(xs) == 1 {
		return mean, 0
	}
	var sv float64
	for _, x := range xs {
		d := x - mean
		sv += d * d
	}
	return mean, math.Sqrt(sv / float64(len(xs)-1))
}

// Point is one model on the accuracy-vs-parameters plane of Fig. 4.
type Point struct {
	Name     string
	Params   int     // trainable parameter count
	Accuracy float64 // top-1 accuracy
}

// ParetoFront returns the subset of points not dominated by any other
// point (another point with at least as high accuracy and at most as many
// parameters, strictly better in one), sorted by parameter count. The
// paper's claim is that HDC-ZSC and Trainable-MLP lie on this front.
func ParetoFront(points []Point) []Point {
	var front []Point
	for i, p := range points {
		dominated := false
		for j, q := range points {
			if i == j {
				continue
			}
			if q.Accuracy >= p.Accuracy && q.Params <= p.Params &&
				(q.Accuracy > p.Accuracy || q.Params < p.Params) {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, p)
		}
	}
	sort.Slice(front, func(a, b int) bool { return front[a].Params < front[b].Params })
	return front
}
