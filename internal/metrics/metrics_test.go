package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func TestTopKAccuracy(t *testing.T) {
	scores := tensor.FromSlice([]float32{
		0.1, 0.9, 0.0, // argmax 1
		0.8, 0.1, 0.15, // argmax 0, runner-up 2
		0.2, 0.3, 0.5, // argmax 2
	}, 3, 3)
	labels := []int{1, 2, 2}
	if got := Top1Accuracy(scores, labels); math.Abs(got-2.0/3) > 1e-9 {
		t.Fatalf("top-1 = %v, want 2/3", got)
	}
	if got := TopKAccuracy(scores, labels, 2); math.Abs(got-1) > 1e-9 {
		t.Fatalf("top-2 = %v, want 1 (label 2 is second for row 1)", got)
	}
}

func TestTopKAccuracyPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on label mismatch")
		}
	}()
	Top1Accuracy(tensor.New(2, 3), []int{0})
}

func TestAveragePrecisionPerfectRanking(t *testing.T) {
	scores := []float32{0.9, 0.8, 0.2, 0.1}
	targets := []float32{1, 1, 0, 0}
	if got := AveragePrecision(scores, targets); math.Abs(got-1) > 1e-9 {
		t.Fatalf("AP = %v, want 1 for perfect ranking", got)
	}
}

func TestAveragePrecisionWorstRanking(t *testing.T) {
	scores := []float32{0.9, 0.8, 0.2, 0.1}
	targets := []float32{0, 0, 1, 1}
	// Positives at ranks 3,4: AP = (1/3 + 2/4)/2 = 5/12.
	if got := AveragePrecision(scores, targets); math.Abs(got-5.0/12) > 1e-9 {
		t.Fatalf("AP = %v, want 5/12", got)
	}
}

func TestAveragePrecisionNoPositives(t *testing.T) {
	if got := AveragePrecision([]float32{1, 2}, []float32{0, 0}); got != 0 {
		t.Fatalf("AP with no positives = %v, want 0", got)
	}
}

func TestWMAPBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, a := 4+rng.Intn(12), 2+rng.Intn(8)
		scores := tensor.RandUniform(rng, -1, 1, n, a)
		targets := tensor.New(n, a)
		for i := range targets.Data {
			if rng.Float64() < 0.3 {
				targets.Data[i] = 1
			}
		}
		w := WMAP(scores, targets)
		return w >= 0 && w <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// meanAP is the unweighted mean of AveragePrecision over attribute
// columns with at least one positive — the reference WMAP reweights.
func meanAP(scores, targets *tensor.Tensor) float64 {
	n, alpha := scores.Dim(0), scores.Dim(1)
	var count, acc float64
	for a := 0; a < alpha; a++ {
		col, tcol := make([]float32, n), make([]float32, n)
		pos := false
		for i := 0; i < n; i++ {
			col[i], tcol[i] = scores.At(i, a), targets.At(i, a)
			pos = pos || tcol[i] > 0.5
		}
		if pos {
			acc += AveragePrecision(col, tcol)
			count++
		}
	}
	return acc / count
}

func TestWMAPPerfectPredictor(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	targets := tensor.New(20, 5)
	for i := range targets.Data {
		if rng.Float64() < 0.3 {
			targets.Data[i] = 1
		}
	}
	// Scores equal to targets rank all positives first.
	scores := targets.Clone()
	if got := WMAP(scores, targets); math.Abs(got-1) > 1e-9 {
		t.Fatalf("WMAP of perfect predictor = %v, want 1", got)
	}
}

func TestWMAPUpweightsRareAttributes(t *testing.T) {
	// Attribute 0: common (8/10 positive), predicted badly.
	// Attribute 1: rare (1/10 positive), predicted perfectly.
	n := 10
	scores := tensor.New(n, 2)
	targets := tensor.New(n, 2)
	for i := 0; i < 8; i++ {
		targets.Set(1, i, 0)
	}
	// Bad ranking for attribute 0: positives scored lowest.
	for i := 0; i < n; i++ {
		if targets.At(i, 0) == 1 {
			scores.Set(float32(-i), i, 0)
		} else {
			scores.Set(float32(10+i), i, 0)
		}
	}
	targets.Set(1, 3, 1)
	scores.Set(5, 3, 1) // perfect for attribute 1
	wmap := WMAP(scores, targets)
	mapv := meanAP(scores, targets)
	if wmap <= mapv {
		t.Fatalf("WMAP (%v) should exceed MAP (%v) when the rare attribute is the well-predicted one", wmap, mapv)
	}
}

func TestGroupTop1Accuracy(t *testing.T) {
	// Group occupies columns 1..3 (size 3).
	scores := tensor.FromSlice([]float32{
		9, 0.1, 0.9, 0.2, 7,
		9, 0.8, 0.1, 0.0, 7,
	}, 2, 5)
	targets := tensor.FromSlice([]float32{
		0, 0, 1, 0, 0, // truth: slot 1 of group → predicted slot 1 ✓
		0, 0, 0, 1, 0, // truth: slot 2 → predicted slot 0 ✗
	}, 2, 5)
	if got := GroupTop1Accuracy(scores, targets, 1, 3); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("group top-1 = %v, want 0.5", got)
	}
}

func TestGroupTop1SkipsSamplesWithoutTruth(t *testing.T) {
	scores := tensor.FromSlice([]float32{0.9, 0.1}, 1, 2)
	targets := tensor.FromSlice([]float32{0, 0}, 1, 2)
	if got := GroupTop1Accuracy(scores, targets, 0, 2); got != 0 {
		t.Fatalf("expected 0 for no ground truth, got %v", got)
	}
}

func TestMeanStd(t *testing.T) {
	m, s := MeanStd([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if math.Abs(m-5) > 1e-9 {
		t.Fatalf("mean = %v, want 5", m)
	}
	if math.Abs(s-2.13808993) > 1e-6 { // sample std
		t.Fatalf("std = %v", s)
	}
	m1, s1 := MeanStd([]float64{3})
	if m1 != 3 || s1 != 0 {
		t.Fatalf("single-element MeanStd = %v ± %v", m1, s1)
	}
}

func TestParetoFront(t *testing.T) {
	pts := []Point{
		{Name: "ours", Params: 26, Accuracy: 63.8},
		{Name: "eszsl", Params: 46, Accuracy: 53.9},   // dominated
		{Name: "gen1", Params: 47, Accuracy: 65.0},    // on front (best acc above 26 params until gen2)
		{Name: "gen2", Params: 67, Accuracy: 67.7},    // on front (highest accuracy)
		{Name: "small-bad", Params: 30, Accuracy: 50}, // dominated
	}
	front := ParetoFront(pts)
	names := map[string]bool{}
	for _, p := range front {
		names[p.Name] = true
	}
	if !names["ours"] || !names["gen2"] || !names["gen1"] {
		t.Fatalf("front wrong: %v", front)
	}
	if names["eszsl"] || names["small-bad"] {
		t.Fatalf("dominated points on front: %v", front)
	}
	// Sorted by params.
	for i := 1; i < len(front); i++ {
		if front[i].Params < front[i-1].Params {
			t.Fatal("front not sorted by parameter count")
		}
	}
}

// Property: the Pareto front never contains a dominated point.
func TestPropertyParetoFrontUndominated(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{
				Name:     string(rune('a' + i)),
				Params:   rng.Intn(100),
				Accuracy: rng.Float64() * 100,
			}
		}
		for _, p := range ParetoFront(pts) {
			for _, q := range pts {
				if q.Name == p.Name {
					continue
				}
				if q.Accuracy >= p.Accuracy && q.Params <= p.Params &&
					(q.Accuracy > p.Accuracy || q.Params < p.Params) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
