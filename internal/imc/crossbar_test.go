package imc

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/tensor"
)

// mvm runs one analog matrix-vector product W·x through the batched
// MatMulTInto on a one-row probe.
func mvm(bar *Crossbar, x *tensor.Tensor) *tensor.Tensor {
	return bar.MatMulTInto(tensor.New(1, bar.Rows()), x.Reshape(1, x.Len()))
}

// matVec is the exact product W·x.
func matVec(w, x *tensor.Tensor) *tensor.Tensor {
	return tensor.MatMulT(x.Reshape(1, x.Len()), w)
}

func TestIdealCrossbarMatchesExactMatVec(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	w := tensor.Randn(rng, 1, 5, 7)
	x := tensor.Randn(rng, 1, 7)
	bar := Program(w, Ideal())
	got := mvm(bar, x)
	want := tensor.MatMul(x.Reshape(1, 7), tensor.Transpose2D(w))
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("ideal crossbar diverges at %d: %v vs %v", i, got.Data[i], want.Data[i])
		}
	}
}

func TestProgrammingNoiseIsFrozenPerDevice(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	w := tensor.Randn(rng, 1, 4, 6)
	cfg := Config{ProgNoise: 0.1, Seed: 3}
	bar := Program(w, cfg)
	x := tensor.Randn(rng, 1, 6)
	a := mvm(bar, x)
	b := mvm(bar, x)
	// No read noise configured: repeated reads of the same device must
	// agree exactly even though the device differs from the ideal.
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("programming noise must be drawn once, not per read")
		}
	}
	ideal := matVec(w, x)
	var diff float64
	for i := range a.Data {
		diff += math.Abs(float64(a.Data[i] - ideal.Data[i]))
	}
	if diff == 0 {
		t.Fatal("programming noise had no effect")
	}
}

func TestReadNoiseVariesPerRead(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	w := tensor.Randn(rng, 1, 4, 6)
	bar := Program(w, Config{ReadNoise: 0.05, Seed: 5})
	x := tensor.Randn(rng, 1, 6)
	a := mvm(bar, x)
	b := mvm(bar, x)
	same := true
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			same = false
		}
	}
	if same {
		t.Fatal("read noise must be fresh per MVM")
	}
}

func TestADCQuantizationSnapsToGrid(t *testing.T) {
	w := tensor.FromSlice([]float32{1, 0, 0, 1}, 2, 2)
	bar := Program(w, Config{ADCBits: 4, Seed: 6})
	x := tensor.FromSlice([]float32{0.33, 0.77}, 2)
	out := mvm(bar, x)
	// Full scale = scale·‖x‖₁ = 1·1.1; step = 2·1.1/16.
	step := 2 * 1.1 / 16
	for _, v := range out.Data {
		q := float64(v) / step
		if math.Abs(q-math.Round(q)) > 1e-5 {
			t.Fatalf("output %v not on the ADC grid (step %v)", v, step)
		}
	}
}

func TestADCFewBitsLosesPrecision(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	w := tensor.Randn(rng, 1, 8, 16)
	x := tensor.Randn(rng, 1, 16)
	exact := matVec(w, x)
	errAt := func(bits int) float64 {
		bar := Program(w, Config{ADCBits: bits, Seed: 8})
		out := mvm(bar, x)
		var e float64
		for i := range out.Data {
			e += math.Abs(float64(out.Data[i] - exact.Data[i]))
		}
		return e
	}
	if errAt(2) <= errAt(10) {
		t.Fatal("2-bit ADC should be strictly worse than 10-bit")
	}
}

func TestMatMulTBatchesMatchMatVec(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	w := tensor.Randn(rng, 1, 3, 5)
	bar := Program(w, Ideal())
	x := tensor.Randn(rng, 1, 4, 5)
	batch := bar.MatMulTInto(tensor.New(4, 3), x)
	for r := 0; r < 4; r++ {
		row := mvm(bar, tensor.FromSlice(append([]float32(nil), x.Row(r)...), 5))
		for c := 0; c < 3; c++ {
			if math.Abs(float64(batch.At(r, c)-row.Data[c])) > 1e-5 {
				t.Fatalf("batched MVM diverges at (%d,%d)", r, c)
			}
		}
	}
}

func TestSimilarityKernelIdealMatchesCosine(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	phi := tensor.Randn(rng, 1, 6, 12)
	x := tensor.Randn(rng, 1, 3, 12)
	k := NewSimilarityKernel(phi, 0.5, Ideal())
	got := k.Logits(x)
	want := tensor.Scale(tensor.MatMulT(tensor.NormalizeRows(x), tensor.NormalizeRows(phi)), 2) // 1/K = 2
	for i := range want.Data {
		if math.Abs(float64(got.Data[i]-want.Data[i])) > 1e-4 {
			t.Fatalf("ideal analog kernel diverges at %d: %v vs %v", i, got.Data[i], want.Data[i])
		}
	}
}

// The HDC robustness claim: nearest-class readout over quasi-orthogonal
// embeddings survives typical PCM noise almost unchanged.
func TestClassificationSurvivesTypicalPCMNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const classes, d = 20, 512
	phi := tensor.Rademacher(rng, classes, d)
	// Queries: noisy versions of class embeddings.
	const perClass = 5
	x := tensor.New(classes*perClass, d)
	labels := make([]int, classes*perClass)
	for c := 0; c < classes; c++ {
		for q := 0; q < perClass; q++ {
			i := c*perClass + q
			labels[i] = c
			copy(x.Row(i), phi.Row(c))
			for j := 0; j < d/10; j++ { // 10 % component corruption
				p := rng.Intn(d)
				x.Row(i)[p] = -x.Row(i)[p]
			}
		}
	}
	acc := func(cfg Config) float64 {
		k := NewSimilarityKernel(phi, 1, cfg)
		logits := k.Logits(x)
		hits := 0
		for i, y := range tensor.ArgMax(logits) {
			if y == labels[i] {
				hits++
			}
		}
		return float64(hits) / float64(len(labels))
	}
	ideal := acc(Ideal())
	pcm := acc(TypicalPCM())
	if ideal < 0.99 {
		t.Fatalf("ideal readout accuracy %v, expected ≈1", ideal)
	}
	if pcm < ideal-0.05 {
		t.Fatalf("typical PCM noise broke the readout: %v vs ideal %v", pcm, ideal)
	}
}

func TestProgramPanicsOnBadRank(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Program accepted rank-1 weights")
		}
	}()
	Program(tensor.New(4), Ideal())
}

func TestMatVecPanicsOnBadInput(t *testing.T) {
	bar := Program(tensor.New(2, 3), Ideal())
	defer func() {
		if recover() == nil {
			t.Fatal("MatMulTInto accepted wrong input size")
		}
	}()
	bar.MatMulTInto(tensor.New(1, 2), tensor.New(1, 4))
}

// A row-range tile under ideal conditions must reproduce exactly the
// corresponding logit columns of a full-matrix kernel.
func TestSimilarityKernelRowsMatchesFullIdeal(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const classes, d = 17, 256
	phi := tensor.Rademacher(rng, classes, d)
	x := tensor.Randn(rng, 1, 5, d)
	full := NewSimilarityKernel(phi, 0.5, Ideal()).Logits(x)
	for _, rng := range [][2]int{{0, 6}, {6, 12}, {12, classes}} {
		rows := tensor.FromSlice(phi.Data[rng[0]*d:rng[1]*d], rng[1]-rng[0], d)
		tile := NewSimilarityKernelRows(rows, rng[0], 0.5, Ideal())
		if tile.Rows() != rng[1]-rng[0] {
			t.Fatalf("tile Rows() = %d, want %d", tile.Rows(), rng[1]-rng[0])
		}
		got := tile.Logits(x)
		for r := 0; r < 5; r++ {
			for c := rng[0]; c < rng[1]; c++ {
				if got.At(r, c-rng[0]) != full.At(r, c) {
					t.Fatalf("tile [%d,%d) logit (%d,%d) = %v, want %v",
						rng[0], rng[1], r, c, got.At(r, c-rng[0]), full.At(r, c))
				}
			}
		}
	}
}

func TestSimilarityKernelRowsBadRangePanics(t *testing.T) {
	phi := tensor.Rademacher(rand.New(rand.NewSource(1)), 4, 32)
	for _, tc := range []struct {
		name string
		rows func() *tensor.Tensor
		lo   int
		want string // substring of the panic message
	}{
		// The empty range [2,2) of phi: tensor refuses a zero-row shape
		// before the kernel's own guard can see it.
		{"empty range", func() *tensor.Tensor { return tensor.FromSlice(phi.Data[2*32:2*32], 0, 32) }, 2, "non-positive dimension"},
		{"negative row offset", func() *tensor.Tensor { return phi }, -2, "bad row range"},
	} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("NewSimilarityKernelRows accepted a tile with %s", tc.name)
				}
				if msg, _ := r.(string); !strings.Contains(msg, tc.want) {
					t.Fatalf("%s: panic %v, want a message containing %q", tc.name, r, tc.want)
				}
			}()
			NewSimilarityKernelRows(tc.rows(), tc.lo, 1, Ideal())
		}()
	}
}
