package quant_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/nn"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// compileInt8 lowers l through the compiled int8 path, calibrated on
// calib, and returns a function running the int8 plan.
func compileInt8(t *testing.T, l nn.Layer, calib *tensor.Tensor) func(x *tensor.Tensor) *tensor.Tensor {
	t.Helper()
	cq, err := nn.CompileQuantized(l, calib)
	if err != nil {
		t.Fatal(err)
	}
	return func(x *tensor.Tensor) *tensor.Tensor { return cq.Infer(x, nn.NewScratch()).Clone() }
}

// quantizeColumns quantizes a [in, out] weight matrix per output
// channel (column), the layout nn.Linear stores.
func quantizeColumns(w *tensor.Tensor, qmax int) ([]int8, []float32) {
	in, out := w.Dim(0), w.Dim(1)
	q, scales := make([]int8, in*out), make([]float32, out)
	quant.QuantizeChannels(q, scales, w.Data, out, in, 1, out, qmax)
	return q, scales
}

func TestQuantizedLinearTracksFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := nn.NewLinear(rng, "fc", 64, 32, true)
	x := tensor.Randn(rng, 1, 8, 64)
	ref := l.Forward(x, false)
	got := compileInt8(t, l, x)(x)
	// Relative error budget: int8 symmetric quantization of weights and
	// activations bounds per-output error well under 2 % of the output
	// range for Gaussian data.
	mn, mx := ref.MinMax()
	rangeRef := float64(mx - mn)
	for i := range ref.Data {
		if math.Abs(float64(got.Data[i]-ref.Data[i])) > 0.02*rangeRef {
			t.Fatalf("quantized output diverges at %d: %v vs %v", i, got.Data[i], ref.Data[i])
		}
	}
}

func TestQuantizedStorageIsQuarter(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	l := nn.NewLinear(rng, "fc", 128, 96, false)
	q, scales := quantizeColumns(l.W.Value, 127)
	floatBytes := 4 * 128 * 96
	if b := len(q) + 4*len(scales); b >= floatBytes/3 {
		t.Fatalf("quantized weights %d B, float %d B — expected ≈4× smaller", b, floatBytes)
	}
}

func TestQuantizedWeightsInRange(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	l := nn.NewLinear(rng, "fc", 16, 16, false)
	// Inject an outlier to exercise clamping.
	l.W.Value.Data[0] = 100
	q, _ := quantizeColumns(l.W.Value, 127)
	for _, w := range q {
		if w < -127 || w > 127 {
			t.Fatalf("weight %d outside int8 symmetric range", w)
		}
	}
	if q[0] != 127 {
		t.Fatalf("outlier should quantize to 127, got %d", q[0])
	}
}

// TestQuantizedScalesArePerChannel pins the per-channel upgrade: an
// outlier in one output channel must not coarsen any other channel's
// scale — with per-tensor scales the small channel would quantize to a
// handful of levels and drift.
func TestQuantizedScalesArePerChannel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	l := nn.NewLinear(rng, "fc", 32, 4, false)
	for i := 0; i < 32; i++ {
		l.W.Value.Data[i*4+0] *= 100 // channel 0 dominates
		l.W.Value.Data[i*4+1] *= 0.01
	}
	q, scales := quantizeColumns(l.W.Value, 127)
	if len(scales) != 4 {
		t.Fatalf("want 4 per-channel scales, have %d", len(scales))
	}
	if scales[0] <= scales[1]*1000 {
		t.Fatalf("channel scales did not separate: %v vs %v", scales[0], scales[1])
	}
	// The small channel keeps near-full integer resolution.
	var maxQ int8
	for i := 0; i < 32; i++ {
		if w := q[i*4+1]; w > maxQ {
			maxQ = w
		}
	}
	if maxQ < 100 {
		t.Fatalf("small channel uses only %d of 127 integer levels — scale not per-channel", maxQ)
	}
}

// TestQuantizeRowsReducedRange pins the compiler-facing core at the
// int8 kernel's reduced weight range.
func TestQuantizeRowsReducedRange(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	w := tensor.Randn(rng, 1, 6, 40)
	q := make([]int8, 6*40)
	scales := make([]float32, 6)
	quant.QuantizeRows(q, scales, w.Data, 6, 40, tensor.Gemm8WMax)
	hit := false
	for r := 0; r < 6; r++ {
		for c := 0; c < 40; c++ {
			v := q[r*40+c]
			if v > tensor.Gemm8WMax || v < -tensor.Gemm8WMax {
				t.Fatalf("weight %d outside the kernel range ±%d", v, tensor.Gemm8WMax)
			}
			if v == tensor.Gemm8WMax || v == -tensor.Gemm8WMax {
				hit = true
			}
			// Round-trip error bounded by half a step.
			if d := math.Abs(float64(w.Data[r*40+c]) - float64(v)*float64(scales[r])); d > float64(scales[r])*0.5001 {
				t.Fatalf("round-trip error %v exceeds half a quantization step %v", d, scales[r]/2)
			}
		}
	}
	if !hit {
		t.Fatal("no row used its full range — scales are not tight per row")
	}
}

func TestQuantizedZeroInputSafe(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	l := nn.NewLinear(rng, "fc", 8, 4, true)
	out := compileInt8(t, l, tensor.Randn(rng, 1, 2, 8))(tensor.New(2, 8))
	if out.HasNaN() {
		t.Fatal("zero input produced NaN")
	}
	// With zero input the output must equal the bias.
	for r := 0; r < 2; r++ {
		for c := 0; c < 4; c++ {
			if out.At(r, c) != l.B.Value.Data[c] {
				t.Fatal("zero input should pass bias through")
			}
		}
	}
}

func TestQuantizedForwardPanicsOnBadInput(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	l := nn.NewLinear(rng, "fc", 8, 4, false)
	run := compileInt8(t, l, tensor.Randn(rng, 1, 2, 8))
	defer func() {
		if recover() == nil {
			t.Fatal("bad input accepted")
		}
	}()
	run(tensor.New(2, 9))
}

// End-to-end: quantizing the ZSC projection preserves the argmax class
// ranking on cosine-similarity logits — the deployment claim.
func TestQuantizedProjectionPreservesRanking(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	proj := nn.NewLinear(rng, "proj", 96, 48, true)
	feats := tensor.Randn(rng, 1, 20, 96)
	classes := tensor.Rademacher(rng, 10, 48)

	embF := proj.Forward(feats, false)
	embQ := compileInt8(t, proj, feats)(feats)
	cn := tensor.NormalizeRows(classes)
	simF := tensor.MatMulT(tensor.NormalizeRows(embF), cn)
	simQ := tensor.MatMulT(tensor.NormalizeRows(embQ), cn)
	agree := 0
	for r := 0; r < 20; r++ {
		if tensor.ArgMaxRow(simF, r) == tensor.ArgMaxRow(simQ, r) {
			agree++
		}
	}
	if agree < 19 {
		t.Fatalf("quantization changed the predicted class for %d/20 queries", 20-agree)
	}
	var worst float64
	for i := range embF.Data {
		worst = math.Max(worst, math.Abs(float64(embQ.Data[i]-embF.Data[i])))
	}
	if worst > 0.5 {
		t.Fatalf("max abs error %v too large", worst)
	}
}
