package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// numGrad estimates ∂loss/∂x[i] by central differences for a scalar loss
// defined as the dot product of the layer output with a fixed cotangent.
func numGrad(f func() float32, x *tensor.Tensor, i int, eps float32) float32 {
	orig := x.Data[i]
	x.Data[i] = orig + eps
	up := f()
	x.Data[i] = orig - eps
	down := f()
	x.Data[i] = orig
	return (up - down) / (2 * eps)
}

// checkLayerGrad verifies a layer's input and parameter gradients against
// finite differences using loss = Σ out·cot.
func checkLayerGrad(t *testing.T, l Layer, x *tensor.Tensor, tol float32) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	out := l.Forward(x, true)
	cot := tensor.RandUniform(rng, -1, 1, out.Shape()...)

	loss := func() float32 {
		o := l.Forward(x, true)
		var s float64
		for i := range o.Data {
			s += float64(o.Data[i]) * float64(cot.Data[i])
		}
		return float32(s)
	}

	ZeroGrads(l.Params())
	out = l.Forward(x, true)
	_ = out
	dx := l.Backward(cot)

	// Input gradient at a sample of positions.
	for trial := 0; trial < 12; trial++ {
		i := rng.Intn(x.Len())
		want := numGrad(loss, x, i, 1e-2)
		if diff := math.Abs(float64(dx.Data[i] - want)); diff > float64(tol)*math.Max(1, math.Abs(float64(want))) {
			t.Errorf("input grad[%d] = %v, numeric %v", i, dx.Data[i], want)
		}
	}
	// Parameter gradients.
	for _, p := range l.Params() {
		for trial := 0; trial < 8; trial++ {
			i := rng.Intn(p.Value.Len())
			want := numGrad(loss, p.Value, i, 1e-2)
			if diff := math.Abs(float64(p.Grad.Data[i] - want)); diff > float64(tol)*math.Max(1, math.Abs(float64(want))) {
				t.Errorf("%s grad[%d] = %v, numeric %v", p.Name, i, p.Grad.Data[i], want)
			}
		}
	}
}

func TestLinearGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewLinear(rng, "fc", 7, 5, true)
	x := tensor.Randn(rng, 1, 4, 7)
	checkLayerGrad(t, l, x, 0.05)
}

func TestConvGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	c := NewConv2D(rng, "conv", 2, 3, 3, 1, 1, true)
	x := tensor.Randn(rng, 1, 2, 2, 5, 5)
	checkLayerGrad(t, c, x, 0.05)
}

func TestConvStride2GradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := NewConv2D(rng, "conv", 2, 2, 3, 2, 1, false)
	x := tensor.Randn(rng, 1, 2, 2, 6, 6)
	checkLayerGrad(t, c, x, 0.05)
}

func TestConvOutputShape(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	c := NewConv2D(rng, "conv", 3, 8, 3, 2, 1, false)
	x := tensor.Randn(rng, 1, 2, 3, 16, 16)
	y := c.Forward(x, true)
	want := []int{2, 8, 8, 8}
	got := y.Shape()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("conv output shape %v, want %v", got, want)
		}
	}
}

func TestConvIdentityKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := NewConv2D(rng, "conv", 1, 1, 1, 1, 0, false)
	c.W.Value.Data[0] = 1 // 1×1 identity kernel
	x := tensor.Randn(rng, 1, 1, 1, 4, 4)
	y := c.Forward(x, true)
	for i := range x.Data {
		if x.Data[i] != y.Data[i] {
			t.Fatal("1x1 identity conv must be identity")
		}
	}
}

func TestReLUForwardBackward(t *testing.T) {
	r := NewReLU()
	x := tensor.FromSlice([]float32{-1, 0, 2}, 1, 3)
	y := r.Forward(x, true)
	if y.Data[0] != 0 || y.Data[1] != 0 || y.Data[2] != 2 {
		t.Fatalf("ReLU forward wrong: %v", y.Data)
	}
	dx := r.Backward(tensor.FromSlice([]float32{5, 5, 5}, 1, 3))
	if dx.Data[0] != 0 || dx.Data[1] != 0 || dx.Data[2] != 5 {
		t.Fatalf("ReLU backward wrong: %v", dx.Data)
	}
}

func TestBatchNormGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	bn := NewBatchNorm2D("bn", 3)
	x := tensor.Randn(rng, 1, 4, 3, 3, 3)
	checkLayerGrad(t, bn, x, 0.08)
}

func TestBatchNormNormalizesTrainMode(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	bn := NewBatchNorm2D("bn", 2)
	x := tensor.Randn(rng, 3, 8, 2, 4, 4) // mean≈0 std≈3
	y := bn.Forward(x, true)
	// Per-channel output should be ≈ zero-mean unit-var.
	n, c, plane := 8, 2, 16
	for ch := 0; ch < c; ch++ {
		var s, s2 float64
		for i := 0; i < n; i++ {
			base := (i*c + ch) * plane
			for p := 0; p < plane; p++ {
				v := float64(y.Data[base+p])
				s += v
				s2 += v * v
			}
		}
		cnt := float64(n * plane)
		mean := s / cnt
		variance := s2/cnt - mean*mean
		if math.Abs(mean) > 1e-3 || math.Abs(variance-1) > 1e-2 {
			t.Fatalf("channel %d not normalized: mean=%v var=%v", ch, mean, variance)
		}
	}
}

func TestBatchNormEvalUsesRunningStats(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	bn := NewBatchNorm2D("bn", 1)
	// Train on a few batches to move running stats.
	for i := 0; i < 20; i++ {
		x := tensor.Randn(rng, 2, 4, 1, 2, 2)
		bn.Forward(x, true)
	}
	x := tensor.Full(100, 1, 1, 2, 2) // constant input
	y := bn.Forward(x, false)
	// Eval output must be deterministic wrt running stats, not batch stats
	// (batch stats would normalize the constant to 0).
	if y.Data[0] == 0 {
		t.Fatal("eval mode used batch statistics")
	}
	y2 := bn.Forward(x, false)
	if y.Data[0] != y2.Data[0] {
		t.Fatal("eval mode not deterministic")
	}
}

// TestEvalForwardRetainsNoCaches pins the serving-process memory fix:
// after Forward(x, false) no layer holds a reference to activation-sized
// buffers (the legacy path kept them alive for the lifetime of the
// layer even when no Backward could ever consume them).
func TestEvalForwardRetainsNoCaches(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x2 := tensor.Randn(rng, 1, 4, 10)
	x4 := tensor.Randn(rng, 1, 2, 3, 8, 8)

	lin := NewLinear(rng, "fc", 10, 4, true)
	lin.Forward(x2, true)
	lin.Forward(x2, false)
	if lin.in != nil {
		t.Error("Linear retains input after eval Forward")
	}

	conv := NewConv2D(rng, "conv", 3, 4, 3, 1, 1, false)
	conv.Forward(x4, true)
	conv.Forward(x4, false)
	if conv.in != nil || conv.cols != nil {
		t.Error("Conv2D retains input/im2col caches after eval Forward")
	}

	bn := NewBatchNorm2D("bn", 3)
	bn.Forward(x4, true)
	bn.Forward(x4, false)
	if bn.xhat != nil || bn.invStd != nil {
		t.Error("BatchNorm2D retains normalized activations after eval Forward")
	}

	relu := NewReLU()
	relu.Forward(x2, true)
	relu.Forward(x2, false)
	if relu.mask != nil {
		t.Error("ReLU retains mask after eval Forward")
	}
}

// TestBatchNormEvalKeepsRunningStats guards the frozen-stats invariant
// the eval path relies on: Forward(x, false) does not update the
// running estimates.
func TestBatchNormEvalKeepsRunningStats(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	bn := NewBatchNorm2D("bn", 3)
	x := tensor.Randn(rng, 1, 2, 3, 4, 4)
	bn.Forward(x, true) // move stats off their init values
	mean := bn.RunningMean.Clone()
	vari := bn.RunningVar.Clone()

	bn.Forward(x, false)

	for ch := 0; ch < 3; ch++ {
		if bn.RunningMean.Data[ch] != mean.Data[ch] || bn.RunningVar.Data[ch] != vari.Data[ch] {
			t.Fatal("eval path moved the running statistics")
		}
	}
}

func TestGlobalAvgPool(t *testing.T) {
	g := NewGlobalAvgPool()
	x := tensor.FromSlice([]float32{1, 2, 3, 4, 10, 20, 30, 40}, 1, 2, 2, 2)
	y := g.Forward(x, true)
	if y.Dim(0) != 1 || y.Dim(1) != 2 {
		t.Fatalf("gap shape %v", y.Shape())
	}
	if y.Data[0] != 2.5 || y.Data[1] != 25 {
		t.Fatalf("gap values %v", y.Data)
	}
	dx := g.Backward(tensor.FromSlice([]float32{4, 8}, 1, 2))
	if dx.Data[0] != 1 || dx.Data[4] != 2 {
		t.Fatalf("gap backward %v", dx.Data)
	}
}

func TestFlattenRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	f := NewFlatten()
	x := tensor.Randn(rng, 1, 2, 3, 4, 5)
	y := f.Forward(x, true)
	if y.Dim(0) != 2 || y.Dim(1) != 60 {
		t.Fatalf("flatten shape %v", y.Shape())
	}
	dx := f.Backward(y)
	if dx.Rank() != 4 {
		t.Fatalf("unflatten shape %v", dx.Shape())
	}
}

// --- Losses ---

func TestSoftmaxCEKnownValue(t *testing.T) {
	logits := tensor.FromSlice([]float32{0, 0, 0}, 1, 3)
	loss, grad := SoftmaxCrossEntropy(logits, []int{1})
	if math.Abs(float64(loss)-math.Log(3)) > 1e-5 {
		t.Fatalf("uniform CE loss = %v, want ln 3", loss)
	}
	// grad = p − onehot: (1/3, 1/3−1, 1/3)
	if math.Abs(float64(grad.Data[1]+2.0/3)) > 1e-5 {
		t.Fatalf("CE grad wrong: %v", grad.Data)
	}
}

func TestSoftmaxCEGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	logits := tensor.Randn(rng, 1, 3, 5)
	labels := []int{2, 0, 4}
	_, grad := SoftmaxCrossEntropy(logits, labels)
	for trial := 0; trial < 10; trial++ {
		i := rng.Intn(logits.Len())
		want := numGrad(func() float32 {
			l, _ := SoftmaxCrossEntropy(logits, labels)
			return l
		}, logits, i, 1e-2)
		if math.Abs(float64(grad.Data[i]-want)) > 2e-3 {
			t.Fatalf("CE grad[%d]=%v numeric %v", i, grad.Data[i], want)
		}
	}
}

func TestBCEGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	logits := tensor.Randn(rng, 1, 2, 6)
	targets := tensor.RandUniform(rng, 0, 1, 2, 6)
	pw := []float32{1, 2, 3, 1, 5, 1}
	_, grad := BCEWithLogits(logits, targets, pw)
	for trial := 0; trial < 10; trial++ {
		i := rng.Intn(logits.Len())
		want := numGrad(func() float32 {
			l, _ := BCEWithLogits(logits, targets, pw)
			return l
		}, logits, i, 1e-2)
		if math.Abs(float64(grad.Data[i]-want)) > 2e-3 {
			t.Fatalf("BCE grad[%d]=%v numeric %v", i, grad.Data[i], want)
		}
	}
}

func TestBCEStableAtExtremeLogits(t *testing.T) {
	logits := tensor.FromSlice([]float32{100, -100}, 1, 2)
	targets := tensor.FromSlice([]float32{1, 0}, 1, 2)
	loss, grad := BCEWithLogits(logits, targets, nil)
	if math.IsNaN(float64(loss)) || math.IsInf(float64(loss), 0) {
		t.Fatalf("BCE overflowed: %v", loss)
	}
	if loss > 1e-6 {
		t.Fatalf("perfect predictions should have ~0 loss, got %v", loss)
	}
	if grad.HasNaN() {
		t.Fatal("BCE gradient overflowed")
	}
}

func TestPosWeights(t *testing.T) {
	// Attribute 0 fires 1/4 of the time → weight 3; attribute 1 never → maxW.
	targets := tensor.FromSlice([]float32{
		1, 0,
		0, 0,
		0, 0,
		0, 0,
	}, 4, 2)
	w := PosWeights(targets, 10)
	if math.Abs(float64(w[0]-3)) > 1e-5 {
		t.Fatalf("posWeight[0] = %v, want 3", w[0])
	}
	if w[1] != 10 {
		t.Fatalf("posWeight[1] = %v, want maxW", w[1])
	}
}

func TestMSE(t *testing.T) {
	a := tensor.FromSlice([]float32{1, 2}, 2)
	b := tensor.FromSlice([]float32{0, 0}, 2)
	loss, grad := MSE(a, b)
	if math.Abs(float64(loss)-1.25) > 1e-5 { // ½(1+4)/2
		t.Fatalf("MSE = %v, want 1.25", loss)
	}
	if grad.Data[1] != 1 {
		t.Fatalf("MSE grad = %v", grad.Data)
	}
}

// --- Optimizers & schedule ---

func TestAdamWReducesQuadratic(t *testing.T) {
	p := NewParam("w", tensor.FromSlice([]float32{5}, 1))
	opt := NewAdamW(0.3, 0)
	for i := 0; i < 200; i++ {
		p.ZeroGrad()
		p.Grad.Data[0] = 2 * p.Value.Data[0]
		opt.Step([]*Param{p})
	}
	if math.Abs(float64(p.Value.Data[0])) > 1e-2 {
		t.Fatalf("AdamW failed to minimize w²: w=%v", p.Value.Data[0])
	}
}

func TestAdamWDecoupledDecayShrinksWeights(t *testing.T) {
	p := NewParam("w", tensor.FromSlice([]float32{1}, 1))
	opt := NewAdamW(0.01, 0.5)
	for i := 0; i < 50; i++ {
		p.ZeroGrad() // zero gradient: only decay acts
		opt.Step([]*Param{p})
	}
	if p.Value.Data[0] >= 1 {
		t.Fatal("decoupled weight decay had no effect")
	}
	// NoDecay parameters must be untouched by decay.
	q := NewParam("b", tensor.FromSlice([]float32{1}, 1))
	q.NoDecay = true
	opt2 := NewAdamW(0.01, 0.5)
	for i := 0; i < 50; i++ {
		q.ZeroGrad()
		opt2.Step([]*Param{q})
	}
	if q.Value.Data[0] != 1 {
		t.Fatalf("NoDecay param decayed: %v", q.Value.Data[0])
	}
}

func TestFrozenParamsSkipped(t *testing.T) {
	p := NewParam("w", tensor.FromSlice([]float32{1}, 1))
	p.Frozen = true
	p.Grad.Data[0] = 100
	NewAdamW(0.1, 0.1).Step([]*Param{p})
	if p.Value.Data[0] != 1 {
		t.Fatal("AdamW updated a frozen param")
	}
}

func TestCosineAnnealingEndpoints(t *testing.T) {
	s := NewCosineAnnealingLR(1.0, 0.1, 100)
	if math.Abs(float64(s.At(0)-1.0)) > 1e-6 {
		t.Fatalf("lr(0) = %v, want 1.0", s.At(0))
	}
	if math.Abs(float64(s.At(100)-0.1)) > 1e-6 {
		t.Fatalf("lr(T) = %v, want 0.1", s.At(100))
	}
	mid := s.At(50)
	if math.Abs(float64(mid-0.55)) > 1e-5 {
		t.Fatalf("lr(T/2) = %v, want 0.55", mid)
	}
	// Monotone decreasing.
	prev := s.At(0)
	for i := 1; i <= 100; i++ {
		cur := s.At(i)
		if cur > prev+1e-7 {
			t.Fatalf("cosine schedule not monotone at %d", i)
		}
		prev = cur
	}
}

func TestClipGradNorm(t *testing.T) {
	p := NewParam("w", tensor.New(4))
	p.Grad.Data = []float32{3, 4, 0, 0} // norm 5
	pre := ClipGradNorm([]*Param{p}, 1)
	if math.Abs(float64(pre-5)) > 1e-5 {
		t.Fatalf("pre-clip norm = %v, want 5", pre)
	}
	var total float64
	for _, g := range p.Grad.Data {
		total += float64(g) * float64(g)
	}
	if math.Abs(math.Sqrt(total)-1) > 1e-5 {
		t.Fatalf("post-clip norm = %v, want 1", math.Sqrt(total))
	}
}

// --- ResNet ---

func TestResNetForwardShape(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	net := NewResNet(rng, MicroResNet50Config(4))
	x := tensor.Randn(rng, 1, 2, 3, 16, 16)
	y := net.Forward(x, true)
	if y.Dim(0) != 2 || y.Dim(1) != net.OutDim() {
		t.Fatalf("resnet output %v, want [2 %d]", y.Shape(), net.OutDim())
	}
	if net.OutDim() != 4*8*4 {
		t.Fatalf("OutDim = %d, want 128", net.OutDim())
	}
}

func TestResNetBackwardShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	net := NewResNet(rng, MicroResNet50Config(4))
	x := tensor.Randn(rng, 1, 2, 3, 16, 16)
	y := net.Forward(x, true)
	dx := net.Backward(tensor.Ones(y.Shape()...))
	if dx.Rank() != 4 || dx.Dim(2) != 16 {
		t.Fatalf("resnet input grad shape %v", dx.Shape())
	}
	// Gradients must reach the stem.
	stemW := net.Params()[0]
	var any bool
	for _, g := range stemW.Grad.Data {
		if g != 0 {
			any = true
			break
		}
	}
	if !any {
		t.Fatal("no gradient reached the stem convolution")
	}
}

func TestResNet101DeeperThan50(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	p50 := CountParams(NewResNet(rng, MicroResNet50Config(4)).Params())
	p101 := CountParams(NewResNet(rng, MicroResNet101Config(4)).Params())
	if p101 <= p50 {
		t.Fatalf("ResNet101 (%d params) not larger than ResNet50 (%d)", p101, p50)
	}
	full50 := ResNet50Config(4)
	full101 := ResNet101Config(4)
	d50, d101 := 0, 0
	for i := 0; i < 4; i++ {
		d50 += full50.StageDepths[i]
		d101 += full101.StageDepths[i]
	}
	if d50 != 16 || d101 != 33 {
		t.Fatalf("preset stage depths wrong: %d, %d (want 16, 33)", d50, d101)
	}
}

func TestResNetLearnsTinyProblem(t *testing.T) {
	// Two linearly separable "image" classes; a micro resnet + linear head
	// should fit them in a few steps.
	rng := rand.New(rand.NewSource(16))
	net := NewResNet(rng, ResNetConfig{
		Name: "tiny", StageDepths: [4]int{1, 1, 1, 1}, BaseWidth: 2,
		Bottleneck: false, InChannels: 1,
	})
	head := NewLinear(rng, "head", net.OutDim(), 2, true)
	model := NewSequential(net, head)
	opt := NewAdamW(0.01, 0)

	n := 8
	x := tensor.New(n, 1, 8, 8)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		labels[i] = i % 2
		val := float32(-1)
		if labels[i] == 1 {
			val = 1
		}
		for p := 0; p < 64; p++ {
			x.Data[i*64+p] = val + float32(rng.NormFloat64())*0.1
		}
	}
	var first, last float32
	for step := 0; step < 30; step++ {
		ZeroGrads(model.Params())
		logits := model.Forward(x, true)
		loss, dlogits := SoftmaxCrossEntropy(logits, labels)
		if step == 0 {
			first = loss
		}
		last = loss
		model.Backward(dlogits)
		opt.Step(model.Params())
	}
	if last >= first {
		t.Fatalf("training did not reduce loss: %v → %v", first, last)
	}
	if last > 0.3 {
		t.Fatalf("failed to fit separable toy problem: loss %v", last)
	}
}

func TestSequentialParamsConcatenated(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	s := NewSequential(
		NewLinear(rng, "a", 3, 4, true),
		NewReLU(),
		NewLinear(rng, "b", 4, 2, false),
	)
	if len(s.Params()) != 3 { // a.W, a.b, b.W
		t.Fatalf("want 3 params, got %d", len(s.Params()))
	}
	if CountParams(s.Params()) != 3*4+4+4*2 {
		t.Fatalf("CountParams = %d", CountParams(s.Params()))
	}
}

func TestSetFrozen(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	l := NewLinear(rng, "fc", 2, 2, true)
	SetFrozen(l.Params(), true)
	for _, p := range l.Params() {
		if !p.Frozen {
			t.Fatal("SetFrozen failed")
		}
	}
	SetFrozen(l.Params(), false)
	if l.W.Frozen {
		t.Fatal("unfreeze failed")
	}
}

func BenchmarkConvForward(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	c := NewConv2D(rng, "conv", 8, 16, 3, 1, 1, false)
	x := tensor.Randn(rng, 1, 4, 8, 16, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Forward(x, true)
	}
}

func BenchmarkResNetForward(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	net := NewResNet(rng, MicroResNet50Config(6))
	x := tensor.Randn(rng, 1, 4, 3, 16, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Forward(x, false)
	}
}
