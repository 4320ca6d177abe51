package core

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/attrenc"
	"repro/internal/dataset"
	"repro/internal/hdc"
	"repro/internal/imc"
	"repro/internal/infer"
	"repro/internal/nn"
	"repro/internal/tensor"
)

func TestSimilarityKernelForwardValues(t *testing.T) {
	k := NewSimilarityKernel(0.5)
	x := tensor.FromSlice([]float32{1, 0, 0, 1}, 2, 2) // unit rows
	p := tensor.FromSlice([]float32{2, 0}, 1, 2)       // parallel to row 0
	logits := k.Forward(x, p)
	// cos(row0, p) = 1 → logit 1/0.5 = 2 ; cos(row1, p) = 0 → 0.
	if math.Abs(float64(logits.At(0, 0))-2) > 1e-5 || math.Abs(float64(logits.At(1, 0))) > 1e-5 {
		t.Fatalf("kernel logits wrong: %v", logits.Data)
	}
}

func TestSimilarityKernelGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := tensor.Randn(rng, 1, 3, 6)
	p := tensor.Randn(rng, 1, 4, 6)
	k := NewSimilarityKernel(0.7)
	cot := tensor.RandUniform(rng, -1, 1, 3, 4)

	loss := func() float32 {
		kk := NewSimilarityKernel(k.K.Value.Data[0])
		out := kk.Forward(x, p)
		var s float64
		for i := range out.Data {
			s += float64(out.Data[i]) * float64(cot.Data[i])
		}
		return float32(s)
	}

	k.Forward(x, p)
	dx, dp := k.Backward(cot)

	check := func(name string, tens *tensor.Tensor, analytic *tensor.Tensor) {
		for trial := 0; trial < 10; trial++ {
			i := rng.Intn(tens.Len())
			orig := tens.Data[i]
			const eps = 1e-2
			tens.Data[i] = orig + eps
			up := loss()
			tens.Data[i] = orig - eps
			down := loss()
			tens.Data[i] = orig
			want := (up - down) / (2 * eps)
			if math.Abs(float64(analytic.Data[i]-want)) > 0.02*math.Max(1, math.Abs(float64(want))) {
				t.Errorf("%s grad[%d] = %v, numeric %v", name, i, analytic.Data[i], want)
			}
		}
	}
	check("x", x, dx)
	check("p", p, dp)

	// Temperature gradient.
	orig := k.K.Value.Data[0]
	const eps = 1e-3
	k.K.Value.Data[0] = orig + eps
	up := loss()
	k.K.Value.Data[0] = orig - eps
	down := loss()
	k.K.Value.Data[0] = orig
	want := (up - down) / (2 * eps)
	if math.Abs(float64(k.K.Grad.Data[0]-want)) > 0.02*math.Max(1, math.Abs(float64(want))) {
		t.Fatalf("dK = %v, numeric %v", k.K.Grad.Data[0], want)
	}
}

func TestSimilarityKernelZeroRowSafe(t *testing.T) {
	k := NewSimilarityKernel(1)
	x := tensor.New(2, 4) // row 0 all zeros
	x.Set(1, 1, 0)
	p := tensor.Ones(3, 4)
	logits := k.Forward(x, p)
	if logits.HasNaN() {
		t.Fatal("zero-norm embedding produced NaN logits")
	}
	dx, dp := k.Backward(tensor.Ones(2, 3))
	if dx.HasNaN() || dp.HasNaN() {
		t.Fatal("zero-norm embedding produced NaN gradients")
	}
}

func TestClampTemperature(t *testing.T) {
	k := NewSimilarityKernel(1)
	k.K.Value.Data[0] = -5
	k.ClampTemperature(0.01, 10)
	if k.Temperature() != 0.01 {
		t.Fatalf("clamp low failed: %v", k.Temperature())
	}
	k.K.Value.Data[0] = float32(math.NaN())
	k.ClampTemperature(0.01, 10)
	if k.Temperature() != 0.01 {
		t.Fatalf("NaN clamp failed: %v", k.Temperature())
	}
}

func TestImageEncoderShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	enc := NewImageEncoder(rng, nn.MicroResNet50Config(4), 32)
	if enc.OutDim() != 32 {
		t.Fatalf("OutDim = %d, want 32 (projection)", enc.OutDim())
	}
	x := tensor.Randn(rng, 1, 2, 3, 16, 16)
	y := enc.Forward(x, false)
	if y.Dim(0) != 2 || y.Dim(1) != 32 {
		t.Fatalf("encoder output %v", y.Shape())
	}
	// Without projection, d = backbone d′.
	enc2 := NewImageEncoder(rng, nn.MicroResNet50Config(4), 0)
	if enc2.OutDim() != 4*8*4 {
		t.Fatalf("no-proj OutDim = %d", enc2.OutDim())
	}
}

func TestFreezeBackboneKeepsProjTrainable(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	enc := NewImageEncoder(rng, nn.MicroResNet50Config(4), 16)
	enc.FreezeBackbone()
	for _, p := range enc.Backbone.Params() {
		if !p.Frozen {
			t.Fatal("backbone param not frozen")
		}
	}
	for _, p := range enc.Proj.Params() {
		if p.Frozen {
			t.Fatal("projection frozen by FreezeBackbone")
		}
	}
	enc.UnfreezeBackbone()
	if enc.Backbone.Params()[0].Frozen {
		t.Fatal("unfreeze failed")
	}
}

func TestModelDimensionMismatchPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	img := NewImageEncoder(rng, nn.MicroResNet50Config(4), 16)
	schema := dataset.NewCUBSchema()
	enc := attrenc.NewHDCEncoder(rng, schema, 32) // wrong d
	defer func() {
		if recover() == nil {
			t.Fatal("NewModel accepted mismatched dimensions")
		}
	}()
	NewModel(img, enc, NewSimilarityKernel(1))
}

// tinyData builds a small dataset whose attribute structure is easy to
// learn, for end-to-end trainer tests.
func tinyData(seed int64) (*dataset.SynthCUB, dataset.Split) {
	cfg := dataset.DefaultConfig()
	cfg.NumClasses = 12
	cfg.ImagesPerClass = 6
	cfg.Height, cfg.Width = 12, 12
	cfg.AttrNoise = 0.02
	cfg.PixelNoise = 0.02
	cfg.Seed = seed
	d := dataset.Generate(cfg)
	rng := rand.New(rand.NewSource(seed + 50))
	return d, d.ZSSplit(rng, 2.0/3)
}

func tinyPipeline(seed int64) PipelineConfig {
	cfg := DefaultPipelineConfig()
	cfg.Backbone = nn.MicroResNet50Config(4)
	cfg.Backbone.Name = "ResNet50"
	cfg.ProjDim = 48
	cfg.MLPHidden = 32
	cfg.Seed = seed
	cfg.PhaseI.Epochs = 2
	cfg.PhaseII.Epochs = 4
	cfg.PhaseIII.Epochs = 4
	return cfg
}

func TestPipelineBeatsChanceOnUnseenClasses(t *testing.T) {
	d, split := tinyData(7)
	cfg := tinyPipeline(7)
	_, res := cfg.Run(d, split, nil)
	chance := 1.0 / float64(len(split.TestClasses))
	if res.Eval.Top1 <= chance {
		t.Fatalf("zero-shot top-1 %.3f not above chance %.3f", res.Eval.Top1, chance)
	}
	if res.Eval.Top5 < res.Eval.Top1 {
		t.Fatalf("top-5 (%v) below top-1 (%v)", res.Eval.Top5, res.Eval.Top1)
	}
	if res.ParamCount <= 0 {
		t.Fatal("param count not reported")
	}
}

func TestPipelineDeterministicUnderSeed(t *testing.T) {
	d, split := tinyData(8)
	cfg := tinyPipeline(8)
	cfg.PhaseII.Epochs, cfg.PhaseIII.Epochs = 1, 1
	_, a := cfg.Run(d, split, nil)
	_, b := cfg.Run(d, split, nil)
	if a.Eval.Top1 != b.Eval.Top1 || a.PhaseIIILoss != b.PhaseIIILoss {
		t.Fatalf("pipeline not deterministic: %v vs %v", a, b)
	}
}

func TestMLPEncoderVariantRuns(t *testing.T) {
	d, split := tinyData(9)
	cfg := tinyPipeline(9)
	cfg.Encoder = "MLP"
	model, res := cfg.Run(d, split, nil)
	if model.Attr.Name() != "MLP" {
		t.Fatal("MLP encoder not selected")
	}
	if len(model.Attr.Params()) == 0 {
		t.Fatal("MLP encoder reports no trainable params")
	}
	if res.Eval.Top1 < 0 || res.Eval.Top1 > 1 {
		t.Fatalf("bad accuracy %v", res.Eval.Top1)
	}
	// The MLP variant must cost more parameters than the HDC variant —
	// the core of the paper's efficiency claim.
	cfgHDC := tinyPipeline(9)
	hdcModel, _ := cfgHDC.Build(d.Schema)
	if model.ParamCount() <= hdcModel.ParamCount() {
		t.Fatalf("MLP model (%d params) not larger than HDC model (%d)",
			model.ParamCount(), hdcModel.ParamCount())
	}
}

func TestHDCEncoderContributesZeroParams(t *testing.T) {
	d, _ := tinyData(10)
	cfg := tinyPipeline(10)
	model, _ := cfg.Build(d.Schema)
	for _, p := range model.Attr.Params() {
		t.Fatalf("HDC encoder has unexpected trainable param %s", p.Name)
	}
	_ = model
}

func TestPhaseIIIFreezesBackbone(t *testing.T) {
	d, split := tinyData(11)
	cfg := tinyPipeline(11)
	model, hdcEnc := cfg.Build(d.Schema)
	_ = hdcEnc
	before := model.Image.Backbone.Params()[0].Value.Clone()
	cfg3 := cfg.PhaseIII
	cfg3.Epochs = 2
	TrainZSC(model, d, split, cfg3)
	after := model.Image.Backbone.Params()[0].Value
	for i := range before.Data {
		if before.Data[i] != after.Data[i] {
			t.Fatal("backbone changed during phase III")
		}
	}
	// And it must be unfrozen again afterwards.
	if model.Image.Backbone.Params()[0].Frozen {
		t.Fatal("backbone left frozen after TrainZSC")
	}
}

func TestTrainAttributeExtractionReducesLoss(t *testing.T) {
	d, split := tinyData(12)
	cfg := tinyPipeline(12)
	model, hdcEnc := cfg.Build(d.Schema)
	short := cfg.PhaseII
	short.Epochs = 1
	first := TrainAttributeExtraction(model.Image, model.Kernel, hdcEnc.Dictionary(), d, split, short)
	longer := cfg.PhaseII
	longer.Epochs = 5
	model2, hdcEnc2 := cfg.Build(d.Schema)
	last := TrainAttributeExtraction(model2.Image, model2.Kernel, hdcEnc2.Dictionary(), d, split, longer)
	if last >= first {
		t.Fatalf("more phase-II training did not reduce loss: %v → %v", first, last)
	}
}

func TestAttributeScoresShapes(t *testing.T) {
	d, split := tinyData(13)
	cfg := tinyPipeline(13)
	model, hdcEnc := cfg.Build(d.Schema)
	scores, targets := AttributeScores(model.Image, model.Kernel, hdcEnc.Dictionary(), d, split.Test[:5])
	if scores.Dim(0) != 5 || scores.Dim(1) != d.Schema.Alpha() {
		t.Fatalf("scores shape %v", scores.Shape())
	}
	if !targets.SameShape(scores) {
		t.Fatal("targets shape mismatch")
	}
	// Targets must be the instances' binary attributes.
	var ones int
	for _, v := range targets.Data {
		if v == 1 {
			ones++
		}
	}
	if ones != 5*d.Schema.NumGroups() {
		t.Fatalf("targets have %d active attrs, want %d", ones, 5*d.Schema.NumGroups())
	}
}

func TestPretrainClassificationLearns(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	img := NewImageEncoder(rng, nn.MicroResNet50Config(4), 32)
	data := dataset.GenerateImageNet(4, 8, 12, 12, 3)
	cfg := DefaultTrainConfig()
	cfg.Epochs = 5
	acc := PretrainClassification(img, data, cfg)
	if acc <= 0.3 { // chance = 0.25
		t.Fatalf("phase I accuracy %.3f not above chance", acc)
	}
}

func TestFormatMuSigma(t *testing.T) {
	if got := FormatMuSigma(0.638, 0.012); got != "63.8 ± 1.2" {
		t.Fatalf("FormatMuSigma = %q", got)
	}
}

// A degenerate split with no candidate classes must report zeros cleanly
// instead of reaching the inference engine with an empty class memory
// (which would surface as infer.ErrNoClasses / a panic).
func TestEvalDegenerateEmptySplit(t *testing.T) {
	d, _ := tinyData(22)
	cfg := tinyPipeline(22)
	model, _ := cfg.Build(d.Schema)
	var empty dataset.Split
	if res := EvalZSC(model, d, empty); res != (ZSCResult{}) {
		t.Fatalf("EvalZSC on empty split = %+v, want zeros", res)
	}
}

// TestQuantizedEvalWithinHalfPoint pins the accuracy contract of the
// quantized compiled path on the evaluation harnesses behind the
// paper's tables: with the int8 plan installed (CompiledInt8, scales
// calibrated on a training batch), seeded ZSC top-1/top-5 stay within
// 0.5 accuracy points of the f32 compiled readout. Every quantity here is deterministic — seeded
// training, bitwise-deterministic f32 and int8 plans — so the deltas
// are exact, not flaky margins.
func TestQuantizedEvalWithinHalfPoint(t *testing.T) {
	// Enough images per class that half a point is a meaningful budget:
	// 4 test classes × 18 = 72 unseen instances.
	dcfg := dataset.DefaultConfig()
	dcfg.NumClasses = 12
	dcfg.ImagesPerClass = 18
	dcfg.Height, dcfg.Width = 12, 12
	dcfg.AttrNoise = 0.02
	dcfg.PixelNoise = 0.02
	dcfg.Seed = 33
	d := dataset.Generate(dcfg)
	split := d.ZSSplit(rand.New(rand.NewSource(83)), 2.0/3)
	// Train to real margins: a barely-above-chance model puts most eval
	// samples on a knife edge where any rounding flips the argmax; the
	// 0.5 pt budget is a statement about a converged model.
	cfg := tinyPipeline(33)
	cfg.ProjDim = 96
	cfg.PhaseII.Epochs = 8
	cfg.PhaseIII.Epochs = 10
	model, _ := cfg.Run(d, split, nil)

	zF := EvalZSC(model, d, split)

	// Calibrate on a training batch at the serving geometry and install
	// the quantized plan; the evaluation readout switches to int8.
	// 64 calibration samples: activation ranges tighten noticeably
	// between 32 and 64 samples on this workload (a 32-sample batch
	// under-covers the late-layer ranges and costs an argmax flip).
	calib := d.MakeBatch(split.Train[:64], dataset.ClassIndexMap(split.TrainClasses), nil, nil)
	q, err := model.Image.CompiledInt8(calib.Images)
	if err != nil {
		t.Fatal(err)
	}
	if model.Image.EvalNet() != q {
		t.Fatal("CompiledInt8 did not switch the evaluation readout")
	}
	zQ := EvalZSC(model, d, split)

	pts := func(name string, f32, int8 float64) {
		if d := math.Abs(f32-int8) * 100; d > 0.5 {
			t.Errorf("%s: int8 %.4f vs f32 %.4f — delta %.2f pt exceeds 0.5", name, int8, f32, d)
		}
	}
	pts("ZSC top-1", zF.Top1, zQ.Top1)
	pts("ZSC top-5", zF.Top5, zQ.Top5)
}

// TestEvalDeterministicAcrossGOMAXPROCS pins the evaluation readout —
// one EmbedInstances pass, then one engine query over every test
// instance — to the serial readout it replaces (plan.Infer per
// 32-instance batch in order, one query per batch, hits counted), for
// the float, binary and noisy-crossbar engines, and checks that seeded
// accuracies are byte-identical at any core count. The crossbar draws
// read noise one probe row at a time in row order, so a single query in
// instance order must draw exactly what the in-order batches drew.
func TestEvalDeterministicAcrossGOMAXPROCS(t *testing.T) {
	// Enough images per class that the evaluated population spans
	// several embedding batches (batchSize 32): 4 test classes × 18 = 72
	// test instances → 3 batches, the last one ragged.
	dcfg := dataset.DefaultConfig()
	dcfg.NumClasses = 12
	dcfg.ImagesPerClass = 18
	dcfg.Height, dcfg.Width = 12, 12
	dcfg.Seed = 31
	d := dataset.Generate(dcfg)
	split := d.ZSSplit(rand.New(rand.NewSource(81)), 2.0/3)
	cfg := tinyPipeline(31)
	model, _ := cfg.Build(d.Schema)

	phi := ClassEmbeddings(model, d, split.TestClasses)
	labels := ClassLabels(d, split.TestClasses)
	engines := []struct {
		name string
		eng  func() *infer.Engine
	}{
		{"float", func() *infer.Engine { return inferEngine(model, d, split.TestClasses) }},
		{"binary", func() *infer.Engine {
			im := hdc.NewItemMemory(phi.Dim(1))
			for i, v := range infer.PackSign(phi) {
				im.Store(labels[i], v)
			}
			return infer.New(infer.NewBinaryBackend(im))
		}},
		{"imc", func() *infer.Engine {
			be := infer.NewCrossbarBackend(phi, labels, model.Kernel.Temperature(), imc.TypicalPCM())
			// Pin the tile layout so analog noise draws don't depend on the
			// host's core count (same rationale as cmd/hdczsc).
			return infer.New(be, infer.WithWorkers(2))
		}},
	}

	serial := func(eng *infer.Engine) ZSCResult {
		labelOf := dataset.ClassIndexMap(split.TestClasses)
		k := min(5, len(split.TestClasses))
		plan := model.Image.EvalNet()
		sc := nn.NewScratch()
		var hit1, hitK int
		for at := 0; at < len(split.Test); at += 32 {
			sc.Reset()
			batch := d.MakeBatch(split.Test[at:min(at+32, len(split.Test))], labelOf, nil, nil)
			for i, r := range eng.Query(infer.DenseBatch(plan.Infer(batch.Images, sc)), k) {
				if r.TopK[0].Class == batch.Labels[i] {
					hit1++
				}
				for _, h := range r.TopK {
					if h.Class == batch.Labels[i] {
						hitK++
						break
					}
				}
			}
		}
		n := float64(len(split.Test))
		return ZSCResult{Top1: float64(hit1) / n, Top5: float64(hitK) / n}
	}

	for _, e := range engines {
		want := serial(e.eng())
		for _, procs := range []int{1, 2, 4} {
			old := runtime.GOMAXPROCS(procs)
			got := EvalZSCWithEngine(model, d, split, e.eng())
			runtime.GOMAXPROCS(old)
			if got != want {
				t.Fatalf("%s: GOMAXPROCS=%d gives %+v, serial per-batch readout %+v", e.name, procs, got, want)
			}
		}
	}
	old := runtime.GOMAXPROCS(1)
	zsc := EvalZSC(model, d, split)
	runtime.GOMAXPROCS(old)
	if want := serial(engines[0].eng()); zsc != want {
		t.Fatalf("EvalZSC = %+v, serial float readout %+v", zsc, want)
	}
}

// TestEmbedInstances pins the frozen-feature pass to the compiled plan:
// its rows are bitwise equal to embedding each batch of 32 serially
// through plan.Infer, its labels are MakeBatch's, and neither depends on
// the core count the batches fan out over. n = 70 spans three batches
// (the last one ragged); n = 5 is a single partial batch.
func TestEmbedInstances(t *testing.T) {
	d, _ := tinyData(21)
	model, _ := tinyPipeline(21).Build(d.Schema)
	plan := model.Image.Compiled()
	all := make([]int, d.NumInstances())
	for i := range all {
		all[i] = i
	}
	labelOf := dataset.ClassIndexMap(all[:d.Cfg.NumClasses])

	for _, n := range []int{70, 5} {
		ids := all[len(all)-n:]
		var want []float32
		var wantLabels []int
		sc := nn.NewScratch()
		for at := 0; at < n; at += 32 {
			sc.Reset()
			batch := d.MakeBatch(ids[at:min(at+32, n)], labelOf, nil, nil)
			want = append(want, plan.Infer(batch.Images, sc).Data...)
			wantLabels = append(wantLabels, batch.Labels...)
		}
		for _, procs := range []int{1, 4} {
			old := runtime.GOMAXPROCS(procs)
			feats, labels := EmbedInstances(plan, d, ids, labelOf)
			runtime.GOMAXPROCS(old)
			if feats.Dim(0) != n || feats.Dim(1) != model.Image.OutDim() {
				t.Fatalf("n=%d GOMAXPROCS=%d: feats shape %v", n, procs, feats.Shape())
			}
			for i, v := range want {
				if math.Float32bits(feats.Data[i]) != math.Float32bits(v) {
					t.Fatalf("n=%d GOMAXPROCS=%d: element %d = %v, plan.Infer gives %v", n, procs, i, feats.Data[i], v)
				}
			}
			for i, l := range wantLabels {
				if labels[i] != l {
					t.Fatalf("n=%d GOMAXPROCS=%d: label %d = %d, MakeBatch gives %d", n, procs, i, labels[i], l)
				}
			}
		}
	}
}

// TestTrainZSCKeepsBackboneFrozen guards the premise of phase III's
// feature cache: TrainZSC with a projection leaves every backbone
// parameter at its version and every batch-norm running statistic
// (the tensors BatchNorm2D.StatsFingerprint hashes) bit for bit.
func TestTrainZSCKeepsBackboneFrozen(t *testing.T) {
	d, split := tinyData(22)
	cfg := tinyPipeline(22)
	model, _ := cfg.Build(d.Schema)
	bb := model.Image.Backbone
	var versions []uint64
	for _, p := range bb.Params() {
		versions = append(versions, p.Version())
	}
	var stats []*tensor.Tensor
	for _, s := range bb.State() {
		stats = append(stats, s.Clone())
	}
	cfg3 := cfg.PhaseIII
	cfg3.Epochs = 2
	TrainZSC(model, d, split, cfg3)
	for i, p := range bb.Params() {
		if p.Version() != versions[i] {
			t.Fatalf("backbone param %s moved from version %d to %d", p.Name, versions[i], p.Version())
		}
	}
	for i, s := range bb.State() {
		for j, v := range s.Data {
			if math.Float32bits(v) != math.Float32bits(stats[i].Data[j]) {
				t.Fatalf("backbone running statistic %d changed at element %d", i, j)
			}
		}
	}
}
