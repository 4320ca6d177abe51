package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/hdc"
	"repro/internal/infer"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// The train_eval geometry: a laptop-scale SynthCUB with the paper's
// 75/25 zero-shot class split, and the pipeline configuration the paper
// lands on (ResNet50 topology + FC projection, HDC attribute encoder).
const (
	paperClasses   = 40
	paperPerClass  = 30
	paperImg       = 32
	paperWidth     = 8
	paperEvalBatch = 32 // core's evaluation embedding batch
	// trainEpochs is one core.TrainZSC call's epoch count and
	// trainCallsAt26 the number of calls a 26-second run makes: fixed
	// work, sized on the seed commit to about 0.3 of the run, so the
	// trained weights — and with them every accuracy the run prints —
	// depend on the seed alone, not on how fast the box is.
	trainEpochs    = 3
	trainCallsAt26 = 5
	// int8Tolerance is how far the int8 plan's Top-1 may sit from the f32
	// plan's through the same engine. One point does not hold on the seed
	// commit: phase III alone leaves the unseen-class accuracy near chance,
	// where quantization flips up to 2 pt of 300 test images either way
	// (and on a seen-class split, where the model does learn, int8 costs
	// 1.5–6.5 pt). The check catches a broken plan, not a rounding change.
	int8Tolerance = 0.05
)

// paperModel is the in-process HDC-ZSC pipeline of the train_eval
// workload and of the ledger's core/nn/attrenc probes.
type paperModel struct {
	data  *dataset.SynthCUB
	split dataset.Split
	cfg   core.PipelineConfig
	model *core.Model
}

// buildPaperModel generates the dataset from the workload seed and
// builds and compiles the (untrained) model; withInt8 additionally
// calibrates and installs the int8 plan, which switches evaluation to
// it for good.
func buildPaperModel(seed int64, withInt8 bool) (*paperModel, error) {
	dcfg := dataset.DefaultConfig()
	dcfg.NumClasses, dcfg.ImagesPerClass = paperClasses, paperPerClass
	dcfg.Height, dcfg.Width = paperImg, paperImg
	dcfg.Seed = seed
	pm := &paperModel{data: dataset.Generate(dcfg), cfg: core.DefaultPipelineConfig()}
	pm.split = pm.data.ZSSplit(rand.New(rand.NewSource(seed)), 0.75)
	pm.cfg.Seed = serverSeed
	pm.cfg.Backbone = nn.MicroResNet50Config(paperWidth)
	pm.cfg.PhaseIII.Epochs = trainEpochs
	pm.model, _ = pm.cfg.Build(pm.data.Schema)
	if err := pm.model.Image.Compiled().Precompile(3, paperImg, paperImg); err != nil {
		return nil, err
	}
	if withInt8 {
		if err := pm.installInt8(); err != nil {
			return nil, err
		}
	}
	return pm, nil
}

// installInt8 calibrates the quantized plan on the first evaluation
// batch of training images.
func (pm *paperModel) installInt8() error {
	ids := pm.split.Train[:paperEvalBatch]
	calib := pm.data.MakeBatch(ids, dataset.ClassIndexMap(pm.split.TrainClasses), nil, nil).Images
	_, err := pm.model.Image.CompiledInt8(calib)
	return err
}

// binaryEngine is the paper's edge readout over the unseen classes: the
// frozen attribute embeddings sign-packed into an item memory.
func (pm *paperModel) binaryEngine() *infer.Engine {
	phi := core.ClassEmbeddings(pm.model, pm.data, pm.split.TestClasses)
	labels := core.ClassLabels(pm.data, pm.split.TestClasses)
	im := hdc.NewItemMemory(phi.Dim(1))
	for i, v := range infer.PackSign(phi) {
		im.Store(labels[i], v)
	}
	return infer.New(infer.NewBinaryBackend(im))
}

// untilElapsed calls fn until d has passed (at least once) and returns
// each call's duration.
func untilElapsed(d time.Duration, fn func()) []time.Duration {
	var out []time.Duration
	for start := time.Now(); len(out) == 0 || time.Since(start) < d; {
		t := time.Now()
		fn()
		out = append(out, time.Since(t))
	}
	return out
}

// medianRate is the median of work/duration over the calls, per second.
func medianRate(work int, calls []time.Duration) float64 {
	rates := make([]float64, len(calls))
	for i, d := range calls {
		rates[i] = float64(work) / d.Seconds()
	}
	return median(rates)
}

// runTrainEval is the paper's own path, in-process, no sockets: build,
// train (phase III), evaluate through the f32 plan and float engine,
// then through the int8 plan and binary engine, then classify single
// images the way an edge device would.
func runTrainEval(w workload, o options) (*report, error) {
	rep := &report{metrics: map[string]metric{}}
	frac := func(f float64) time.Duration { return time.Duration(f * o.seconds * float64(time.Second)) }

	// Set-up, several times over, on throwaway models: dataset, model
	// build, f32 compile, int8 calibration.
	var setups []float64
	for range o.setups(w) {
		t := time.Now()
		if _, err := buildPaperModel(o.seed, true); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	pm, err := buildPaperModel(o.seed, false)
	if err != nil {
		return nil, err
	}

	// Train: a fixed number of phase-III calls.
	calls := max(1, int(math.Round(trainCallsAt26*o.seconds/26)))
	var trainCalls []time.Duration
	for range calls {
		t := time.Now()
		core.TrainZSC(pm.model, pm.data, pm.split, pm.cfg.PhaseIII)
		trainCalls = append(trainCalls, time.Since(t))
	}
	rep.attempted += calls

	// Evaluate, f32 plan + float engine. Every repeat must agree.
	var f32 core.ZSCResult
	evalF32 := untilElapsed(frac(0.25), func() {
		r := core.EvalZSC(pm.model, pm.data, pm.split)
		if f32 != (core.ZSCResult{}) && r != f32 {
			rep.failures = append(rep.failures, fmt.Sprintf("f32 evaluation repeat disagrees: %+v then %+v", f32, r))
		}
		f32 = r
	})
	rep.attempted += len(evalF32)

	// Evaluate, int8 plan + binary engine.
	if err := pm.installInt8(); err != nil {
		return nil, err
	}
	// The quantization check holds the readout fixed: int8 plan against
	// f32 plan, both through the float engine.
	if q := core.EvalZSC(pm.model, pm.data, pm.split); math.Abs(q.Top1-f32.Top1) > int8Tolerance {
		rep.failures = append(rep.failures, fmt.Sprintf("int8 Top-1 %.4f is more than %.0f pt from f32 Top-1 %.4f", q.Top1, int8Tolerance*100, f32.Top1))
	}
	eng := pm.binaryEngine()
	var i8 core.ZSCResult
	evalI8 := untilElapsed(frac(0.25), func() {
		r := core.EvalZSCWithEngine(pm.model, pm.data, pm.split, eng)
		if i8 != (core.ZSCResult{}) && r != i8 {
			rep.failures = append(rep.failures, fmt.Sprintf("int8 evaluation repeat disagrees: %+v then %+v", i8, r))
		}
		i8 = r
	})
	rep.attempted += len(evalI8)

	// Single images through the edge path, one caller: the in-process
	// counterpart of the serving workloads' request metrics. Each answer
	// must equal the batched evaluation's for the same image.
	plan := pm.model.Image.EvalNet()
	wantTop := pm.batchedTop1(plan, eng)
	sc := nn.NewScratch()
	var rb infer.ResultBuf
	var single []time.Duration
	cpu0, err := procCPUSeconds(os.Getpid())
	if err != nil {
		return nil, err
	}
	loopStart := time.Now()
	for n := 0; time.Since(loopStart) < frac(0.20); n++ {
		at := n % len(pm.split.Test)
		img := pm.data.Instances[pm.split.Test[at]].Image
		t := time.Now()
		sc.Reset()
		emb := plan.Infer(tensor.FromSlice(img.Data, 1, 3, paperImg, paperImg), sc)
		got := eng.QueryInto(infer.DenseBatch(emb), topK, &rb)[0].TopK[0].Class
		single = append(single, time.Since(t))
		if got != wantTop[at] {
			rep.failures = append(rep.failures, fmt.Sprintf("single-image answer for test image %d is class %d, batched evaluation says %d", at, got, wantTop[at]))
		}
	}
	loopTook := time.Since(loopStart)
	cpu1, err := procCPUSeconds(os.Getpid())
	if err != nil {
		return nil, err
	}
	rep.attempted += len(single)

	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}
	lat := durationsMS(single)
	rep.set("setup_s", median(setups), "s")
	rep.set("train_img_per_s", medianRate(len(pm.split.Train)*trainEpochs, trainCalls), "img/s")
	rep.set("eval_img_per_s", medianRate(len(pm.split.Test), evalF32), "img/s")
	rep.set("eval_int8_img_per_s", medianRate(len(pm.split.Test), evalI8), "img/s")
	rep.set("req_p50_ms", percentile(lat, 0.50), "ms")
	rep.set("closed_rps", float64(len(single))/loopTook.Seconds(), "req/s")
	rep.set("rss_mb", rss, "MB")

	rep.infof("%d train classes / %d unseen, %d train images / %d test, %dx%d px", len(pm.split.TrainClasses),
		len(pm.split.TestClasses), len(pm.split.Train), len(pm.split.Test), paperImg, paperImg)
	rep.infof("train: %d TrainZSC calls of %d epochs; eval f32: %d passes; eval int8: %d passes", calls, trainEpochs, len(evalF32), len(evalI8))
	rep.infof("f32 Top-1 %.4f Top-5 %.4f; int8+binary Top-1 %.4f Top-5 %.4f", f32.Top1, f32.Top5, i8.Top1, i8.Top5)
	rep.infof("req_p99_ms      %10.4f ms   (%d single-image samples, %d beyond p99)", percentile(lat, 0.99), len(lat), beyond(len(lat), 0.99))
	rep.infof("cpu_ms_per_req  %10.4f ms   (own-process CPU per single image)", (cpu1-cpu0)*1000/float64(len(single)))
	rep.infof("setup_s samples: %.3f", setups)
	return rep, nil
}

// batchedTop1 is the reference for the single-image phase: every test
// image's top class when embedded in evaluation batches.
func (pm *paperModel) batchedTop1(plan *nn.CompiledNet, eng *infer.Engine) []int {
	out := make([]int, 0, len(pm.split.Test))
	labelOf := dataset.ClassIndexMap(pm.split.TestClasses)
	sc := nn.NewScratch()
	for at := 0; at < len(pm.split.Test); at += paperEvalBatch {
		end := min(at+paperEvalBatch, len(pm.split.Test))
		sc.Reset()
		emb := plan.Infer(pm.data.MakeBatch(pm.split.Test[at:end], labelOf, nil, nil).Images, sc)
		for _, r := range eng.Query(infer.DenseBatch(emb), 1) {
			out = append(out, r.TopK[0].Class)
		}
	}
	return out
}
