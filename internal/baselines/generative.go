package baselines

import (
	"math/rand"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// FeatGenConfig parameterizes the simplified generative ZSL pipeline that
// stands in for the GAN-based models of Fig. 4 (f-CLSWGAN, f-VAEGAN-D2,
// cycle-CLSWGAN, LisGAN, TF-VAEGAN, Composer). The original models learn
// a conditional feature generator adversarially; the reproduction keeps
// the pipeline structure — synthesize features for unseen classes from
// their attributes, then train a classifier on real+synthetic features —
// but trains the generator by conditional feature regression with noise
// injection instead of a WGAN objective. The capacity knobs (hidden
// widths, generated samples per class) let the harness instantiate
// variants whose parameter-count ratios to HDC-ZSC match the published
// models' (1.75×–2.58×), which is the quantity Fig. 4 plots.
type FeatGenConfig struct {
	// Name labels the variant in Fig. 4 ("f-CLSWGAN", …).
	Name string
	// NoiseDim is the generator's latent noise dimension.
	NoiseDim int
	// HiddenGen and HiddenCls are the generator/classifier hidden widths.
	HiddenGen, HiddenCls int
	// PerClass is the number of synthetic features per unseen class.
	PerClass int
	// GenEpochs and ClsEpochs control the two training stages.
	GenEpochs, ClsEpochs int
	// LR is shared by both stages (AdamW).
	LR   float32
	Seed int64
}

// DefaultFeatGenConfig returns a mid-sized generative configuration.
func DefaultFeatGenConfig() FeatGenConfig {
	return FeatGenConfig{
		Name: "FeatGen", NoiseDim: 16, HiddenGen: 256, HiddenCls: 128,
		PerClass: 30, GenEpochs: 60, ClsEpochs: 60, LR: 2e-3, Seed: 1,
	}
}

// FeatGenResult is the zero-shot evaluation of a generative variant.
type FeatGenResult struct {
	Name       string
	Top1, Top5 float64
	ParamCount int
}

// RunFeatGen executes the generative pipeline on frozen features from
// img: train the conditional generator on seen-class features, synthesize
// unseen-class features from their attribute vectors, train a softmax
// classifier over all classes on real+synthetic features, and evaluate
// on the real unseen-class test instances (argmax restricted to unseen
// classes, the standard ZSL protocol).
func RunFeatGen(img *core.ImageEncoder, d *dataset.SynthCUB, split dataset.Split, cfg FeatGenConfig) FeatGenResult {
	rng := rand.New(rand.NewSource(cfg.Seed + 17))
	feats, labels := core.EmbedInstances(img.Compiled(), d, split.Train, dataset.ClassIndexMap(split.TrainClasses))
	f := feats.Dim(1)
	alpha := d.Schema.Alpha()
	trainAttr := d.ClassAttrRows(split.TrainClasses)
	testAttr := d.ClassAttrRows(split.TestClasses)

	// --- Stage 1: conditional generator [attr ⊕ z] → feature. ---
	gen := nn.NewSequential(
		nn.NewLinear(rng, cfg.Name+".gen1", alpha+cfg.NoiseDim, cfg.HiddenGen, true),
		nn.NewReLU(),
		nn.NewLinear(rng, cfg.Name+".gen2", cfg.HiddenGen, f, true),
	)
	genParams := gen.Params()
	// Both stages train at a constant learning rate: LRMin = LR pins the
	// cosine schedule to LR, and nothing is clipped.
	fit := core.TrainConfig{Epochs: cfg.GenEpochs, LR: cfg.LR, LRMin: cfg.LR, WeightDecay: 1e-4}
	n := feats.Dim(0)
	order := rng.Perm(n)
	const batch = 16
	core.Fit(genParams, fit, (n+batch-1)/batch, nil, func(b int) float64 {
		if b == 0 {
			rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		}
		ids := order[b*batch : min(b*batch+batch, n)]
		in := tensor.New(len(ids), alpha+cfg.NoiseDim)
		target := tensor.New(len(ids), f)
		for i, id := range ids {
			copy(in.Row(i)[:alpha], trainAttr.Row(labels[id]))
			for z := 0; z < cfg.NoiseDim; z++ {
				in.Row(i)[alpha+z] = float32(rng.NormFloat64())
			}
			copy(target.Row(i), feats.Row(id))
		}
		_, dout := nn.MSE(gen.Forward(in, true), target)
		gen.Backward(dout)
		return 0
	})

	// --- Stage 2: synthesize unseen-class features. ---
	cTr, cTe := len(split.TrainClasses), len(split.TestClasses)
	synthN := cTe * cfg.PerClass
	synthIn := tensor.New(synthN, alpha+cfg.NoiseDim)
	synthLabels := make([]int, synthN)
	for i := range synthLabels {
		c := i / cfg.PerClass
		copy(synthIn.Row(i)[:alpha], testAttr.Row(c))
		for z := 0; z < cfg.NoiseDim; z++ {
			synthIn.Row(i)[alpha+z] = float32(rng.NormFloat64())
		}
		synthLabels[i] = cTr + c // unseen classes follow seen ones
	}
	synthFeats := gen.Forward(synthIn, false)

	// --- Stage 3: classifier over all classes on real ∪ synthetic. ---
	cls := nn.NewSequential(
		nn.NewLinear(rng, cfg.Name+".cls1", f, cfg.HiddenCls, true),
		nn.NewReLU(),
		nn.NewLinear(rng, cfg.Name+".cls2", cfg.HiddenCls, cTr+cTe, true),
	)
	clsParams := cls.Params()
	total := n + synthN
	allOrder := rng.Perm(total)
	rowOf := func(i int) ([]float32, int) {
		if i < n {
			return feats.Row(i), labels[i]
		}
		return synthFeats.Row(i - n), synthLabels[i-n]
	}
	fit.Epochs = cfg.ClsEpochs
	core.Fit(clsParams, fit, (total+batch-1)/batch, nil, func(b int) float64 {
		if b == 0 {
			rng.Shuffle(len(allOrder), func(i, j int) { allOrder[i], allOrder[j] = allOrder[j], allOrder[i] })
		}
		ids := allOrder[b*batch : min(b*batch+batch, total)]
		in := tensor.New(len(ids), f)
		ls := make([]int, len(ids))
		for i, id := range ids {
			row, l := rowOf(id)
			copy(in.Row(i), row)
			ls[i] = l
		}
		_, dl := nn.SoftmaxCrossEntropy(cls.Forward(in, true), ls)
		cls.Backward(dl)
		return 0
	})

	// --- Evaluate on real unseen-class instances. ---
	testFeats, testLabels := core.EmbedInstances(img.Compiled(), d, split.Test, dataset.ClassIndexMap(split.TestClasses))
	logits := cls.Forward(testFeats, false)
	// Restrict the argmax to the unseen-class block.
	scores := tensor.New(testFeats.Dim(0), cTe)
	for i := 0; i < scores.Dim(0); i++ {
		copy(scores.Row(i), logits.Row(i)[cTr:])
	}
	k := 5
	if cTe < k {
		k = cTe
	}
	return FeatGenResult{
		Name: cfg.Name,
		Top1: metrics.Top1Accuracy(scores, testLabels),
		Top5: metrics.TopKAccuracy(scores, testLabels, k),
		ParamCount: nn.CountParams(genParams) + nn.CountParams(clsParams) +
			nn.CountParams(img.Params()),
	}
}
