package baselines

import (
	"math/rand"

	"repro/internal/attrenc"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/nn"
)

// TCNConfig parameterizes the TCN-like contrastive baseline [17]: a
// transferable contrastive network that learns image and attribute
// projections jointly with a batch-contrastive objective. The
// reproduction realizes it as the HDC-ZSC architecture with a *trainable*
// MLP attribute encoder and without the attribute-extraction phase — the
// contrastive phase-III objective (cross entropy over cosine similarities
// within the class set) is exactly a one-sided InfoNCE loss. The wider
// MLP gives it the larger parameter footprint the paper reports (1.85×
// HDC-ZSC).
type TCNConfig struct {
	Backbone  nn.ResNetConfig
	EmbedDim  int
	MLPHidden int
	Train     core.TrainConfig
	Seed      int64
}

// TCNResult is the evaluation of the TCN-like baseline.
type TCNResult struct {
	Top1, Top5 float64
	ParamCount int
}

// RunTCN trains the contrastive baseline end-to-end (backbone unfrozen —
// unlike HDC-ZSC it has no maturation phases to preserve) and evaluates
// zero-shot on the split's unseen classes.
func RunTCN(d *dataset.SynthCUB, split dataset.Split, cfg TCNConfig) TCNResult {
	rng := rand.New(rand.NewSource(cfg.Seed))
	img := core.NewImageEncoder(rng, cfg.Backbone, cfg.EmbedDim)
	enc := attrenc.NewMLPEncoder(rng, d.Schema.Alpha(), cfg.MLPHidden, cfg.EmbedDim)
	model := core.NewModel(img, enc, core.NewSimilarityKernel(cfg.Train.TempScale))

	// Contrastive training over training classes: reuse the phase-III
	// trainer but with the backbone trainable (freeze/unfreeze is a no-op
	// here because TrainZSC freezes it; emulate end-to-end training by a
	// preliminary attribute-free warm-up of the backbone through the same
	// objective with the backbone unfrozen).
	tc := cfg.Train
	tc.Seed = cfg.Seed
	trainContrastive(model, d, split, tc)

	eval := core.EvalZSC(model, d, split)
	return TCNResult{Top1: eval.Top1, Top5: eval.Top5, ParamCount: model.ParamCount()}
}

// trainContrastive optimizes all model parameters (backbone included)
// under the batch-contrastive similarity objective.
func trainContrastive(m *core.Model, d *dataset.SynthCUB, split dataset.Split, cfg core.TrainConfig) {
	it := dataset.NewBatchIterator(d, split.Train, split.TrainClasses, cfg.Batch, nil,
		rand.New(rand.NewSource(cfg.Seed+23)))
	trainAttr := d.ClassAttrRows(split.TrainClasses)
	core.Fit(m.Params(), cfg, it.BatchesPerEpoch(), m.Kernel, func(int) float64 {
		batch := it.Next()
		_, dl := nn.SoftmaxCrossEntropy(m.Logits(batch.Images, trainAttr, true), batch.Labels)
		m.Backward(dl)
		return 0
	})
}
