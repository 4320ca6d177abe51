package core

import (
	"fmt"
	"math/rand"

	"repro/internal/attrenc"
	"repro/internal/dataset"
	"repro/internal/nn"
)

// PipelineConfig describes a complete HDC-ZSC instantiation and training
// recipe: the image-encoder variant (Table II rows), the attribute
// encoder ("HDC" or "MLP"), and the per-phase hyperparameters.
type PipelineConfig struct {
	// Backbone selects the ResNet variant.
	Backbone nn.ResNetConfig
	// ProjDim is the FC projection output d; 0 omits the projection
	// (embedding dimension becomes the backbone's d′, and pre-training
	// stage II is skipped per Table II's caption).
	ProjDim int
	// Encoder selects the attribute encoder: "HDC" (the contribution) or
	// "MLP" (the trainable reference).
	Encoder string
	// MLPHidden is the hidden width of the MLP encoder variant.
	MLPHidden int
	// PhaseI/II/III are the per-phase training configurations.
	PhaseI, PhaseII, PhaseIII TrainConfig
	// Seed drives model initialization and codebook generation.
	Seed int64
}

// DefaultPipelineConfig returns the preferred configuration the paper
// lands on (ResNet50 + FC projection, HDC encoder) at laptop scale.
func DefaultPipelineConfig() PipelineConfig {
	p2 := DefaultTrainConfig()
	p3 := DefaultTrainConfig()
	p1 := DefaultTrainConfig()
	p1.Epochs = 4
	return PipelineConfig{
		Backbone:  nn.MicroResNet50Config(6),
		ProjDim:   64,
		Encoder:   "HDC",
		MLPHidden: 48,
		PhaseI:    p1,
		PhaseII:   p2,
		PhaseIII:  p3,
		Seed:      1,
	}
}

// EmbedDim returns the ZSC embedding dimension d the config produces.
func (c PipelineConfig) EmbedDim() int {
	if c.ProjDim > 0 {
		return c.ProjDim
	}
	return c.Backbone.OutDim()
}

// Build instantiates the model (image encoder, attribute encoder, kernel)
// without training it. It returns the model and, when the HDC encoder is
// selected or needed for phase II, the HDC encoder instance.
func (c PipelineConfig) Build(schema *dataset.Schema) (*Model, *attrenc.HDCEncoder) {
	rng := rand.New(rand.NewSource(c.Seed))
	img := NewImageEncoder(rng, c.Backbone, c.ProjDim)
	d := c.EmbedDim()
	// The HDC dictionary is always built: phase II scores images against
	// it even when phase III uses the MLP encoder.
	hdcEnc := attrenc.NewHDCEncoder(rand.New(rand.NewSource(c.Seed+100)), schema, d)
	var enc AttributeEncoder
	switch c.Encoder {
	case "HDC", "":
		enc = hdcEnc
	case "MLP":
		enc = attrenc.NewMLPEncoder(rng, schema.Alpha(), c.MLPHidden, d)
	default:
		panic(fmt.Sprintf("core.PipelineConfig: unknown encoder %q", c.Encoder))
	}
	temp := c.PhaseIII.TempScale
	if temp <= 0 {
		temp = c.PhaseII.TempScale
	}
	if temp <= 0 {
		temp = DefaultTrainConfig().TempScale
	}
	kernel := NewSimilarityKernel(temp)
	return NewModel(img, enc, kernel), hdcEnc
}

// PipelineResult summarizes one full training run.
type PipelineResult struct {
	PhaseIAccuracy float64 // final pre-training accuracy (0 when skipped)
	PhaseIILoss    float32
	PhaseIIILoss   float32
	Eval           ZSCResult
	ParamCount     int
}

// Run executes the full three-phase methodology on the given data and
// split: phase I on pretrain (skipped when pretrain is nil), phase II
// attribute extraction, phase III ZSC fine-tuning, then zero-shot
// evaluation on the split's unseen test classes.
func (c PipelineConfig) Run(d *dataset.SynthCUB, split dataset.Split, pretrain *dataset.SynthImageNet) (*Model, PipelineResult) {
	model, hdcEnc := c.Build(d.Schema)
	var res PipelineResult
	if pretrain != nil {
		res.PhaseIAccuracy = PretrainClassification(model.Image, pretrain, c.PhaseI)
	}
	// Phase II needs the FC projection; without it the paper skips stage II
	// (Table II caption).
	if model.Image.Proj != nil {
		res.PhaseIILoss = TrainAttributeExtraction(
			model.Image, model.Kernel, hdcEnc.Dictionary(), d, split, c.PhaseII)
	}
	res.PhaseIIILoss = TrainZSC(model, d, split, c.PhaseIII)
	res.Eval = EvalZSC(model, d, split)
	res.ParamCount = model.ParamCount()
	return model, res
}
