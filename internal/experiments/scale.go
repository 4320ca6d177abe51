// Package experiments contains one runner per table and figure of the
// paper's evaluation (§IV): Table I (attribute extraction vs Finetag-like
// and A3M-like), Table II (image/attribute encoder ablation), Fig. 4
// (accuracy vs parameter-count Pareto plot), Fig. 5 (hyperparameter
// sweeps on the validation split), and the §III-A memory accounting.
// Each runner returns a structured result with Format() (aligned text
// matching the paper's layout) and CSV() emitters.
package experiments

import (
	"math/rand"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/nn"
)

// Scale fixes the laptop-scale workload for an experiment run. Quick is
// sized for the bench harness (every bench finishes in tens of seconds);
// Full is the configuration behind the committed EXPERIMENTS.md numbers.
type Scale struct {
	Name           string
	Classes        int
	PerClass       int
	ImgSize        int
	AttrNoise      float64
	Seeds          []int64
	Width          int // backbone base width
	ProjDim        int // preferred FC projection d
	PhaseIEpochs   int
	PhaseIIEpochs  int
	PhaseIIIEpochs int
	// PretrainClasses/PerClass size the SynthImageNet phase-I dataset.
	PretrainClasses, PretrainPerClass int
}

// QuickScale returns the bench-harness workload.
func QuickScale() Scale {
	return Scale{
		Name: "quick", Classes: 16, PerClass: 8, ImgSize: 16, AttrNoise: 0.25,
		Seeds: []int64{1}, Width: 4, ProjDim: 192,
		PhaseIEpochs: 2, PhaseIIEpochs: 8, PhaseIIIEpochs: 8,
		PretrainClasses: 6, PretrainPerClass: 8,
	}
}

// FullScale returns the committed-results workload (see EXPERIMENTS.md).
func FullScale() Scale {
	return Scale{
		Name: "full", Classes: 30, PerClass: 14, ImgSize: 24, AttrNoise: 0.25,
		Seeds: []int64{1, 2}, Width: 6, ProjDim: 768,
		PhaseIEpochs: 3, PhaseIIEpochs: 20, PhaseIIIEpochs: 12,
		PretrainClasses: 10, PretrainPerClass: 12,
	}
}

// Dataset builds the SynthCUB dataset for this scale and seed.
func (sc Scale) Dataset(seed int64) *dataset.SynthCUB {
	cfg := dataset.DefaultConfig()
	cfg.NumClasses = sc.Classes
	cfg.ImagesPerClass = sc.PerClass
	cfg.Height, cfg.Width = sc.ImgSize, sc.ImgSize
	cfg.AttrNoise = sc.AttrNoise
	cfg.PixelNoise = 0.03
	cfg.Seed = seed
	return dataset.Generate(cfg)
}

// Pretrain builds the SynthImageNet phase-I dataset.
func (sc Scale) Pretrain(seed int64) *dataset.SynthImageNet {
	return dataset.GenerateImageNet(sc.PretrainClasses, sc.PretrainPerClass,
		sc.ImgSize, sc.ImgSize, seed+5000)
}

// Backbone returns the preferred (ResNet50-topology) backbone config.
func (sc Scale) Backbone() nn.ResNetConfig {
	return nn.MicroResNet50Config(sc.Width).WithFlatten(sc.ImgSize, sc.ImgSize)
}

// Backbone101 returns the deeper ResNet101-topology variant of Table II.
func (sc Scale) Backbone101() nn.ResNetConfig {
	return nn.MicroResNet101Config(sc.Width).WithFlatten(sc.ImgSize, sc.ImgSize)
}

// BaselineBackbone returns the heavier image encoder the published
// baselines of Fig. 4 carry. ESZSL and the generative family are built
// on larger encoders than the paper's ResNet50 — that is precisely why
// their Fig. 4 parameter counts exceed HDC-ZSC's — so the reproduction
// gives them the ResNet101-topology backbone at increased width. (TCN
// keeps the pipeline's backbone; its wider trainable attribute MLP is
// what makes it larger.)
func (sc Scale) BaselineBackbone() nn.ResNetConfig {
	return nn.MicroResNet101Config(sc.Width+2).WithFlatten(sc.ImgSize, sc.ImgSize)
}

// Pipeline returns the preferred HDC-ZSC pipeline config for this scale.
func (sc Scale) Pipeline(seed int64) core.PipelineConfig {
	cfg := core.DefaultPipelineConfig()
	cfg.Backbone = sc.Backbone()
	cfg.ProjDim = sc.ProjDim
	cfg.Seed = seed
	cfg.PhaseI.Epochs = sc.PhaseIEpochs
	cfg.PhaseI.Seed = seed
	cfg.PhaseII.Epochs = sc.PhaseIIEpochs
	cfg.PhaseII.LR = 2e-3
	cfg.PhaseII.WeightDecay = 5e-4
	cfg.PhaseII.Seed = seed
	cfg.PhaseIII.Epochs = sc.PhaseIIIEpochs
	cfg.PhaseIII.Seed = seed
	return cfg
}

// ZSSplit returns the scale's 75/25 disjoint-class split (the paper's
// 150/50 protocol proportions).
func (sc Scale) ZSSplit(d *dataset.SynthCUB, seed int64) dataset.Split {
	return d.ZSSplit(rand.New(rand.NewSource(seed+777)), 0.75)
}
