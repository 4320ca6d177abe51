package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/metrics"
)

// Fig4Point is one model on the accuracy-vs-parameters plane.
type Fig4Point struct {
	Name       string
	Kind       string // "ours", "non-generative", "generative"
	Top1       float64
	ParamCount int
}

// Fig4Result is the Pareto comparison of Fig. 4.
type Fig4Result struct {
	Points []Fig4Point
	Front  []string // names on the Pareto front
}

// generativeVariants lists the six GAN-based reference models of Fig. 4
// with generator/classifier capacity growing so the parameter-count
// ratios against HDC-ZSC follow the published 1.75×–2.58× spread.
func generativeVariants(quick bool) []baselines.FeatGenConfig {
	base := baselines.DefaultFeatGenConfig()
	if quick {
		base.GenEpochs, base.ClsEpochs, base.PerClass = 15, 15, 10
	}
	mk := func(name string, hg, hc int) baselines.FeatGenConfig {
		c := base
		c.Name, c.HiddenGen, c.HiddenCls = name, hg, hc
		return c
	}
	variants := []baselines.FeatGenConfig{
		mk("f-CLSWGAN[28]", 256, 128),
		mk("cycle-CLSWGAN[27]", 320, 160),
		mk("LisGAN[26]", 384, 192),
		mk("f-VAEGAN-D2[25]", 448, 224),
		mk("ZSL_TF-VAEGAN[10]", 512, 256),
		mk("Composer[9]", 640, 320),
	}
	if quick {
		variants = variants[:4]
	}
	return variants
}

// RunFig4 reproduces Fig. 4: our HDC-ZSC and Trainable-MLP models, the
// ESZSL and TCN non-generative baselines, and the generative feature-synthesis
// variants, all evaluated zero-shot on the same split, plotted as
// (parameter count, top-1 accuracy) points with the Pareto front
// extracted.
func RunFig4(sc Scale) Fig4Result {
	seed := sc.Seeds[0]
	d := sc.Dataset(seed)
	split := sc.ZSSplit(d, seed)
	pre := sc.Pretrain(seed)
	var res Fig4Result

	// Ours (HDC) — full three-phase pipeline.
	cfgH := sc.Pipeline(seed)
	modelH, resH := cfgH.Run(d, split, pre)
	res.Points = append(res.Points, Fig4Point{
		Name: "HDC-ZSC (ours)", Kind: "ours",
		Top1: resH.Eval.Top1, ParamCount: resH.ParamCount,
	})

	// Ours (Trainable-MLP attribute encoder).
	cfgM := sc.Pipeline(seed)
	cfgM.Encoder = "MLP"
	cfgM.MLPHidden = sc.ProjDim / 2
	_, resM := cfgM.Run(d, split, pre)
	res.Points = append(res.Points, Fig4Point{
		Name: "Trainable-MLP (ours)", Kind: "ours",
		Top1: resM.Eval.Top1, ParamCount: resM.ParamCount,
	})

	// ESZSL on phase-I features (as in its original formulation, which
	// consumes generic pretrained features from a heavier encoder — see
	// Scale.BaselineBackbone). Its parameter count includes that encoder
	// plus the full bilinear map over the raw feature width, which is what
	// makes it large (the paper reports 1.72× ours).
	imgE := core.NewImageEncoder(rand.New(rand.NewSource(seed)), sc.BaselineBackbone(), 0)
	preCfg := sc.Pipeline(seed).PhaseI
	core.PretrainClassification(imgE, pre, preCfg)
	if ez, err := baselines.RunESZSL(imgE, d, split, 1, 1); err == nil {
		res.Points = append(res.Points, Fig4Point{
			Name: "ESZSL[4]", Kind: "non-generative",
			Top1: ez.Top1, ParamCount: ez.ParamCount,
		})
	}

	// TCN: the contrastive non-generative baseline, trained end to end on
	// the pipeline's backbone with a trainable MLP attribute encoder.
	tcn := baselines.RunTCN(d, split, baselines.TCNConfig{
		Backbone: sc.Backbone(), EmbedDim: sc.ProjDim, MLPHidden: sc.ProjDim,
		Train: sc.Pipeline(seed).PhaseIII, Seed: seed,
	})
	res.Points = append(res.Points, Fig4Point{
		Name: "TCN[16]", Kind: "non-generative", Top1: tcn.Top1, ParamCount: tcn.ParamCount,
	})

	// Generative variants share the phase-I backbone features.
	for _, gv := range generativeVariants(sc.Name == "quick") {
		gv.Seed = seed
		out := baselines.RunFeatGen(imgE, d, split, gv)
		res.Points = append(res.Points, Fig4Point{
			Name: out.Name, Kind: "generative", Top1: out.Top1, ParamCount: out.ParamCount,
		})
	}
	_ = modelH

	// Pareto front.
	pts := make([]metrics.Point, len(res.Points))
	for i, p := range res.Points {
		pts[i] = metrics.Point{Name: p.Name, Params: p.ParamCount, Accuracy: p.Top1}
	}
	for _, p := range metrics.ParetoFront(pts) {
		res.Front = append(res.Front, p.Name)
	}
	return res
}

// Format renders the scatter as a sorted table with front markers.
func (r Fig4Result) Format() string {
	onFront := map[string]bool{}
	for _, n := range r.Front {
		onFront[n] = true
	}
	pts := append([]Fig4Point(nil), r.Points...)
	sort.Slice(pts, func(i, j int) bool { return pts[i].ParamCount < pts[j].ParamCount })
	var b strings.Builder
	b.WriteString("Fig. 4 — Zero-shot accuracy vs parameter count\n")
	fmt.Fprintf(&b, "%-24s %-16s %10s %8s %s\n", "Model", "Kind", "Params", "Top-1%", "Pareto")
	for _, p := range pts {
		mark := ""
		if onFront[p.Name] {
			mark = "◆ front"
		}
		fmt.Fprintf(&b, "%-24s %-16s %10d %8.1f %s\n",
			p.Name, p.Kind, p.ParamCount, p.Top1*100, mark)
	}
	return b.String()
}

// CSV renders the points as comma-separated values.
func (r Fig4Result) CSV() string {
	onFront := map[string]bool{}
	for _, n := range r.Front {
		onFront[n] = true
	}
	var b strings.Builder
	b.WriteString("model,kind,params,top1,on_front\n")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%s,%s,%d,%.4f,%v\n", p.Name, p.Kind, p.ParamCount, p.Top1, onFront[p.Name])
	}
	return b.String()
}

// Check verifies the paper's headline shape: both of our models sit on
// the Pareto front, and every generative variant costs more parameters
// than HDC-ZSC.
func (r Fig4Result) Check() []string {
	var problems []string
	onFront := map[string]bool{}
	for _, n := range r.Front {
		onFront[n] = true
	}
	var oursParams int
	for _, p := range r.Points {
		if p.Name == "HDC-ZSC (ours)" {
			oursParams = p.ParamCount
		}
	}
	for _, p := range r.Points {
		if p.Kind == "ours" && !onFront[p.Name] {
			problems = append(problems, fmt.Sprintf("%s fell off the Pareto front", p.Name))
		}
		if p.Kind == "generative" && p.ParamCount <= oursParams {
			problems = append(problems,
				fmt.Sprintf("%s is not larger than HDC-ZSC (%d ≤ %d)", p.Name, p.ParamCount, oursParams))
		}
	}
	return problems
}
