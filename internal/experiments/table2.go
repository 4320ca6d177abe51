package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/nn"
)

// Table2Variant identifies one image-encoder row of Table II.
type Table2Variant struct {
	Label    string
	Backbone nn.ResNetConfig
	ProjDim  int // 0 = no FC projection (stage II skipped)
	Pretrain string
}

// Table2Row is one ablation row: the variant evaluated with both
// attribute encoders, µ±σ over the scale's seeds.
type Table2Row struct {
	Variant              Table2Variant
	EmbedDim             int
	HDCTop1, HDCStd      float64
	MLPTop1, MLPStd      float64
	HDCParams, MLPParams int
}

// Table2Result is the encoder ablation (Table II).
type Table2Result struct {
	Rows []Table2Row
}

// Variants returns the four image-encoder rows of Table II translated to
// this scale: ResNet50 without projection, ResNet50+FC at the preferred
// and a larger d, and the deeper ResNet101 without projection.
func (sc Scale) Variants() []Table2Variant {
	return []Table2Variant{
		{Label: "ResNet50", Backbone: sc.Backbone(), ProjDim: 0, Pretrain: "I,III"},
		{Label: "ResNet50+FC", Backbone: sc.Backbone(), ProjDim: sc.ProjDim, Pretrain: "I,II,III"},
		{Label: "ResNet50+FC", Backbone: sc.Backbone(), ProjDim: sc.ProjDim * 4 / 3, Pretrain: "I,II,III"},
		{Label: "ResNet101", Backbone: sc.Backbone101(), ProjDim: 0, Pretrain: "I,III"},
	}
}

// RunTable2 reproduces Table II: every image-encoder variant × both
// attribute encoders on the ZS split, common hyperparameters, averaged
// over the scale's seeds.
func RunTable2(sc Scale) Table2Result {
	var res Table2Result
	for _, v := range sc.Variants() {
		row := Table2Row{Variant: v}
		for _, encName := range []string{"HDC", "MLP"} {
			var accs []float64
			var params int
			for _, seed := range sc.Seeds {
				d := sc.Dataset(seed)
				split := sc.ZSSplit(d, seed)
				cfg := sc.Pipeline(seed)
				cfg.Backbone = v.Backbone
				cfg.ProjDim = v.ProjDim
				cfg.Encoder = encName
				cfg.MLPHidden = sc.ProjDim / 2
				// Rows without a projection train the backbone end-to-end in
				// phase III; keep those runs affordable with fewer epochs.
				if v.ProjDim == 0 {
					cfg.PhaseIII.Epochs = max(2, sc.PhaseIIIEpochs/3)
				}
				_, out := cfg.Run(d, split, sc.Pretrain(seed))
				accs = append(accs, out.Eval.Top1)
				params = out.ParamCount
				row.EmbedDim = cfg.EmbedDim()
			}
			mean, std := metrics.MeanStd(accs)
			if encName == "HDC" {
				row.HDCTop1, row.HDCStd, row.HDCParams = mean, std, params
			} else {
				row.MLPTop1, row.MLPStd, row.MLPParams = mean, std, params
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// Format renders the ablation in the paper's layout.
func (r Table2Result) Format() string {
	var b strings.Builder
	b.WriteString("Table II — Image/attribute encoder ablation (ZS split, top-1 %)\n")
	fmt.Fprintf(&b, "%-14s %-9s %6s  %-16s %-16s %10s %10s\n",
		"Image Encoder", "Pre-train", "d", "HDC (ZSC)", "MLP (Trainable)", "HDC params", "MLP params")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-14s %-9s %6d  %-16s %-16s %10d %10d\n",
			row.Variant.Label, row.Variant.Pretrain, row.EmbedDim,
			core.FormatMuSigma(row.HDCTop1, row.HDCStd),
			core.FormatMuSigma(row.MLPTop1, row.MLPStd),
			row.HDCParams, row.MLPParams)
	}
	return b.String()
}

// CSV renders the ablation as comma-separated values.
func (r Table2Result) CSV() string {
	var b strings.Builder
	b.WriteString("encoder,pretrain,d,hdc_top1,hdc_std,mlp_top1,mlp_std,hdc_params,mlp_params\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%s,%s,%d,%.4f,%.4f,%.4f,%.4f,%d,%d\n",
			row.Variant.Label, row.Variant.Pretrain, row.EmbedDim,
			row.HDCTop1, row.HDCStd, row.MLPTop1, row.MLPStd,
			row.HDCParams, row.MLPParams)
	}
	return b.String()
}
