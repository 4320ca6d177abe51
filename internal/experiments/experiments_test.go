package experiments

import (
	"strings"
	"testing"
)

// microScale is a minimal workload so the experiment runners can be
// exercised quickly in CI; the committed numbers use FullScale.
func microScale() Scale {
	return Scale{
		Name: "quick", Classes: 10, PerClass: 5, ImgSize: 12, AttrNoise: 0.25,
		Seeds: []int64{1}, Width: 4, ProjDim: 96,
		PhaseIEpochs: 1, PhaseIIEpochs: 2, PhaseIIIEpochs: 2,
		PretrainClasses: 4, PretrainPerClass: 6,
	}
}

func TestScalesAreSane(t *testing.T) {
	for _, sc := range []Scale{QuickScale(), FullScale(), microScale()} {
		if sc.Classes < 4 || sc.PerClass < 2 || len(sc.Seeds) == 0 {
			t.Fatalf("scale %q too small to produce a ZS split: %+v", sc.Name, sc)
		}
		d := sc.Dataset(1)
		if d.NumInstances() != sc.Classes*sc.PerClass {
			t.Fatalf("scale %q dataset size wrong", sc.Name)
		}
	}
}

func TestRunMemoryMatchesPaperExactly(t *testing.T) {
	r := RunMemory()
	if problems := r.Check(); len(problems) > 0 {
		t.Fatalf("memory accounting diverges from paper: %v", problems)
	}
	if r.Footprint.Groups != 28 || r.Footprint.Values != 61 || r.Footprint.Combos != 312 {
		t.Fatalf("topology wrong: %+v", r.Footprint)
	}
	out := r.Format()
	if !strings.Contains(out, "71") && !strings.Contains(out, "17") {
		t.Fatalf("format output missing headline numbers:\n%s", out)
	}
}

func TestRunTable1ProducesAllGroups(t *testing.T) {
	r := RunTable1(microScale())
	if len(r.Rows) != 28 {
		t.Fatalf("Table I has %d rows, want 28", len(r.Rows))
	}
	for _, row := range r.Rows {
		for _, v := range []float64{row.OursWMAP, row.FinetagWMAP, row.OursTop1, row.A3MTop1} {
			if v < 0 || v > 1 {
				t.Fatalf("metric out of range in group %q: %+v", row.Group, row)
			}
		}
	}
	if r.AvgOursWMAP == 0 && r.AvgOursTop1 == 0 {
		t.Fatal("our model produced all-zero metrics")
	}
	out := r.Format()
	if !strings.Contains(out, "crown color") || !strings.Contains(out, "average") {
		t.Fatalf("Format missing expected rows:\n%s", out)
	}
	csv := r.CSV()
	if len(strings.Split(strings.TrimSpace(csv), "\n")) != 30 { // header + 28 + average
		t.Fatalf("CSV row count wrong:\n%s", csv)
	}
}

func TestRunTable2AllVariants(t *testing.T) {
	sc := microScale()
	r := RunTable2(sc)
	if len(r.Rows) != 4 {
		t.Fatalf("Table II has %d rows, want 4", len(r.Rows))
	}
	// The projection-free rows must use the backbone's own output dim.
	if r.Rows[0].EmbedDim != sc.Backbone().OutDim() {
		t.Fatalf("no-FC row embed dim %d, want %d", r.Rows[0].EmbedDim, sc.Backbone().OutDim())
	}
	// The MLP column always costs more parameters than the HDC column.
	for _, row := range r.Rows {
		if row.MLPParams <= row.HDCParams {
			t.Fatalf("MLP (%d) not larger than HDC (%d) in row %s d=%d",
				row.MLPParams, row.HDCParams, row.Variant.Label, row.EmbedDim)
		}
	}
	// ResNet101 must be the largest backbone.
	if r.Rows[3].HDCParams <= r.Rows[0].HDCParams {
		t.Fatal("ResNet101 row not larger than ResNet50 row")
	}
	if !strings.Contains(r.Format(), "ResNet101") {
		t.Fatal("Format missing ResNet101 row")
	}
	if !strings.Contains(r.CSV(), "ResNet50+FC") {
		t.Fatal("CSV missing rows")
	}
}

func TestRunFig5SweepsAllPanels(t *testing.T) {
	r := RunFig5(microScale())
	if len(r.Sweeps) != 5 {
		t.Fatalf("Fig 5 has %d panels, want 5", len(r.Sweeps))
	}
	names := map[string]bool{}
	for _, s := range r.Sweeps {
		names[s.Param] = true
		if len(s.Values) != len(s.Top1) || len(s.Values) < 3 {
			t.Fatalf("panel %q malformed", s.Param)
		}
		for _, v := range s.Top1 {
			if v < 0 || v > 1 {
				t.Fatalf("panel %q accuracy out of range: %v", s.Param, v)
			}
		}
	}
	for _, want := range []string{"batch size", "epochs", "learning rate", "temp scale", "weight decay"} {
		if !names[want] {
			t.Fatalf("missing panel %q", want)
		}
	}
	if !strings.Contains(r.CSV(), "learning rate") {
		t.Fatal("CSV missing panel")
	}
}

func TestGenerativeVariantsOrderedByCapacity(t *testing.T) {
	vs := generativeVariants(false)
	if len(vs) != 6 {
		t.Fatalf("want 6 variants, got %d", len(vs))
	}
	for i := 1; i < len(vs); i++ {
		if vs[i].HiddenGen <= vs[i-1].HiddenGen {
			t.Fatal("generative variants not ordered by capacity")
		}
	}
	q := generativeVariants(true)
	if len(q) >= len(vs) {
		t.Fatal("quick mode should trim the variant list")
	}
}

func TestRunFig4PointsAndFront(t *testing.T) {
	r := RunFig4(microScale())
	if len(r.Points) < 7 { // 2 ours + ESZSL + TCN + ≥3 generative
		t.Fatalf("Fig 4 has only %d points", len(r.Points))
	}
	var ours, generative int
	for _, p := range r.Points {
		if p.ParamCount <= 0 {
			t.Fatalf("point %q has no params", p.Name)
		}
		switch p.Kind {
		case "ours":
			ours++
		case "generative":
			generative++
		}
	}
	if ours != 2 || generative < 3 {
		t.Fatalf("point mix wrong: ours=%d generative=%d", ours, generative)
	}
	if len(r.Front) == 0 {
		t.Fatal("empty Pareto front")
	}
	if !strings.Contains(r.Format(), "HDC-ZSC (ours)") {
		t.Fatal("Format missing our model")
	}
	if !strings.Contains(r.CSV(), "on_front") {
		t.Fatal("CSV missing header")
	}
}

func TestDimensionAblationShape(t *testing.T) {
	r := RunDimensionAblation([]int{64, 512, 1024}, 10, 4, 1)
	if len(r.Rows) != 3 {
		t.Fatalf("want 3 rows, got %d", len(r.Rows))
	}
	// High dimensionality must classify essentially perfectly; tiny d
	// must be visibly worse or equal.
	last := r.Rows[2]
	if last.FactoredAcc < 0.9 {
		t.Fatalf("d=1024 factored accuracy %.2f too low", last.FactoredAcc)
	}
	if problems := r.Check(); len(problems) > 0 {
		t.Fatalf("ablation check failed: %v", problems)
	}
	if !strings.Contains(r.Format(), "factored") || !strings.Contains(r.CSV(), "codebook_kb") {
		t.Fatal("ablation emitters malformed")
	}
	// Codebook storage grows linearly with d.
	if r.Rows[0].CodebookKB >= r.Rows[2].CodebookKB {
		t.Fatal("codebook size not increasing with d")
	}
}
