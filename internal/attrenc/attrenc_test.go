package attrenc

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/hdc"
	"repro/internal/tensor"
)

func TestHDCEncoderDictionaryIsBipolarBinding(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	schema := dataset.NewCUBSchema()
	e := NewHDCEncoder(rng, schema, 256)
	if e.B.Dim(0) != schema.Alpha() || e.B.Dim(1) != 256 {
		t.Fatalf("dictionary shape %v", e.B.Shape())
	}
	// Every row must equal g_y ⊙ v_z componentwise.
	for _, a := range []int{0, 5, 100, schema.Alpha() - 1} {
		g := e.Groups.At(schema.AttrGroup[a])
		v := e.Values.At(schema.AttrValue[a])
		row := e.B.Row(a)
		for i := range row {
			if row[i] != float32(g[i]*v[i]) {
				t.Fatalf("attr %d row diverges from binding at component %d", a, i)
			}
			if row[i] != 1 && row[i] != -1 {
				t.Fatalf("dictionary entry not bipolar: %v", row[i])
			}
		}
	}
}

func TestHDCEncoderSharedValuesShareCodevectors(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	schema := dataset.NewCUBSchema()
	e := NewHDCEncoder(rng, schema, 128)
	// Find two attributes in different groups sharing the same value.
	uses := map[int][]int{}
	for a := 0; a < schema.Alpha(); a++ {
		uses[schema.AttrValue[a]] = append(uses[schema.AttrValue[a]], a)
	}
	var a1, a2 int = -1, -1
	for _, as := range uses {
		for i := 0; i < len(as); i++ {
			for j := i + 1; j < len(as); j++ {
				if schema.AttrGroup[as[i]] != schema.AttrGroup[as[j]] {
					a1, a2 = as[i], as[j]
				}
			}
		}
	}
	if a1 < 0 {
		t.Fatal("schema has no cross-group shared value")
	}
	// b_{a1} ⊙ b_{a2} = (g1⊙v)(g2⊙v) = g1⊙g2 — unbinding the shared value
	// must recover the group binding, i.e. b_{a1}*b_{a2} == g1*g2.
	g1 := e.Groups.At(schema.AttrGroup[a1])
	g2 := e.Groups.At(schema.AttrGroup[a2])
	r1, r2 := e.B.Row(a1), e.B.Row(a2)
	for i := range r1 {
		if r1[i]*r2[i] != float32(g1[i]*g2[i]) {
			t.Fatal("shared value does not factor out of bound attribute vectors")
		}
	}
}

func TestHDCEncoderDictionaryQuasiOrthogonal(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	schema := dataset.NewCUBSchema()
	e := NewHDCEncoder(rng, schema, 4096)
	// Sampled pairs of distinct attribute vectors should be
	// quasi-orthogonal (binding preserves quasi-orthogonality, §III-A).
	for trial := 0; trial < 30; trial++ {
		a := rng.Intn(schema.Alpha())
		b := rng.Intn(schema.Alpha())
		if a == b {
			continue
		}
		// Same group + different value, or different groups: either way the
		// bound vectors should decorrelate... except pairs sharing BOTH
		// factors, which cannot happen for a≠b.
		ra, rb := e.B.Row(a), e.B.Row(b)
		var dot float64
		for i := range ra {
			dot += float64(ra[i]) * float64(rb[i])
		}
		cos := dot / 4096
		if math.Abs(cos) > 0.1 {
			t.Fatalf("attrs %d,%d correlated: cos=%v", a, b, cos)
		}
	}
}

func TestHDCEncodeMatchesManualMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	schema := dataset.NewCUBSchema()
	e := NewHDCEncoder(rng, schema, 64)
	a := tensor.RandUniform(rng, 0, 1, 3, schema.Alpha())
	phi := e.Encode(a, false)
	want := tensor.MatMul(a, e.B)
	for i := range phi.Data {
		if phi.Data[i] != want.Data[i] {
			t.Fatal("Encode diverges from A×B")
		}
	}
	if e.OutDim() != 64 || e.Name() != "HDC" {
		t.Fatal("metadata wrong")
	}
	if e.Params() != nil {
		t.Fatal("HDC encoder must be parameter-free")
	}
}

func TestHDCEncodeRejectsWrongAlpha(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	e := NewHDCEncoder(rng, dataset.NewCUBSchema(), 32)
	defer func() {
		if recover() == nil {
			t.Fatal("Encode accepted wrong attribute width")
		}
	}()
	e.Encode(tensor.New(2, 10), false)
}

func TestHDCAttrVectorMatchesDictionary(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	schema := dataset.NewCUBSchema()
	e := NewHDCEncoder(rng, schema, 192)
	for _, a := range []int{0, 7, 200} {
		packed := e.AttrVector(a).ToBipolar()
		row := e.B.Row(a)
		for i := range row {
			if float32(packed[i]) != row[i] {
				t.Fatalf("packed rematerialization diverges for attr %d", a)
			}
		}
	}
}

func TestHDCMemoryFootprintPaperNumbers(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	e := NewHDCEncoder(rng, dataset.NewCUBSchema(), 1536)
	m := e.MemoryFootprint()
	if m.Groups != 28 || m.Values != 61 || m.Combos != 312 {
		t.Fatalf("footprint topology %+v", m)
	}
	kb := float64(m.FactoredBytes) / 1024
	if kb < 16 || kb > 18 {
		t.Fatalf("codebooks occupy %.2f KB, paper says ≈17 KB", kb)
	}
	if r := m.Reduction(); r < 0.70 || r > 0.73 {
		t.Fatalf("reduction %.3f, paper says 71%%", r)
	}
}

func TestClassPrototypeRecallsOwnAttributes(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	schema := dataset.NewCUBSchema()
	e := NewHDCEncoder(rng, schema, 2048)
	attr := make([]float32, schema.Alpha())
	for g := range schema.Groups {
		attr[schema.GroupAttrOffset[g]] = 0.9 // first value of each group
	}
	proto := e.ClassPrototype(rng, attr)
	// The prototype must correlate with its member attribute vectors far
	// more than with non-members.
	member := e.AttrVector(schema.GroupAttrOffset[0])
	nonMember := e.AttrVector(schema.GroupAttrOffset[0] + 1)
	// Bipolar cosine of binary hypervectors: 1 − 2·Hamming/d.
	cos := func(o *hdc.Binary) float64 { return 1 - 2*float64(proto.Hamming(o))/2048 }
	cm := cos(member)
	cn := cos(nonMember)
	if cm < 0.1 || cm < cn+0.1 {
		t.Fatalf("prototype recall weak: member=%v non-member=%v", cm, cn)
	}
}

// attrVectorPrototype is the former ClassPrototype, which bundled each
// codevector through AttrVector's pack, XOR and unpack; kept as the
// reference the bipolar-side binding must reproduce bit for bit,
// including every tie-break draw from rng.
func attrVectorPrototype(e *HDCEncoder, rng *rand.Rand, classAttr []float32) *hdc.Binary {
	acc := hdc.NewAccumulator(e.dim)
	for g := range e.Schema.Groups {
		off := e.Schema.GroupAttrOffset[g]
		best, bestV := 0, float32(-1)
		for vi := range e.Schema.Groups[g].Values {
			if classAttr[off+vi] > bestV {
				bestV, best = classAttr[off+vi], vi
			}
		}
		acc.Add(e.AttrVector(off + best).ToBipolar())
	}
	return hdc.FromBipolar(acc.Threshold(rng))
}

func TestClassPrototypeMatchesAttrVectorBundling(t *testing.T) {
	const classes = 50
	for _, tc := range []struct {
		seed int64
		dim  int
	}{{1, 1536}, {2, 1536}, {3, 1000}} {
		e := NewHDCEncoder(rand.New(rand.NewSource(tc.seed)), dataset.NewCUBSchema(), tc.dim)
		_, attr := dataset.GenerateClasses(dataset.Config{NumClasses: classes, Seed: tc.seed})
		gotRng := rand.New(rand.NewSource(tc.seed + 100))
		wantRng := rand.New(rand.NewSource(tc.seed + 100))
		for c := 0; c < classes; c++ {
			got := e.ClassPrototype(gotRng, attr.Row(c))
			want := attrVectorPrototype(e, wantRng, attr.Row(c))
			if !slices.Equal(got.Words(), want.Words()) {
				t.Fatalf("seed %d d=%d class %d: prototype differs from the AttrVector bundling (Hamming %d)",
					tc.seed, tc.dim, c, got.Hamming(want))
			}
		}
		// Both paths drew the same number of tie breaks.
		if g, w := gotRng.Int63(), wantRng.Int63(); g != w {
			t.Fatalf("seed %d: rng streams diverged after %d classes", tc.seed, classes)
		}
	}
}

func TestMLPEncoderForwardBackward(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	e := NewMLPEncoder(rng, 312, 32, 64)
	a := tensor.RandUniform(rng, 0, 1, 4, 312)
	phi := e.Encode(a, true)
	if phi.Dim(0) != 4 || phi.Dim(1) != 64 {
		t.Fatalf("MLP output %v", phi.Shape())
	}
	if e.OutDim() != 64 || e.Name() != "MLP" {
		t.Fatal("metadata wrong")
	}
	if len(e.Params()) != 4 { // 2×(W,b)
		t.Fatalf("want 4 params, got %d", len(e.Params()))
	}
	// Backward must accumulate gradient in the weights.
	for _, p := range e.Params() {
		p.ZeroGrad()
	}
	e.Backward(tensor.Ones(4, 64))
	var any bool
	for _, g := range e.Params()[0].Grad.Data {
		if g != 0 {
			any = true
			break
		}
	}
	if !any {
		t.Fatal("no gradient reached MLP weights")
	}
}
