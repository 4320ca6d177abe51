package hdc

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// bind returns a ⊙ b through BindInto.
func bind(a, b Bipolar) Bipolar {
	out := make(Bipolar, len(a))
	a.BindInto(b, out)
	return out
}

func TestNewRandomBipolarComponents(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	v := NewRandomBipolar(rng, 1000)
	var pos int
	for _, x := range v {
		if x != 1 && x != -1 {
			t.Fatalf("component %d not bipolar", x)
		}
		if x == 1 {
			pos++
		}
	}
	if pos < 400 || pos > 600 {
		t.Fatalf("badly unbalanced: %d/1000 positive", pos)
	}
}

func TestNewRandomBipolarPanicsOnBadDim(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for d=0")
		}
	}()
	NewRandomBipolar(rand.New(rand.NewSource(1)), 0)
}

// Quasi-orthogonality: random high-dimensional vectors have |cos| ≈ 0.
// For d=4096, the std of cosine between Rademacher vectors is 1/sqrt(d) ≈
// 0.0156, so |cos| < 0.1 holds with overwhelming probability.
func TestQuasiOrthogonality(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const d = 4096
	vs := make([]Bipolar, 12)
	for i := range vs {
		vs[i] = NewRandomBipolar(rng, d)
	}
	for i := range vs {
		for j := i + 1; j < len(vs); j++ {
			if c := vs[i].Cosine(vs[j]); math.Abs(c) > 0.1 {
				t.Fatalf("vectors %d,%d not quasi-orthogonal: cos=%v", i, j, c)
			}
		}
	}
}

// Property: binding is self-inverse, (a⊙b)⊙b = a.
func TestPropertyBindSelfInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		d := 64 + rng.Intn(512)
		a := NewRandomBipolar(rng, d)
		b := NewRandomBipolar(rng, d)
		back := bind(bind(a, b), b)
		for i := range a {
			if back[i] != a[i] {
				t.Fatalf("trial %d: bind not self-inverse at component %d", trial, i)
			}
		}
	}
}

// Property: binding preserves quasi-orthogonality — a⊙b is quasi-orthogonal
// to both operands (paper §III-A).
func TestPropertyBindQuasiOrthogonalToOperands(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const d = 4096
	for trial := 0; trial < 10; trial++ {
		a := NewRandomBipolar(rng, d)
		b := NewRandomBipolar(rng, d)
		ab := bind(a, b)
		if c := ab.Cosine(a); math.Abs(c) > 0.1 {
			t.Fatalf("bound vector correlated with operand a: %v", c)
		}
		if c := ab.Cosine(b); math.Abs(c) > 0.1 {
			t.Fatalf("bound vector correlated with operand b: %v", c)
		}
	}
}

// Property: binding is commutative and associative for bipolar vectors.
func TestPropertyBindCommutativeAssociative(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := 256
	a, b, c := NewRandomBipolar(rng, d), NewRandomBipolar(rng, d), NewRandomBipolar(rng, d)
	ab, ba := bind(a, b), bind(b, a)
	for i := range ab {
		if ab[i] != ba[i] {
			t.Fatal("bind not commutative")
		}
	}
	l, r := bind(bind(a, b), c), bind(a, bind(b, c))
	for i := range l {
		if l[i] != r[i] {
			t.Fatal("bind not associative")
		}
	}
}

// Property: permutation is a bijection — ρ⁻ᵏ(ρᵏ(v)) = v — and preserves
// component multiset.
func TestPropertyPermuteBijective(t *testing.T) {
	f := func(seed int64, kRaw int8) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 32 + rng.Intn(200)
		v := NewRandomBipolar(rng, d)
		k := int(kRaw)
		back := v.Permute(k).Permute(-k)
		for i := range v {
			if back[i] != v[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPermuteShiftsComponents(t *testing.T) {
	v := Bipolar{1, -1, 1, 1}
	p := v.Permute(1)
	want := Bipolar{1, 1, -1, 1}
	for i := range want {
		if p[i] != want[i] {
			t.Fatalf("Permute(1) = %v, want %v", p, want)
		}
	}
}

// Bundling: the majority bundle of k vectors stays similar to each of its
// components (expected cosine ≈ sqrt(2/(πk)) for large d) and dissimilar
// to unrelated random vectors.
func TestBundleSimilarToComponents(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	const d = 4096
	vs := []Bipolar{
		NewRandomBipolar(rng, d), NewRandomBipolar(rng, d), NewRandomBipolar(rng, d),
	}
	b := Bundle(rng, vs...)
	for i, v := range vs {
		if c := b.Cosine(v); c < 0.3 {
			t.Fatalf("bundle lost component %d: cos=%v", i, c)
		}
	}
	unrelated := NewRandomBipolar(rng, d)
	if c := b.Cosine(unrelated); math.Abs(c) > 0.1 {
		t.Fatalf("bundle correlated with unrelated vector: %v", c)
	}
}

func TestAccumulatorTieBreakIsBipolar(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := 512
	a := NewRandomBipolar(rng, d)
	neg := make(Bipolar, d)
	for i := range neg {
		neg[i] = -a[i]
	}
	acc := NewAccumulator(d)
	acc.Add(a)
	acc.Add(neg) // all sums are zero → every component is a tie
	out := acc.Threshold(rng)
	var pos int
	for _, x := range out {
		if x != 1 && x != -1 {
			t.Fatalf("tie-broken component is %d", x)
		}
		if x == 1 {
			pos++
		}
	}
	if pos < d/2-80 || pos > d/2+80 {
		t.Fatalf("tie-breaking biased: %d/%d positive", pos, d)
	}
}

// TestAccumulatorWeighted pins weighting by multiplicity: a vector
// added five times dominates one added once.
func TestAccumulatorWeighted(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	d := 1024
	a, b := NewRandomBipolar(rng, d), NewRandomBipolar(rng, d)
	acc := NewAccumulator(d)
	for i := 0; i < 5; i++ {
		acc.Add(a)
	}
	acc.Add(b)
	out := acc.Threshold(rng)
	// Weight 5 vs 1: the bundle must essentially equal a.
	if c := out.Cosine(a); c < 0.9 {
		t.Fatalf("weighted bundle ignored dominant component: cos=%v", c)
	}
}

func TestBundleEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Bundle() with no vectors did not panic")
		}
	}()
	Bundle(rand.New(rand.NewSource(1)))
}

func TestBindDimensionMismatchPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a, b := NewRandomBipolar(rng, 8), NewRandomBipolar(rng, 9)
	defer func() {
		if recover() == nil {
			t.Fatal("BindInto with mismatched dims did not panic")
		}
	}()
	a.BindInto(b, make(Bipolar, 8))
}

// --- Packed binary representation ---

func TestBinaryBitSetGet(t *testing.T) {
	b := NewBinary(130)
	b.SetBit(0, 1)
	b.SetBit(64, 1)
	b.SetBit(129, 1)
	if b.Bit(0) != 1 || b.Bit(64) != 1 || b.Bit(129) != 1 || b.Bit(1) != 0 {
		t.Fatal("bit set/get broken")
	}
	b.SetBit(64, 0)
	if b.Bit(64) != 0 {
		t.Fatal("bit clear broken")
	}
}

func TestBinaryXorIsSelfInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a := NewRandomBinary(rng, 1000)
	b := NewRandomBinary(rng, 1000)
	back := a.Xor(b).Xor(b)
	if back.Hamming(a) != 0 {
		t.Fatal("XOR binding not self-inverse")
	}
}

func TestBinaryHammingAgainstManual(t *testing.T) {
	a := NewBinary(70)
	b := NewBinary(70)
	a.SetBit(3, 1)
	a.SetBit(65, 1)
	b.SetBit(3, 1)
	b.SetBit(69, 1)
	if h := a.Hamming(b); h != 2 {
		t.Fatalf("Hamming = %d, want 2", h)
	}
}

// The bipolar↔binary mapping is a homomorphism: bind commutes with the
// representation change, and cosine agrees between the two views.
func TestBipolarBinaryIsomorphism(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	d := 777
	a := NewRandomBipolar(rng, d)
	b := NewRandomBipolar(rng, d)
	pa, pb := FromBipolar(a), FromBipolar(b)

	// Round trip.
	back := pa.ToBipolar()
	for i := range a {
		if back[i] != a[i] {
			t.Fatal("bipolar→binary→bipolar round trip broken")
		}
	}
	// Bind commutes with packing.
	bound := FromBipolar(bind(a, b))
	if bound.Hamming(pa.Xor(pb)) != 0 {
		t.Fatal("XOR does not implement bipolar binding")
	}
	// Similarity agrees: cos = 1 − 2·h/d.
	if c := 1 - 2*float64(pa.Hamming(pb))/float64(d); math.Abs(a.Cosine(b)-c) > 1e-9 {
		t.Fatalf("cosine mismatch: bipolar %v vs binary %v", a.Cosine(b), c)
	}
	// Hamming agrees.
	if a.Hamming(b) != pa.Hamming(pb) {
		t.Fatal("hamming mismatch between representations")
	}
}

func TestBinaryPermuteBijective(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	b := NewRandomBinary(rng, 100)
	back := b.Permute(37).Permute(-37)
	if back.Hamming(b) != 0 {
		t.Fatal("binary permute not bijective")
	}
}

func TestBinaryRandomBalance(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	b := NewRandomBinary(rng, 10000)
	var ones int
	for i := 0; i < b.Dim(); i++ {
		ones += b.Bit(i)
	}
	if ones < 4700 || ones > 5300 {
		t.Fatalf("random binary unbalanced: %d/10000 ones", ones)
	}
}

func TestBinaryTailMasked(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	b := NewRandomBinary(rng, 65) // one bit into the second word
	if b.words[1]&^1 != 0 {
		t.Fatal("tail bits beyond dim not masked")
	}
}

func TestFromBipolarRejectsZeros(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FromBipolar accepted a zero component")
		}
	}()
	FromBipolar(Bipolar{1, 0, -1})
}

// --- Codebook ---

// TestCodebookLookup pins lookup by index: entries keep the order of
// the names they were built from.
func TestCodebookLookup(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	cb := NewCodebook(rng, 256, []string{"blue", "brown", "red"})
	if cb.Len() != 3 || cb.Dim() != 256 {
		t.Fatalf("bad codebook dims: len=%d d=%d", cb.Len(), cb.Dim())
	}
	if v := cb.At(1); v.Dim() != 256 || cb.Name(1) != "brown" {
		t.Fatal("lookup of entry 1 failed")
	}
	if cb.Name(2) != "red" {
		t.Fatal("Name order broken")
	}
}

func TestCodebookDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate names accepted")
		}
	}()
	NewCodebook(rand.New(rand.NewSource(1)), 64, []string{"a", "a"})
}

func TestCodebookEntriesMutuallyQuasiOrthogonal(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	names := make([]string, 20)
	for i := range names {
		names[i] = string(rune('a' + i))
	}
	cb := NewCodebook(rng, 4096, names)
	for i := 0; i < cb.Len(); i++ {
		for j := i + 1; j < cb.Len(); j++ {
			if c := cb.At(i).Cosine(cb.At(j)); math.Abs(c) > 0.1 {
				t.Fatalf("codebook entries %d,%d correlated: %v", i, j, c)
			}
		}
	}
}

// Memory-footprint accounting must reproduce the paper's §III-A numbers
// exactly: CUB has α=312 combinations from G=28 groups and V=61 values;
// storing 89 instead of 312 vectors is a 71% reduction, and at d=1536 the
// two codebooks occupy ≈17 KB.
func TestMemoryFootprintMatchesPaper(t *testing.T) {
	m := NewMemoryFootprint(28, 61, 312, 1536)
	if r := m.Reduction(); math.Abs(r-0.7147) > 0.01 {
		t.Fatalf("reduction = %v, want ≈0.71 (paper: 71%%)", r)
	}
	kb := float64(m.FactoredBytes) / 1024
	if kb < 16 || kb > 18 {
		t.Fatalf("codebook footprint = %.2f KB, want ≈17 KB (paper §III-A)", kb)
	}
}

func TestCodebookBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	cb := NewCodebook(rng, 1536, []string{"a", "b"})
	if cb.Bytes() != 2*1536/8 {
		t.Fatalf("Bytes = %d, want %d", cb.Bytes(), 2*1536/8)
	}
}

// --- Item memory ---

func TestItemMemoryRecall(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	const d = 2048
	im := NewItemMemory(d)
	stored := make([]*Binary, 10)
	for i := range stored {
		stored[i] = NewRandomBinary(rng, d)
		im.Store(string(rune('A'+i)), stored[i])
	}
	// Exact probe.
	label, idx, dist := im.Query(stored[4])
	if label != "E" || idx != 4 || dist != 0 {
		t.Fatalf("exact recall failed: %q %d %d", label, idx, dist)
	}
	// Noisy probe: flip 20% of bits — should still recall.
	noisy := stored[7].Clone()
	for i := 0; i < d/5; i++ {
		p := rng.Intn(d)
		noisy.SetBit(p, 1-noisy.Bit(p))
	}
	label, _, _ = im.Query(noisy)
	if label != "H" {
		t.Fatalf("noisy recall failed: got %q, want H", label)
	}
}

func TestItemMemoryTopK(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	im := NewItemMemory(512)
	vs := make([]*Binary, 5)
	for i := range vs {
		vs[i] = NewRandomBinary(rng, 512)
		im.Store(string(rune('a'+i)), vs[i])
	}
	top := im.QueryTopK(vs[2], 3)
	if top[0] != 2 {
		t.Fatalf("nearest not first: %v", top)
	}
	if len(top) != 3 {
		t.Fatalf("want 3 results, got %d", len(top))
	}
}

func TestItemMemoryEmptyQueryPanics(t *testing.T) {
	im := NewItemMemory(64)
	defer func() {
		if recover() == nil {
			t.Fatal("query on empty memory did not panic")
		}
	}()
	im.Query(NewBinary(64))
}

func TestItemMemoryStoreIsolatesCaller(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	im := NewItemMemory(128)
	v := NewRandomBinary(rng, 128)
	im.Store("x", v)
	orig := v.Clone()
	v.SetBit(0, 1-v.Bit(0)) // mutate caller's copy
	_, _, dist := im.Query(orig)
	if dist != 0 {
		t.Fatal("Store did not copy the vector")
	}
}

func BenchmarkBindBipolar(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := NewRandomBipolar(rng, 1536)
	y := NewRandomBipolar(rng, 1536)
	dst := make(Bipolar, 1536)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.BindInto(y, dst)
	}
}

func BenchmarkBindBinaryXOR(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	x := NewRandomBinary(rng, 1536)
	y := NewRandomBinary(rng, 1536)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Xor(y)
	}
}

func BenchmarkHammingPopcount(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	x := NewRandomBinary(rng, 1536)
	y := NewRandomBinary(rng, 1536)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Hamming(y)
	}
}
