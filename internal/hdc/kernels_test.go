package hdc

import (
	"math/rand"
	"slices"
	"testing"
)

// naivePermute is the former per-bit rotation, kept as the reference the
// word-level implementation must reproduce.
func naivePermute(b *Binary, k int) *Binary {
	out := NewBinary(b.Dim())
	d := b.Dim()
	k = ((k % d) + d) % d
	for i := 0; i < d; i++ {
		out.SetBit((i+k)%d, b.Bit(i))
	}
	return out
}

func TestBinaryPermuteMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dims := []int{1, 63, 64, 65, 128, 1000, 1536}
	shifts := []int{0, 1, 17, 63, 64, 65, 127, 128, 999, -1, -64, -65, 100000}
	for _, d := range dims {
		v := NewRandomBinary(rng, d)
		for _, k := range shifts {
			got := v.Permute(k)
			want := naivePermute(v, k)
			if got.Hamming(want) != 0 {
				t.Fatalf("Permute(d=%d, k=%d) diverged from per-bit reference", d, k)
			}
		}
	}
}

// naiveFromBipolar and naiveToBipolar are the former per-component
// SetBit/Bit conversions, kept as the references the word-level pack and
// unpack must reproduce.
func naiveFromBipolar(v Bipolar) *Binary {
	b := NewBinary(len(v))
	for i, x := range v {
		if x == -1 {
			b.SetBit(i, 1)
		}
	}
	return b
}

func naiveToBipolar(b *Binary) Bipolar {
	out := make(Bipolar, b.Dim())
	for i := range out {
		out[i] = int8(1 - 2*b.Bit(i))
	}
	return out
}

func TestBipolarPackMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, d := range []int{1, 63, 64, 65, 1536, 2047} {
		allNeg := make(Bipolar, d)
		for i := range allNeg {
			allNeg[i] = -1
		}
		allPos := NewBinary(d).ToBipolar()
		for _, v := range []Bipolar{NewRandomBipolar(rng, d), NewRandomBipolar(rng, d), allNeg, allPos} {
			got, want := FromBipolar(v), naiveFromBipolar(v)
			if !slices.Equal(got.words, want.words) {
				t.Fatalf("d=%d: FromBipolar words differ from the per-bit reference", d)
			}
			if rem := d % 64; rem != 0 && got.words[len(got.words)-1]>>rem != 0 {
				t.Fatalf("d=%d: FromBipolar set tail bits beyond dim", d)
			}
			if back := got.ToBipolar(); !slices.Equal(back, naiveToBipolar(got)) || !slices.Equal(back, v) {
				t.Fatalf("d=%d: ToBipolar differs from the per-bit reference or the input", d)
			}
		}
		r := NewRandomBinary(rng, d)
		if !slices.Equal(r.ToBipolar(), naiveToBipolar(r)) {
			t.Fatalf("d=%d: ToBipolar of a random packed vector differs from the per-bit reference", d)
		}
	}
}

func TestFromBipolarPanicMessage(t *testing.T) {
	long := NewBinary(130).ToBipolar()
	long[66] = 2
	for _, tc := range []struct {
		v    Bipolar
		want string
	}{
		{Bipolar{1, 0, -1}, "hdc.FromBipolar: component 1 is 0, want ±1"},
		{long, "hdc.FromBipolar: component 66 is 2, want ±1"},
	} {
		func() {
			defer func() {
				if got := recover(); got != tc.want {
					t.Fatalf("panic %v, want %q", got, tc.want)
				}
			}()
			FromBipolar(tc.v)
		}()
	}
}

func TestBinaryPermuteIntoRejectsAliasing(t *testing.T) {
	v := NewRandomBinary(rand.New(rand.NewSource(1)), 128)
	defer func() {
		if recover() == nil {
			t.Fatal("PermuteInto accepted dst aliasing the receiver")
		}
	}()
	v.PermuteInto(3, v)
}

func TestBinaryXorInto(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := NewRandomBinary(rng, 777)
	b := NewRandomBinary(rng, 777)
	dst := NewBinary(777)
	a.XorInto(b, dst)
	if dst.Hamming(a.Xor(b)) != 0 {
		t.Fatal("XorInto disagrees with Xor")
	}
	// Aliasing the destination with an operand is allowed.
	want := a.Xor(b)
	a.XorInto(b, a)
	if a.Hamming(want) != 0 {
		t.Fatal("XorInto with dst aliasing receiver diverged")
	}
}

func TestBipolarBindIntoAndPermuteInto(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := NewRandomBipolar(rng, 501)
	b := NewRandomBipolar(rng, 501)
	dst := make(Bipolar, 501)
	a.BindInto(b, dst)
	for i := range dst {
		if dst[i] != a[i]*b[i] {
			t.Fatalf("BindInto[%d] = %d, want %d", i, dst[i], a[i]*b[i])
		}
	}
	a.PermuteInto(37, dst)
	if dst.Hamming(a.Permute(37)) != 0 {
		t.Fatal("PermuteInto disagrees with Permute")
	}
}

func TestItemMemoryDistancesInto(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const d, n = 320, 23
	im := NewItemMemory(d)
	vs := make([]*Binary, n)
	for i := range vs {
		vs[i] = NewRandomBinary(rng, d)
		im.Store("x", vs[i])
	}
	probe := NewRandomBinary(rng, d)
	dst := make([]int, n)
	im.DistancesInto(probe, 0, n, dst)
	for i, v := range vs {
		if dst[i] != v.Hamming(probe) {
			t.Fatalf("DistancesInto[%d] = %d, want %d", i, dst[i], v.Hamming(probe))
		}
	}
	// A sub-range lands at offset 0 of dst.
	sub := make([]int, 5)
	im.DistancesInto(probe, 7, 12, sub)
	for i := 0; i < 5; i++ {
		if sub[i] != dst[7+i] {
			t.Fatalf("sub-range distance %d = %d, want %d", i, sub[i], dst[7+i])
		}
	}
}

func TestItemMemoryVectorIsCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	im := NewItemMemory(128)
	v := NewRandomBinary(rng, 128)
	im.Store("a", v)
	got := im.Vector(0)
	if got.Hamming(v) != 0 {
		t.Fatal("Vector(0) differs from stored vector")
	}
	got.SetBit(0, 1-got.Bit(0))
	if im.Vector(0).Hamming(v) != 0 {
		t.Fatal("mutating the returned vector leaked into the memory")
	}
}

// QueryTopK must keep the documented ascending-distance, tie-by-index
// order now that selection goes through a single sort.
func TestItemMemoryTopKTieOrder(t *testing.T) {
	im := NewItemMemory(64)
	base := NewBinary(64)
	mk := func(nbits int) *Binary {
		v := base.Clone()
		for i := 0; i < nbits; i++ {
			v.SetBit(i, 1)
		}
		return v
	}
	// Distances from base: 2, 1, 2, 0, 1 → order 3, 1, 4, 0, 2.
	for _, n := range []int{2, 1, 2, 0, 1} {
		im.Store("x", mk(n))
	}
	got := im.QueryTopK(base, 5)
	want := []int{3, 1, 4, 0, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("QueryTopK order = %v, want %v", got, want)
		}
	}
}

// NearestInRange dispatches to fixed-width kernels for common word
// counts; every specialization and the generic fallback must agree with
// the plain per-probe Query across dimensions, ties included.
func TestNearestInRangeMatchesQueryAcrossDims(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, d := range []int{64, 512, 1000, 1024, 1536, 2048} {
		im := NewItemMemory(d)
		const n = 41
		for c := 0; c < n; c++ {
			im.Store("x", NewRandomBinary(rng, d))
		}
		// A duplicated item forces an exact tie that must resolve low.
		im.Store("dup", im.Vector(5))
		for trial := 0; trial < 20; trial++ {
			probe := NewRandomBinary(rng, d)
			_, wantIdx, wantDist := im.Query(probe)
			gotIdx, gotDist := im.NearestInRange(probe, 0, im.Len())
			if gotIdx != wantIdx || gotDist != wantDist {
				t.Fatalf("d=%d: NearestInRange = (%d, %d), Query = (%d, %d)",
					d, gotIdx, gotDist, wantIdx, wantDist)
			}
			// Sub-ranges agree with a DistancesInto scan of the same range.
			lo, hi := 7, 29
			dists := make([]int, hi-lo)
			im.DistancesInto(probe, lo, hi, dists)
			bIdx, bDist := im.NearestInRange(probe, lo, hi)
			wIdx, wDist := lo, dists[0]
			for i, h := range dists {
				if h < wDist {
					wIdx, wDist = lo+i, h
				}
			}
			if bIdx != wIdx || bDist != wDist {
				t.Fatalf("d=%d range [%d,%d): NearestInRange = (%d, %d), want (%d, %d)",
					d, lo, hi, bIdx, bDist, wIdx, wDist)
			}
		}
	}
}
