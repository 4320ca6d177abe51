package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFromSliceCountMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FromSlice accepted wrong element count")
		}
	}()
	FromSlice([]float32{1, 2, 3}, 2, 2)
}

func TestRowPanicsOnNon2D(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Row accepted rank-3 tensor")
		}
	}()
	New(2, 2, 2).Row(0)
}

func TestFillZeroCopyFrom(t *testing.T) {
	a := New(2, 2)
	a.Fill(3)
	for _, v := range a.Data {
		if v != 3 {
			t.Fatal("Fill failed")
		}
	}
	a.Zero()
	for _, v := range a.Data {
		if v != 0 {
			t.Fatal("Zero failed")
		}
	}
	b := Full(7, 2, 2)
	a = b.Clone()
	b.Fill(1)
	if a.At(1, 1) != 7 {
		t.Fatal("Clone shares storage with its source")
	}
}

func TestStringSmallAndLarge(t *testing.T) {
	small := FromSlice([]float32{1, 2}, 2)
	if s := small.String(); s == "" {
		t.Fatal("empty String for small tensor")
	}
	rng := rand.New(rand.NewSource(1))
	large := Randn(rng, 1, 10, 10)
	if s := large.String(); s == "" {
		t.Fatal("empty String for large tensor")
	}
}

func TestInPlaceOps(t *testing.T) {
	a := FromSlice([]float32{1, 2}, 2)
	b := FromSlice([]float32{10, 20}, 2)
	AddInPlace(a, b)
	if a.Data[1] != 22 {
		t.Fatalf("AddInPlace wrong: %v", a.Data)
	}
	ScaleInPlace(a, 0.5)
	if a.Data[0] != 5.5 {
		t.Fatalf("ScaleInPlace wrong: %v", a.Data)
	}
}

func TestAddDiagonalPanicsNonSquare(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddDiagonal accepted non-square")
		}
	}()
	AddDiagonal(New(2, 3), 1)
}

func TestRowNormsValues(t *testing.T) {
	a := FromSlice([]float32{3, 4, 0, 0}, 2, 2)
	n := RowNorms(a)
	if n.Data[0] != 5 || n.Data[1] != 0 {
		t.Fatalf("RowNorms wrong: %v", n.Data)
	}
}

func TestHeInitScales(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	h := HeInit(rng, 100, 100, 100)
	// Sample std should be near sqrt(2/100) ≈ 0.1414.
	var s float64
	for _, v := range h.Data {
		s += float64(v) * float64(v)
	}
	std := math.Sqrt(s / float64(h.Len()))
	if std < 0.12 || std > 0.17 {
		t.Fatalf("He init std %v, want ≈0.141", std)
	}
}

// Property: softmax is invariant to adding a constant to a row.
func TestPropertySoftmaxShiftInvariant(t *testing.T) {
	f := func(seed int64, shift float32) bool {
		if math.IsNaN(float64(shift)) || math.Abs(float64(shift)) > 100 {
			return true
		}
		rng := rand.New(rand.NewSource(seed))
		a := Randn(rng, 1, 2, 5)
		b := a.Clone()
		for i := range b.Data {
			b.Data[i] += shift
		}
		sa, sb := SoftmaxRows(a), SoftmaxRows(b)
		for i := range sa.Data {
			if math.Abs(float64(sa.Data[i]-sb.Data[i])) > 1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: ‖a‖² equals the dot product a·a (a [1, n] times its own
// transpose through MatMulT).
func TestPropertyNormDotConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(32)
		a := Randn(rng, 1, 1, n)
		nrm := float64(a.Norm())
		dot := float64(MatMulT(a, a).Data[0])
		if math.Abs(nrm*nrm-dot) > 1e-3*math.Max(1, dot) {
			t.Fatalf("‖a‖²=%v vs dot=%v", nrm*nrm, dot)
		}
	}
}

// Property: SolveSPD agrees with the system it solves — a·x reproduces
// b — on random SPD systems.
func TestPropertySolversAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(6)
		m := Randn(rng, 1, n, n)
		a := MatMulT(m, m)
		AddDiagonal(a, 2)
		b := Randn(rng, 1, n, 2)
		x, err := SolveSPD(a.Clone(), b)
		if err != nil {
			t.Fatalf("SolveSPD: %v", err)
		}
		ax := MatMul(a, x)
		for i := range b.Data {
			if math.Abs(float64(ax.Data[i]-b.Data[i])) > 1e-2 {
				t.Fatalf("a·x disagrees with b at %d: %v vs %v", i, ax.Data[i], b.Data[i])
			}
		}
	}
}
