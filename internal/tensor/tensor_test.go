package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, eps float32) bool {
	return float32(math.Abs(float64(a-b))) <= eps
}

func TestNewShapeAndLen(t *testing.T) {
	a := New(2, 3, 4)
	if a.Len() != 24 {
		t.Fatalf("Len = %d, want 24", a.Len())
	}
	if a.Rank() != 3 || a.Dim(0) != 2 || a.Dim(1) != 3 || a.Dim(2) != 4 {
		t.Fatalf("bad shape %v", a.Shape())
	}
	for _, v := range a.Data {
		if v != 0 {
			t.Fatal("New must zero-fill")
		}
	}
}

func TestNewPanicsOnBadShape(t *testing.T) {
	for _, shape := range [][]int{{}, {0}, {2, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%v) did not panic", shape)
				}
			}()
			New(shape...)
		}()
	}
}

func TestAtSetRoundTrip(t *testing.T) {
	a := New(3, 4)
	a.Set(7.5, 2, 3)
	if got := a.At(2, 3); got != 7.5 {
		t.Fatalf("At = %v, want 7.5", got)
	}
	if a.Data[2*4+3] != 7.5 {
		t.Fatal("row-major layout violated")
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	a := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("At out of range did not panic")
		}
	}()
	_ = a.At(2, 0)
}

func TestReshapeSharesData(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := a.Reshape(3, 2)
	b.Set(99, 0, 0)
	if a.At(0, 0) != 99 {
		t.Fatal("Reshape must share underlying data")
	}
}

func TestReshapePanicsOnCountMismatch(t *testing.T) {
	a := New(2, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("Reshape with wrong count did not panic")
		}
	}()
	a.Reshape(4, 2)
}

func TestCloneIsDeep(t *testing.T) {
	a := FromSlice([]float32{1, 2}, 2)
	b := a.Clone()
	b.Data[0] = 42
	if a.Data[0] != 1 {
		t.Fatal("Clone must copy data")
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float32{4, 3, 2, 1}, 2, 2)
	if got := Add(a, b).Data; got[0] != 5 || got[3] != 5 {
		t.Fatalf("Add wrong: %v", got)
	}
	if got := Scale(a, 2).Data; got[3] != 8 {
		t.Fatalf("Scale wrong: %v", got)
	}
}

func TestBinOpShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add with mismatched shapes did not panic")
		}
	}()
	Add(New(2, 2), New(2, 3))
}

func TestAddRowVector(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	v := FromSlice([]float32{10, 20, 30}, 3)
	got := AddRowVector(a, v)
	want := []float32{11, 22, 33, 14, 25, 36}
	for i := range want {
		if got.Data[i] != want[i] {
			t.Fatalf("AddRowVector[%d] = %v, want %v", i, got.Data[i], want[i])
		}
	}
}

func TestMatMulHandComputed(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float32{7, 8, 9, 10, 11, 12}, 3, 2)
	got := MatMul(a, b)
	want := []float32{58, 64, 139, 154}
	for i := range want {
		if got.Data[i] != want[i] {
			t.Fatalf("MatMul[%d] = %v, want %v", i, got.Data[i], want[i])
		}
	}
}

func TestMatMulTMatchesExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := Randn(rng, 1, 5, 7)
	b := Randn(rng, 1, 4, 7)
	got := MatMulT(a, b)
	want := MatMul(a, Transpose2D(b))
	for i := range want.Data {
		if !almostEq(got.Data[i], want.Data[i], 1e-4) {
			t.Fatalf("MatMulT[%d] = %v, want %v", i, got.Data[i], want.Data[i])
		}
	}
}

func TestTMatMulMatchesExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := Randn(rng, 1, 6, 3)
	b := Randn(rng, 1, 6, 4)
	got := TMatMul(a, b)
	want := MatMul(Transpose2D(a), b)
	for i := range want.Data {
		if !almostEq(got.Data[i], want.Data[i], 1e-4) {
			t.Fatalf("TMatMul[%d] = %v, want %v", i, got.Data[i], want.Data[i])
		}
	}
}

func TestMatMulBlockedLargerThanBlockSize(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m, k, n := blockSize+5, blockSize+3, blockSize+7
	a := Randn(rng, 1, m, k)
	b := Randn(rng, 1, k, n)
	got := MatMul(a, b)
	// Naive reference.
	for i := 0; i < m; i += 17 {
		for j := 0; j < n; j += 13 {
			var s float64
			for p := 0; p < k; p++ {
				s += float64(a.Data[i*k+p]) * float64(b.Data[p*n+j])
			}
			if !almostEq(got.Data[i*n+j], float32(s), 1e-2) {
				t.Fatalf("blocked MatMul diverges at (%d,%d): %v vs %v", i, j, got.Data[i*n+j], s)
			}
		}
	}
}

func TestTranspose2D(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	got := Transpose2D(a)
	if got.Dim(0) != 3 || got.Dim(1) != 2 {
		t.Fatalf("bad transpose shape %v", got.Shape())
	}
	if got.At(2, 1) != 6 || got.At(0, 1) != 4 {
		t.Fatalf("bad transpose values: %v", got.Data)
	}
}

// TestMatVecAndDot pins the vector-shaped products: a matrix-vector
// product is MatMul against a [k, 1] column, a dot product is MatMulT of
// two [1, k] rows.
func TestMatVecAndDot(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	got := MatMul(a, FromSlice([]float32{1, -1}, 2, 1))
	if got.Data[0] != -1 || got.Data[1] != -1 {
		t.Fatalf("mat-vec wrong: %v", got.Data)
	}
	v := FromSlice([]float32{1, -1}, 1, 2)
	if d := MatMulT(v, v).Data[0]; d != 2 {
		t.Fatalf("dot wrong: %v", d)
	}
}

func TestSumRowsColsMeans(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	if m := a.Mean(); m != 3.5 {
		t.Fatalf("Mean wrong: %v", m)
	}
	if sc := SumCols(a); sc.Data[0] != 5 || sc.Data[2] != 9 {
		t.Fatalf("SumCols wrong: %v", sc.Data)
	}
}

func TestArgMaxAndTopK(t *testing.T) {
	a := FromSlice([]float32{0.1, 0.9, 0.5, 0.7, 0.2, 0.6}, 2, 3)
	am := ArgMax(a)
	if am[0] != 1 || am[1] != 0 {
		t.Fatalf("ArgMax wrong: %v", am)
	}
	top := TopKRow(a, 1, 2)
	if top[0] != 0 || top[1] != 2 {
		t.Fatalf("TopKRow wrong: %v", top)
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := Randn(rng, 3, 5, 9)
	sm := SoftmaxRows(a)
	for r := 0; r < 5; r++ {
		var s float32
		for _, v := range sm.Row(r) {
			if v < 0 || v > 1 {
				t.Fatalf("softmax value %v out of [0,1]", v)
			}
			s += v
		}
		if !almostEq(s, 1, 1e-5) {
			t.Fatalf("softmax row %d sums to %v", r, s)
		}
	}
}

func TestSoftmaxStableUnderLargeLogits(t *testing.T) {
	a := FromSlice([]float32{1000, 1001, 999}, 1, 3)
	sm := SoftmaxRows(a)
	if sm.HasNaN() {
		t.Fatal("softmax overflowed on large logits")
	}
	if sm.At(0, 1) <= sm.At(0, 0) {
		t.Fatal("softmax ordering broken")
	}
}

func TestNormalizeRowsUnitNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := Randn(rng, 2, 4, 8)
	n := NormalizeRows(a)
	for r := 0; r < 4; r++ {
		var s float64
		for _, v := range n.Row(r) {
			s += float64(v) * float64(v)
		}
		if !almostEq(float32(s), 1, 1e-4) {
			t.Fatalf("row %d norm² = %v, want 1", r, s)
		}
	}
}

func TestNormalizeRowsZeroRowStaysZero(t *testing.T) {
	a := New(2, 3)
	a.Set(1, 1, 0)
	n := NormalizeRows(a)
	for _, v := range n.Row(0) {
		if v != 0 {
			t.Fatal("zero row must stay zero, not become NaN")
		}
	}
}

func TestCosineSimilarityMatrixSelf(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := Randn(rng, 1, 3, 16)
	an := NormalizeRows(a)
	cs := MatMulT(an, an)
	for i := 0; i < 3; i++ {
		if !almostEq(cs.At(i, i), 1, 1e-4) {
			t.Fatalf("self-similarity [%d] = %v, want 1", i, cs.At(i, i))
		}
	}
}

func TestCholeskySolveRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// Build SPD matrix A = M·Mᵀ + I.
	m := Randn(rng, 1, 6, 6)
	a := MatMulT(m, m)
	AddDiagonal(a, 1)
	x := Randn(rng, 1, 6, 2)
	b := MatMul(a, x)
	got, err := SolveSPD(a, b)
	if err != nil {
		t.Fatalf("SolveSPD: %v", err)
	}
	for i := range x.Data {
		if !almostEq(got.Data[i], x.Data[i], 1e-2) {
			t.Fatalf("SolveSPD[%d] = %v, want %v", i, got.Data[i], x.Data[i])
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := FromSlice([]float32{0, 1, 1, 0}, 2, 2)
	if _, err := Cholesky(a); err == nil {
		t.Fatal("Cholesky accepted an indefinite matrix")
	}
}

// TestSolveLinearRoundTrip solves a·x = b for several right-hand sides
// through SolveSPD, the solver ESZSL's closed form uses.
func TestSolveLinearRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m := Randn(rng, 1, 5, 5)
	a := MatMulT(m, m)
	AddDiagonal(a, 3) // keep it well-conditioned
	x := Randn(rng, 1, 5, 3)
	b := MatMul(a, x)
	got, err := SolveSPD(a, b)
	if err != nil {
		t.Fatalf("SolveSPD: %v", err)
	}
	for i := range x.Data {
		if !almostEq(got.Data[i], x.Data[i], 1e-2) {
			t.Fatalf("SolveSPD[%d] = %v, want %v", i, got.Data[i], x.Data[i])
		}
	}
}

func TestSolveLinearSingular(t *testing.T) {
	a := New(3, 3) // all-zero matrix is singular
	b := Ones(3, 1)
	if _, err := SolveSPD(a, b); err == nil {
		t.Fatal("SolveSPD accepted a singular matrix")
	}
}

func TestRademacherOnlyPlusMinusOne(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	r := Rademacher(rng, 1000)
	var pos int
	for _, v := range r.Data {
		if v != 1 && v != -1 {
			t.Fatalf("Rademacher produced %v", v)
		}
		if v == 1 {
			pos++
		}
	}
	// Balanced within 5 sigma.
	if pos < 380 || pos > 620 {
		t.Fatalf("Rademacher badly unbalanced: %d/1000 positive", pos)
	}
}

func TestHasNaN(t *testing.T) {
	a := FromSlice([]float32{1, 2}, 2)
	if a.HasNaN() {
		t.Fatal("false NaN")
	}
	a.Data[1] = float32(math.NaN())
	if !a.HasNaN() {
		t.Fatal("missed NaN")
	}
	a.Data[1] = float32(math.Inf(1))
	if !a.HasNaN() {
		t.Fatal("missed Inf")
	}
}

// Property: (a+b)+(-b) == a for finite inputs.
func TestPropertyAddSubInverse(t *testing.T) {
	f := func(vals [8]float32) bool {
		for _, v := range vals {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) || math.Abs(float64(v)) > 1e6 {
				return true // skip pathological inputs
			}
		}
		a := FromSlice(append([]float32(nil), vals[:4]...), 4)
		b := FromSlice(append([]float32(nil), vals[4:]...), 4)
		back := Add(Add(a, b), Scale(b, -1))
		for i := range a.Data {
			if !almostEq(back.Data[i], a.Data[i], 1e-1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: transpose is an involution.
func TestPropertyTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 25; trial++ {
		m, n := 1+rng.Intn(8), 1+rng.Intn(8)
		a := Randn(rng, 1, m, n)
		b := Transpose2D(Transpose2D(a))
		for i := range a.Data {
			if a.Data[i] != b.Data[i] {
				t.Fatalf("transpose involution broken at trial %d", trial)
			}
		}
	}
}

// Property: cosine similarity is bounded in [-1, 1].
func TestPropertyCosineBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		a := Randn(rng, 2, 3, 12)
		b := Randn(rng, 2, 4, 12)
		cs := MatMulT(NormalizeRows(a), NormalizeRows(b))
		for _, v := range cs.Data {
			if v < -1.0001 || v > 1.0001 {
				t.Fatalf("cosine out of bounds: %v", v)
			}
		}
	}
}

// Property: matmul distributes over addition: A(B+C) = AB + AC.
func TestPropertyMatMulDistributive(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 10; trial++ {
		a := Randn(rng, 1, 4, 5)
		b := Randn(rng, 1, 5, 3)
		c := Randn(rng, 1, 5, 3)
		lhs := MatMul(a, Add(b, c))
		rhs := Add(MatMul(a, b), MatMul(a, c))
		for i := range lhs.Data {
			if !almostEq(lhs.Data[i], rhs.Data[i], 1e-3) {
				t.Fatalf("distributivity broken: %v vs %v", lhs.Data[i], rhs.Data[i])
			}
		}
	}
}

func BenchmarkMatMul128(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := Randn(rng, 1, 128, 128)
	y := Randn(rng, 1, 128, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(x, y)
	}
}
