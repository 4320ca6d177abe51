package tensor

import (
	"fmt"
	"math"
	"sort"
)

// SumCols sums a 2-D tensor along axis 0, returning a rank-1 tensor of
// length cols. This is the bias-gradient reduction in Linear backward.
func SumCols(a *Tensor) *Tensor {
	if a.Rank() != 2 {
		panic(fmt.Sprintf("tensor.SumCols: want rank 2, have %v", a.shape))
	}
	rows, cols := a.Dim(0), a.Dim(1)
	out := New(cols)
	for r := 0; r < rows; r++ {
		row := a.Data[r*cols : (r+1)*cols]
		for c, v := range row {
			out.Data[c] += v
		}
	}
	return out
}

// ArgMaxRow returns the index of the maximum element in row r of a 2-D
// tensor; ties resolve to the lowest index.
func ArgMaxRow(a *Tensor, r int) int {
	row := a.Row(r)
	best, bi := row[0], 0
	for i, v := range row[1:] {
		if v > best {
			best, bi = v, i+1
		}
	}
	return bi
}

// ArgMax returns, for each row of a 2-D tensor, the index of its maximum.
func ArgMax(a *Tensor) []int {
	if a.Rank() != 2 {
		panic(fmt.Sprintf("tensor.ArgMax: want rank 2, have %v", a.shape))
	}
	out := make([]int, a.Dim(0))
	for r := range out {
		out[r] = ArgMaxRow(a, r)
	}
	return out
}

// TopKRow returns the indices of the k largest elements in row r of a 2-D
// tensor, in descending order of value. Ties resolve to lower indices.
func TopKRow(a *Tensor, r, k int) []int {
	row := a.Row(r)
	if k > len(row) {
		panic(fmt.Sprintf("tensor.TopKRow: k=%d exceeds row length %d", k, len(row)))
	}
	idx := make([]int, len(row))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(i, j int) bool { return row[idx[i]] > row[idx[j]] })
	return idx[:k]
}

// SoftmaxRows applies a numerically stable softmax to each row of a 2-D
// tensor, returning a new tensor whose rows sum to 1.
func SoftmaxRows(a *Tensor) *Tensor {
	if a.Rank() != 2 {
		panic(fmt.Sprintf("tensor.SoftmaxRows: want rank 2, have %v", a.shape))
	}
	rows, cols := a.Dim(0), a.Dim(1)
	out := New(rows, cols)
	for r := 0; r < rows; r++ {
		in := a.Data[r*cols : (r+1)*cols]
		o := out.Data[r*cols : (r+1)*cols]
		mx := in[0]
		for _, v := range in[1:] {
			if v > mx {
				mx = v
			}
		}
		var sum float64
		for c, v := range in {
			e := math.Exp(float64(v - mx))
			o[c] = float32(e)
			sum += e
		}
		inv := float32(1 / sum)
		for c := range o {
			o[c] *= inv
		}
	}
	return out
}

// NormalizeRows scales each row of a 2-D tensor to unit L2 norm, returning
// a new tensor. Zero rows are left as zeros (the cosine kernel treats a
// zero embedding as equally dissimilar to everything).
func NormalizeRows(a *Tensor) *Tensor {
	if a.Rank() != 2 {
		panic(fmt.Sprintf("tensor.NormalizeRows: want rank 2, have %v", a.shape))
	}
	rows, cols := a.Dim(0), a.Dim(1)
	out := New(rows, cols)
	for r := 0; r < rows; r++ {
		in := a.Data[r*cols : (r+1)*cols]
		o := out.Data[r*cols : (r+1)*cols]
		var s float64
		for _, v := range in {
			s += float64(v) * float64(v)
		}
		if s == 0 {
			continue
		}
		inv := float32(1 / math.Sqrt(s))
		for c, v := range in {
			o[c] = v * inv
		}
	}
	return out
}

// RowNorms returns the L2 norm of each row of a 2-D tensor.
func RowNorms(a *Tensor) *Tensor {
	if a.Rank() != 2 {
		panic(fmt.Sprintf("tensor.RowNorms: want rank 2, have %v", a.shape))
	}
	rows, cols := a.Dim(0), a.Dim(1)
	out := New(rows)
	for r := 0; r < rows; r++ {
		var s float64
		for _, v := range a.Data[r*cols : (r+1)*cols] {
			s += float64(v) * float64(v)
		}
		out.Data[r] = float32(math.Sqrt(s))
	}
	return out
}
