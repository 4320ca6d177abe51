package tensor

import (
	"fmt"
	"math"
)

// AddDiagonal adds v to every diagonal element of the square matrix a in
// place and returns a. Used for ridge/Tikhonov regularization in ESZSL.
func AddDiagonal(a *Tensor, v float32) *Tensor {
	if a.Rank() != 2 || a.Dim(0) != a.Dim(1) {
		panic(fmt.Sprintf("tensor.AddDiagonal: want square matrix, have %v", a.shape))
	}
	n := a.Dim(0)
	for i := 0; i < n; i++ {
		a.Data[i*n+i] += v
	}
	return a
}

// Cholesky computes the lower-triangular factor L of a symmetric
// positive-definite matrix a = L·Lᵀ. It returns an error if a is not
// positive definite (a pivot fails to be strictly positive).
func Cholesky(a *Tensor) (*Tensor, error) {
	if a.Rank() != 2 || a.Dim(0) != a.Dim(1) {
		panic(fmt.Sprintf("tensor.Cholesky: want square matrix, have %v", a.shape))
	}
	n := a.Dim(0)
	l := New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			var s float64
			for k := 0; k < j; k++ {
				s += float64(l.Data[i*n+k]) * float64(l.Data[j*n+k])
			}
			if i == j {
				d := float64(a.Data[i*n+i]) - s
				if d <= 0 {
					return nil, fmt.Errorf("tensor.Cholesky: matrix not positive definite at pivot %d (d=%g)", i, d)
				}
				l.Data[i*n+j] = float32(math.Sqrt(d))
			} else {
				l.Data[i*n+j] = float32((float64(a.Data[i*n+j]) - s) / float64(l.Data[j*n+j]))
			}
		}
	}
	return l, nil
}

// CholeskySolve solves a·X = B for X given the Cholesky factor L of a,
// where B is [n, m]. It performs the forward substitution L·Y = B followed
// by the back substitution Lᵀ·X = Y, column by column.
func CholeskySolve(l, b *Tensor) *Tensor {
	n := l.Dim(0)
	if b.Rank() != 2 || b.Dim(0) != n {
		panic(fmt.Sprintf("tensor.CholeskySolve: factor %v incompatible with rhs %v", l.shape, b.shape))
	}
	m := b.Dim(1)
	x := b.Clone()
	// Forward: L·Y = B.
	for i := 0; i < n; i++ {
		li := l.Data[i*n : (i+1)*n]
		for c := 0; c < m; c++ {
			s := float64(x.Data[i*m+c])
			for k := 0; k < i; k++ {
				s -= float64(li[k]) * float64(x.Data[k*m+c])
			}
			x.Data[i*m+c] = float32(s / float64(li[i]))
		}
	}
	// Backward: Lᵀ·X = Y.
	for i := n - 1; i >= 0; i-- {
		for c := 0; c < m; c++ {
			s := float64(x.Data[i*m+c])
			for k := i + 1; k < n; k++ {
				s -= float64(l.Data[k*n+i]) * float64(x.Data[k*m+c])
			}
			x.Data[i*m+c] = float32(s / float64(l.Data[i*n+i]))
		}
	}
	return x
}

// SolveSPD solves a·X = B for a symmetric positive-definite a via Cholesky
// factorization. This is the solver ESZSL's closed form needs; it returns
// an error when a is singular or indefinite so callers can increase the
// ridge term instead of silently producing garbage.
func SolveSPD(a, b *Tensor) (*Tensor, error) {
	l, err := Cholesky(a)
	if err != nil {
		return nil, err
	}
	return CholeskySolve(l, b), nil
}
