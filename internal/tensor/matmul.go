package tensor

import "fmt"

// MatMul computes the 2-D matrix product a[m,k] × b[k,n] → [m,n] via the
// packed register-blocked GEMM (see pack.go).
func MatMul(a, b *Tensor) *Tensor {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic(fmt.Sprintf("tensor.MatMul: want rank-2 operands, have %v and %v", a.shape, b.shape))
	}
	m, k := a.Dim(0), a.Dim(1)
	k2, n := b.Dim(0), b.Dim(1)
	if k != k2 {
		panic(fmt.Sprintf("tensor.MatMul: inner dimensions differ: %v × %v", a.shape, b.shape))
	}
	out := New(m, n)
	gemm(out.Data, a.Data, b.Data, m, k, n, GemmOpts{})
	return out
}

// MatMulT computes a[m,k] × bᵀ where b is [n,k], i.e. the product against
// the transpose without materializing it. This is the natural layout for
// cosine-similarity kernels (rows of b are class/attribute embeddings) and
// for the backward pass of Linear layers.
func MatMulT(a, b *Tensor) *Tensor {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic(fmt.Sprintf("tensor.MatMulT: want rank-2 operands, have %v and %v", a.shape, b.shape))
	}
	m, k := a.Dim(0), a.Dim(1)
	n, k2 := b.Dim(0), b.Dim(1)
	if k != k2 {
		panic(fmt.Sprintf("tensor.MatMulT: inner dimensions differ: %v × %vᵀ", a.shape, b.shape))
	}
	out := New(m, n)
	matmulTRows(out.Data, a.Data, b.Data, 0, m, k, n)
	return out
}

// matmulTRows computes rows [lo, hi) of dst = a × bᵀ.
func matmulTRows(dst, a, b []float32, lo, hi, k, n int) {
	for i := lo; i < hi; i++ {
		ai := a[i*k : (i+1)*k]
		oi := dst[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			bj := b[j*k : (j+1)*k]
			var s float32
			for p := range ai {
				s += ai[p] * bj[p]
			}
			oi[j] = s
		}
	}
}

// TMatMul computes aᵀ × b where a is [k,m] and b is [k,n] → [m,n], i.e.
// the product of the transpose of a against b without materializing aᵀ.
// This is the weight-gradient shape in Linear backward (xᵀ·dy).
func TMatMul(a, b *Tensor) *Tensor {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic(fmt.Sprintf("tensor.TMatMul: want rank-2 operands, have %v and %v", a.shape, b.shape))
	}
	k, m := a.Dim(0), a.Dim(1)
	k2, n := b.Dim(0), b.Dim(1)
	if k != k2 {
		panic(fmt.Sprintf("tensor.TMatMul: leading dimensions differ: %vᵀ × %v", a.shape, b.shape))
	}
	out := New(m, n)
	for p := 0; p < k; p++ {
		ap := a.Data[p*m : (p+1)*m]
		bp := b.Data[p*n : (p+1)*n]
		for i := 0; i < m; i++ {
			av := ap[i]
			if av == 0 {
				continue
			}
			oi := out.Data[i*n : (i+1)*n]
			for j := range bp {
				oi[j] += av * bp[j]
			}
		}
	}
	return out
}

// Transpose2D returns the transpose of a 2-D tensor.
func Transpose2D(a *Tensor) *Tensor {
	if a.Rank() != 2 {
		panic(fmt.Sprintf("tensor.Transpose2D: want rank 2, have %v", a.shape))
	}
	m, n := a.Dim(0), a.Dim(1)
	out := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.Data[j*m+i] = a.Data[i*n+j]
		}
	}
	return out
}
