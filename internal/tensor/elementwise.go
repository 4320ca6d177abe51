package tensor

import "fmt"

// Add returns a+b elementwise.
func Add(a, b *Tensor) *Tensor {
	if !a.SameShape(b) {
		panic(fmt.Sprintf("tensor.Add: shape mismatch %v vs %v", a.shape, b.shape))
	}
	out := New(a.shape...)
	for i := range a.Data {
		out.Data[i] = a.Data[i] + b.Data[i]
	}
	return out
}

// AddInPlace accumulates b into a elementwise and returns a.
func AddInPlace(a, b *Tensor) *Tensor {
	if !a.SameShape(b) {
		panic(fmt.Sprintf("tensor.AddInPlace: shape mismatch %v vs %v", a.shape, b.shape))
	}
	for i := range a.Data {
		a.Data[i] += b.Data[i]
	}
	return a
}

// Scale returns a*s elementwise in a new tensor.
func Scale(a *Tensor, s float32) *Tensor {
	out := New(a.shape...)
	for i := range a.Data {
		out.Data[i] = a.Data[i] * s
	}
	return out
}

// ScaleInPlace multiplies every element of a by s and returns a.
func ScaleInPlace(a *Tensor, s float32) *Tensor {
	for i := range a.Data {
		a.Data[i] *= s
	}
	return a
}

// AddRowVector adds a length-cols vector v to every row of the 2-D tensor a
// (broadcast over rows), returning a new tensor. Used for bias addition.
func AddRowVector(a *Tensor, v *Tensor) *Tensor {
	if a.Rank() != 2 || v.Rank() != 1 || a.Dim(1) != v.Dim(0) {
		panic(fmt.Sprintf("tensor.AddRowVector: shapes %v and %v incompatible", a.shape, v.shape))
	}
	out := New(a.shape...)
	rows, cols := a.Dim(0), a.Dim(1)
	for r := 0; r < rows; r++ {
		ar := a.Data[r*cols : (r+1)*cols]
		or := out.Data[r*cols : (r+1)*cols]
		for c := 0; c < cols; c++ {
			or[c] = ar[c] + v.Data[c]
		}
	}
	return out
}
