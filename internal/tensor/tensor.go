// Package tensor implements a dense, row-major float32 tensor engine used
// by every other module in the repository: the neural-network stack, the
// HDC attribute encoders, the baselines, and the evaluation metrics.
//
// The design goal is a small, predictable core rather than a general
// n-dimensional broadcasting machine: shapes are explicit, operations
// panic on mismatch with a message that names the operation, and the only
// data type is float32 (the compute type used throughout the paper
// reproduction). Hyperdimensional bipolar/binary vectors live in package
// hdc; this package handles the real-valued side.
package tensor

import (
	"fmt"
	"math"
	"strings"
)

// Tensor is a dense row-major float32 tensor. The zero value is not usable;
// construct via New, Zeros, Full, FromSlice, or the random constructors.
type Tensor struct {
	// Data holds the elements in row-major order. It is exported so hot
	// loops (conv kernels, HDC binding) can operate on the raw slice.
	Data []float32
	// shape holds the dimension sizes. It is private so it can only change
	// through Reshape, which validates the element count.
	shape []int
}

// New allocates a zero-filled tensor with the given shape.
func New(shape ...int) *Tensor {
	n := checkShape("New", shape)
	return &Tensor{Data: make([]float32, n), shape: append([]int(nil), shape...)}
}

// Ones allocates a tensor filled with 1.
func Ones(shape ...int) *Tensor { return Full(1, shape...) }

// Full allocates a tensor filled with value v.
func Full(v float32, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = v
	}
	return t
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied); callers that need isolation should copy first.
func FromSlice(data []float32, shape ...int) *Tensor {
	n := checkShape("FromSlice", shape)
	if n != len(data) {
		panic(fmt.Sprintf("tensor.FromSlice: shape %v needs %d elements, got %d", shape, n, len(data)))
	}
	return &Tensor{Data: data, shape: append([]int(nil), shape...)}
}

// checkShape validates a shape and returns the element count. The panic
// message formats a COPY of the shape: passing the slice itself to fmt
// would make every caller's variadic shape argument escape to the heap,
// breaking the zero-alloc contract of the arena-backed hot paths.
func checkShape(op string, shape []int) int {
	if len(shape) == 0 {
		panic("tensor." + op + ": empty shape")
	}
	n := 1
	for _, s := range shape {
		if s <= 0 {
			panic(fmt.Sprintf("tensor.%s: non-positive dimension in shape %v",
				op, append([]int(nil), shape...)))
		}
		n *= s
	}
	return n
}

// Shape returns a copy of the tensor's shape.
func (t *Tensor) Shape() []int { return append([]int(nil), t.shape...) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.Data) }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.Data, t.Data)
	return c
}

// Reshape returns a view with a new shape covering the same data. The
// element count must match. The returned tensor shares Data with t.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := checkShape("Reshape", shape)
	if n != len(t.Data) {
		panic(fmt.Sprintf("tensor.Reshape: cannot reshape %v (%d elems) to %v (%d elems)",
			t.shape, len(t.Data), shape, n))
	}
	return &Tensor{Data: t.Data, shape: append([]int(nil), shape...)}
}

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float32 { return t.Data[t.offset("At", idx)] }

// Set stores v at the given multi-index.
func (t *Tensor) Set(v float32, idx ...int) { t.Data[t.offset("Set", idx)] = v }

// offset converts a multi-index into a flat offset with bounds checking.
func (t *Tensor) offset(op string, idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor.%s: index %v does not match rank of shape %v", op, idx, t.shape))
	}
	off := 0
	for i, ix := range idx {
		if ix < 0 || ix >= t.shape[i] {
			panic(fmt.Sprintf("tensor.%s: index %v out of range for shape %v", op, idx, t.shape))
		}
		off = off*t.shape[i] + ix
	}
	return off
}

// Row returns row i of a 2-D tensor as a slice view into Data.
func (t *Tensor) Row(i int) []float32 {
	if len(t.shape) != 2 {
		panic(fmt.Sprintf("tensor.Row: want rank 2, have shape %v", t.shape))
	}
	cols := t.shape[1]
	return t.Data[i*cols : (i+1)*cols]
}

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.shape) != len(o.shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != o.shape[i] {
			return false
		}
	}
	return true
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// Zero sets every element to 0.
func (t *Tensor) Zero() { t.Fill(0) }

// String renders small tensors fully and large tensors as a summary; it is
// meant for debugging and test failure messages, not serialization.
func (t *Tensor) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Tensor%v", t.shape)
	if len(t.Data) <= 32 {
		b.WriteString("{")
		for i, v := range t.Data {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%.4g", v)
		}
		b.WriteString("}")
	} else {
		mn, mx := t.MinMax()
		fmt.Fprintf(&b, "{n=%d min=%.4g max=%.4g mean=%.4g}", len(t.Data), mn, mx, t.Mean())
	}
	return b.String()
}

// MinMax returns the minimum and maximum elements.
func (t *Tensor) MinMax() (float32, float32) {
	mn, mx := t.Data[0], t.Data[0]
	for _, v := range t.Data[1:] {
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	return mn, mx
}

// Mean returns the arithmetic mean of all elements.
func (t *Tensor) Mean() float32 {
	var s float64
	for _, v := range t.Data {
		s += float64(v)
	}
	return float32(s / float64(len(t.Data)))
}

// Norm returns the L2 norm of all elements viewed as one vector.
func (t *Tensor) Norm() float32 {
	var s float64
	for _, v := range t.Data {
		s += float64(v) * float64(v)
	}
	return float32(math.Sqrt(s))
}

// HasNaN reports whether any element is NaN or infinite; used by training
// loops to fail fast on divergence.
func (t *Tensor) HasNaN() bool {
	for _, v := range t.Data {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			return true
		}
	}
	return false
}
