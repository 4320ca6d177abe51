package tensor

import (
	"math"
	"math/rand"
)

// Randn fills a new tensor of the given shape with samples from
// N(0, stddev²) drawn from rng. All randomness in the repository flows
// through explicit *rand.Rand values so experiments are reproducible.
func Randn(rng *rand.Rand, stddev float32, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = float32(rng.NormFloat64()) * stddev
	}
	return t
}

// RandUniform fills a new tensor with samples from U[lo, hi).
func RandUniform(rng *rand.Rand, lo, hi float32, shape ...int) *Tensor {
	t := New(shape...)
	span := hi - lo
	for i := range t.Data {
		t.Data[i] = lo + span*rng.Float32()
	}
	return t
}

// Rademacher fills a new tensor with ±1 entries, each sign chosen with
// probability ½. This is the atomic-hypervector distribution used by the
// HDC attribute encoder (paper §III-A); package hdc has a packed-bit
// variant, this one is for the real-valued training path.
func Rademacher(rng *rand.Rand, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		if rng.Int63()&1 == 0 {
			t.Data[i] = 1
		} else {
			t.Data[i] = -1
		}
	}
	return t
}

// HeInit returns Kaiming-He normal initialization for a weight tensor with
// the given fan-in: N(0, sqrt(2/fanIn)). Standard for ReLU networks.
func HeInit(rng *rand.Rand, fanIn int, shape ...int) *Tensor {
	return Randn(rng, float32(math.Sqrt(2/float64(fanIn))), shape...)
}
