// Package hdc implements the hyperdimensional-computing core the paper's
// attribute encoder is built on (§II-b, §III-A): dense bipolar and packed
// binary hypervectors, the HDC algebra (binding ⊙, bundling +, permutation
// ρ, unbinding ⊘), similarity measures, codebooks of atomic hypervectors,
// an associative item memory, and the memory-footprint accounting behind
// the paper's 71 %-reduction / 17 KB claims.
//
// Two representations are provided:
//
//   - Bipolar: one int8 per component in {−1, +1}. This is the view used
//     on the training path, where attribute codevectors multiply real
//     class-attribute certainties.
//   - Binary: 64 components per uint64 word with bind = XOR and similarity
//     via popcount Hamming distance. This is the "stationary binary
//     weights/ops" edge-inference path Fig. 1 highlights.
//
// The two are isomorphic under the usual mapping −1 ↔ 1-bit, +1 ↔ 0-bit,
// and conversion helpers plus tests guarantee the algebra commutes with
// the mapping.
package hdc

import (
	"fmt"
	"math"
	"math/rand"
)

// Bipolar is a dense bipolar hypervector with components in {−1, +1}.
// (Bundling intermediates may hold other integers; see Accumulator.)
type Bipolar []int8

// NewRandomBipolar samples a d-dimensional hypervector from the Rademacher
// distribution (each component ±1 with probability ½), the atomic
// hypervector distribution of §III-A.
func NewRandomBipolar(rng *rand.Rand, d int) Bipolar {
	if d <= 0 {
		panic(fmt.Sprintf("hdc.NewRandomBipolar: non-positive dimension %d", d))
	}
	v := make(Bipolar, d)
	// Draw 63 random bits at a time; one Int63 call serves 63 components.
	var bits int64
	var have int
	for i := range v {
		if have == 0 {
			bits = rng.Int63()
			have = 63
		}
		if bits&1 == 0 {
			v[i] = 1
		} else {
			v[i] = -1
		}
		bits >>= 1
		have--
	}
	return v
}

// Dim returns the dimensionality of the hypervector.
func (v Bipolar) Dim() int { return len(v) }

// BindInto computes the variable-binding product v ⊙ o into dst
// without allocating (elementwise multiplication for dense bipolar
// vectors, per Schmuck et al. [30]). Binding two Rademacher vectors
// yields a vector quasi-orthogonal to both, and binding is its own
// inverse: (a⊙b)⊙b = a. dst may alias v or o.
func (v Bipolar) BindInto(o, dst Bipolar) {
	checkDims("BindInto", len(v), len(o))
	checkDims("BindInto", len(v), len(dst))
	for i := range v {
		dst[i] = v[i] * o[i]
	}
}

// Permute rotates the components of v by k positions (the ρ operation).
// Permutation preserves quasi-orthogonality and is used to encode order.
func (v Bipolar) Permute(k int) Bipolar {
	out := make(Bipolar, len(v))
	v.PermuteInto(k, out)
	return out
}

// PermuteInto rotates v by k positions into dst without allocating.
// dst must not overlap v.
func (v Bipolar) PermuteInto(k int, dst Bipolar) {
	checkDims("PermuteInto", len(v), len(dst))
	d := len(v)
	k = ((k % d) + d) % d
	copy(dst, v[d-k:])
	copy(dst[k:], v[:d-k])
}

// Cosine returns the cosine similarity between two bipolar vectors,
// which for ±1 components equals the normalized dot product.
func (v Bipolar) Cosine(o Bipolar) float64 {
	checkDims("Cosine", len(v), len(o))
	var dot, nv, no int64
	for i := range v {
		dot += int64(v[i]) * int64(o[i])
		nv += int64(v[i]) * int64(v[i])
		no += int64(o[i]) * int64(o[i])
	}
	if nv == 0 || no == 0 {
		return 0
	}
	return float64(dot) / (math.Sqrt(float64(nv)) * math.Sqrt(float64(no)))
}

// Hamming returns the number of disagreeing components.
func (v Bipolar) Hamming(o Bipolar) int {
	checkDims("Hamming", len(v), len(o))
	var h int
	for i := range v {
		if v[i] != o[i] {
			h++
		}
	}
	return h
}

// Float32 converts v to a float32 slice for the real-valued training path.
func (v Bipolar) Float32() []float32 {
	out := make([]float32, len(v))
	for i, x := range v {
		out[i] = float32(x)
	}
	return out
}

// Accumulator bundles hypervectors by componentwise integer summation,
// deferring the sign threshold until Threshold is called. This is the
// bundling (+) operation with majority rule.
type Accumulator struct {
	sums []int32
}

// NewAccumulator returns an accumulator for d-dimensional vectors.
func NewAccumulator(d int) *Accumulator {
	if d <= 0 {
		panic(fmt.Sprintf("hdc.NewAccumulator: non-positive dimension %d", d))
	}
	return &Accumulator{sums: make([]int32, d)}
}

// Add accumulates v into the bundle.
func (a *Accumulator) Add(v Bipolar) {
	checkDims("Accumulator.Add", len(a.sums), len(v))
	for i, x := range v {
		a.sums[i] += int32(x)
	}
}

// Threshold finalizes the bundle by majority rule. Zero sums (ties, which
// occur when an even number of vectors is bundled) are broken
// pseudo-randomly from rng so the result stays dense and unbiased, the
// standard construction for binarized bundling [30].
func (a *Accumulator) Threshold(rng *rand.Rand) Bipolar {
	out := make(Bipolar, len(a.sums))
	for i, s := range a.sums {
		switch {
		case s > 0:
			out[i] = 1
		case s < 0:
			out[i] = -1
		default:
			if rng.Int63()&1 == 0 {
				out[i] = 1
			} else {
				out[i] = -1
			}
		}
	}
	return out
}

// Bundle is a convenience wrapper that accumulates vs and thresholds with
// majority rule, breaking ties from rng.
func Bundle(rng *rand.Rand, vs ...Bipolar) Bipolar {
	if len(vs) == 0 {
		panic("hdc.Bundle: no vectors")
	}
	acc := NewAccumulator(len(vs[0]))
	for _, v := range vs {
		acc.Add(v)
	}
	return acc.Threshold(rng)
}

func checkDims(op string, a, b int) {
	if a != b {
		panic(fmt.Sprintf("hdc.%s: dimension mismatch %d vs %d", op, a, b))
	}
}
