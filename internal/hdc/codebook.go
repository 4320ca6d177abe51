package hdc

import (
	"fmt"
	"math/rand"
)

// Codebook is an ordered collection of named atomic hypervectors, e.g. the
// paper's attribute-groups codebook (g₁ … g_G) and attribute-values
// codebook (v₁ … v_V). Codebooks are stationary: they are generated once
// from a seed and never trained.
type Codebook struct {
	names   []string
	vectors []Bipolar
	index   map[string]int
	dim     int
}

// NewCodebook generates a codebook with one Rademacher hypervector of
// dimension d per name. Duplicate names are rejected.
func NewCodebook(rng *rand.Rand, d int, names []string) *Codebook {
	if len(names) == 0 {
		panic("hdc.NewCodebook: no names")
	}
	cb := &Codebook{
		names:   append([]string(nil), names...),
		vectors: make([]Bipolar, len(names)),
		index:   make(map[string]int, len(names)),
		dim:     d,
	}
	for i, n := range names {
		if _, dup := cb.index[n]; dup {
			panic(fmt.Sprintf("hdc.NewCodebook: duplicate name %q", n))
		}
		cb.index[n] = i
		cb.vectors[i] = NewRandomBipolar(rng, d)
	}
	return cb
}

// Len returns the number of entries.
func (c *Codebook) Len() int { return len(c.vectors) }

// Dim returns the hypervector dimensionality.
func (c *Codebook) Dim() int { return c.dim }

// At returns the i-th hypervector (not a copy; callers must not mutate).
func (c *Codebook) At(i int) Bipolar { return c.vectors[i] }

// Name returns the i-th entry's name.
func (c *Codebook) Name(i int) string { return c.names[i] }

// Bytes returns the storage footprint of the codebook if each component is
// stored as one bit (the packed stationary-weights deployment the paper
// assumes when quoting 17 KB for the CUB codebooks).
func (c *Codebook) Bytes() int {
	perVec := (c.dim + 7) / 8
	return perVec * len(c.vectors)
}

// MemoryFootprint describes the storage required by an HDC attribute
// encoder configuration, mirroring the arithmetic of §III-A.
type MemoryFootprint struct {
	Groups, Values, Combos int // G, V, α
	Dim                    int // d
	FactoredBytes          int // storing G+V atomic vectors
	MaterializedBytes      int // storing all α bound combination vectors
}

// NewMemoryFootprint computes the footprint for G groups, V values, α
// group/value combinations at dimension d, with one bit per component.
func NewMemoryFootprint(g, v, alpha, d int) MemoryFootprint {
	perVec := (d + 7) / 8
	return MemoryFootprint{
		Groups: g, Values: v, Combos: alpha, Dim: d,
		FactoredBytes:     (g + v) * perVec,
		MaterializedBytes: alpha * perVec,
	}
}

// Reduction returns the fractional memory saved by storing the two atomic
// codebooks instead of all α materialized combination vectors. For the
// CUB topology (G=28, V=61, α=312) this is ≈ 0.71, the paper's "71 %
// reduction in memory requirement".
func (m MemoryFootprint) Reduction() float64 {
	return 1 - float64(m.FactoredBytes)/float64(m.MaterializedBytes)
}
