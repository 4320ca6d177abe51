// Package attrenc implements the two attribute encoders the paper
// compares: the stationary HDC codebook encoder (the contribution,
// §III-A) and the trainable two-layer MLP reference (the "Trainable-MLP"
// rows of Table II and Fig. 4).
//
// Both satisfy the core.AttributeEncoder contract: map a class-attribute
// matrix A ∈ R^{C×α} to embeddings Φ ∈ R^{C×d}, optionally propagate
// gradients (a no-op for the stationary HDC encoder), and report their
// trainable parameters (none for HDC).
package attrenc

import (
	"fmt"
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/hdc"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// HDCEncoder is the paper's attribute encoder: two stationary codebooks
// of atomic Rademacher hypervectors — one per attribute group (g₁…g_G)
// and one per attribute value (v₁…v_V) — from which the α attribute-level
// codevectors are materialized on the fly by binding, b_x = g_y ⊙ v_z.
// The encoder is ϕ(A) = A·B with B ∈ {−1,+1}^{α×d}; it has zero trainable
// parameters and its atomic storage is (G+V)·d bits.
type HDCEncoder struct {
	Schema *dataset.Schema
	Groups *hdc.Codebook // G×d
	Values *hdc.Codebook // V×d
	// B is the materialized attribute dictionary [α, d] in float form for
	// the training path. The packed path rematerializes rows on demand.
	B   *tensor.Tensor
	dim int
}

// NewHDCEncoder builds the encoder for the given schema and
// dimensionality d, with codebooks drawn from rng (stationary
// thereafter). Materializing B here trades (α−G−V)·d bits of transient
// memory for speed on the training path; the deployment story stores
// only the codebooks (see MemoryFootprint).
func NewHDCEncoder(rng *rand.Rand, schema *dataset.Schema, d int) *HDCEncoder {
	if d <= 0 {
		panic(fmt.Sprintf("attrenc.NewHDCEncoder: non-positive dimension %d", d))
	}
	groupNames := make([]string, schema.NumGroups())
	for i, g := range schema.Groups {
		groupNames[i] = g.Name
	}
	e := &HDCEncoder{
		Schema: schema,
		Groups: hdc.NewCodebook(rng, d, groupNames),
		Values: hdc.NewCodebook(rng, d, schema.Values),
		dim:    d,
	}
	alpha := schema.Alpha()
	e.B = tensor.New(alpha, d)
	for a := 0; a < alpha; a++ {
		g := e.Groups.At(schema.AttrGroup[a])
		v := e.Values.At(schema.AttrValue[a])
		row := e.B.Row(a)
		for i := 0; i < d; i++ {
			row[i] = float32(g[i] * v[i])
		}
	}
	return e
}

// Encode computes ϕ(A) = A·B, mapping [C, α] class attributes to [C, d]
// embeddings. train is ignored — the encoder is stationary.
func (e *HDCEncoder) Encode(a *tensor.Tensor, train bool) *tensor.Tensor {
	if a.Rank() != 2 || a.Dim(1) != e.Schema.Alpha() {
		panic(fmt.Sprintf("attrenc.HDCEncoder.Encode: want [C, %d], have %v", e.Schema.Alpha(), a.Shape()))
	}
	return tensor.MatMul(a, e.B)
}

// Backward is a no-op: the codebooks are stationary (gray modules of
// Fig. 1).
func (e *HDCEncoder) Backward(dPhi *tensor.Tensor) {}

// Params returns nil: the HDC encoder contributes zero trainable
// parameters, the source of the paper's parameter-efficiency claims.
func (e *HDCEncoder) Params() []*nn.Param { return nil }

// OutDim returns the embedding dimensionality d.
func (e *HDCEncoder) OutDim() int { return e.dim }

// Name identifies the encoder in reports.
func (e *HDCEncoder) Name() string { return "HDC" }

// Dictionary returns the materialized attribute dictionary B [α, d]; the
// phase-II attribute-extraction task scores images against its rows.
func (e *HDCEncoder) Dictionary() *tensor.Tensor { return e.B }

// AttrVector rematerializes the attribute codevector b_x = g_y ⊙ v_z for
// flattened attribute index x in packed binary form — the storage-free
// on-the-fly binding of the deployment path.
func (e *HDCEncoder) AttrVector(x int) *hdc.Binary {
	g := hdc.FromBipolar(e.Groups.At(e.Schema.AttrGroup[x]))
	v := hdc.FromBipolar(e.Values.At(e.Schema.AttrValue[x]))
	return g.Xor(v)
}

// MemoryFootprint reports the §III-A storage accounting for this
// encoder's topology and dimension.
func (e *HDCEncoder) MemoryFootprint() hdc.MemoryFootprint {
	return hdc.NewMemoryFootprint(e.Schema.NumGroups(), e.Schema.NumValues(), e.Schema.Alpha(), e.dim)
}

// ClassPrototype bundles the codevectors g ⊙ v of a class's dominant
// attributes (one per group, by maximum certainty), bound on the bipolar
// side, into the packed item-memory entry of the edge-inference path.
func (e *HDCEncoder) ClassPrototype(rng *rand.Rand, classAttr []float32) *hdc.Binary {
	acc, bound := hdc.NewAccumulator(e.dim), make(hdc.Bipolar, e.dim)
	for g := range e.Schema.Groups {
		off := e.Schema.GroupAttrOffset[g]
		best, bestV := 0, float32(-1)
		for vi := range e.Schema.Groups[g].Values {
			if classAttr[off+vi] > bestV {
				bestV, best = classAttr[off+vi], vi
			}
		}
		e.Groups.At(g).BindInto(e.Values.At(e.Schema.AttrValue[off+best]), bound)
		acc.Add(bound)
	}
	return hdc.FromBipolar(acc.Threshold(rng))
}
