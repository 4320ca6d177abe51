// Package infer is the batched inference engine that unifies the
// repository's three similarity-readout realizations behind one Backend
// interface:
//
//   - FloatBackend: the reference real-valued cosine path, the semantics
//     of core.SimilarityKernel at evaluation time;
//   - BinaryBackend: the packed XOR+popcount edge path over a sharded
//     hdc.ItemMemory slab (the paper's stationary-binary-weights story);
//   - CrossbarBackend: the analog in-memory-computing path of the §V
//     outlook, programming one imc crossbar tile per shard.
//
// The Engine takes batches of probes, shards the class memory across
// goroutine workers with pooled score buffers, selects per-shard top-k
// candidates, and merges them into globally ordered results. Ordering is
// identical across backends on a frozen model (descending score, ties by
// ascending class index), which the cross-backend parity tests pin down.
// One Engine is safe for any number of concurrent Query callers — the
// per-call working set comes from a sync.Pool — which is what the
// micro-batching serving layer in internal/serve builds on. Every future
// scaling feature — result caching, async serving, multi-node sharding —
// plugs in at this seam.
package infer

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/hdc"
	"repro/internal/tensor"
)

// Typed errors returned by the validating constructors and TryQuery.
// Query and the panicking constructors wrap the same conditions, so
// callers that prefer fail-fast semantics keep them.
var (
	// ErrNoClasses: the backend holds an empty class memory (a degenerate
	// split reached the engine).
	ErrNoClasses = errors.New("backend holds no classes")
	// ErrBatchMismatch: a batch populates both representations but their
	// probe counts disagree, so probe p in one is not probe p in the other.
	ErrBatchMismatch = errors.New("dense/packed probe count mismatch")
	// ErrMissingRepresentation: the batch lacks the probe representation
	// the backend consumes (e.g. a packed-only batch against a dense-only
	// backend).
	ErrMissingRepresentation = errors.New("batch lacks the representation the backend requires")
	// ErrBadQuery: a structurally invalid query (non-positive k, nil or
	// malformed batch).
	ErrBadQuery = errors.New("invalid query")
)

// Representation names a probe representation a Backend consumes. A
// Backend may declare its requirement via the optional Requires method;
// the engine then rejects under-populated batches at the query boundary
// with ErrMissingRepresentation instead of panicking mid-shard.
type Representation int

const (
	// RepDense: the backend reads Batch.Dense (float and crossbar paths).
	// Packed-only batches cannot serve it — bit packing is lossy, so there
	// is no way back to the real-valued probe.
	RepDense Representation = iota
	// RepPacked: the backend reads packed probes. A dense-only batch still
	// satisfies it through lazy sign-packing (Batch.SignPacked).
	RepPacked
)

// String names the representation in error messages.
func (r Representation) String() string {
	switch r {
	case RepDense:
		return "dense"
	case RepPacked:
		return "packed"
	}
	return fmt.Sprintf("Representation(%d)", int(r))
}

// RepresentationRequirer is the optional Backend extension that declares
// which probe representation the backend consumes, enabling fail-fast
// validation at the engine boundary. All three shipped backends
// implement it.
type RepresentationRequirer interface {
	Requires() Representation
}

// Batch is a set of probes presented to the engine. The two fields are
// alternative representations of the same probes; a backend reads the one
// it consumes (FloatBackend/CrossbarBackend need Dense, BinaryBackend
// needs Packed). Populate both to query heterogeneous backends with one
// batch.
type Batch struct {
	// Dense holds the probe embeddings [n, d] for the real-valued paths.
	Dense *tensor.Tensor
	// Packed holds the probes as packed binary hypervectors for the
	// XOR+popcount path.
	Packed []*hdc.Binary

	normsOnce sync.Once
	norms     *tensor.Tensor

	packOnce   sync.Once
	signPacked []*hdc.Binary
}

// DenseBatch wraps embeddings [n, d] as a batch for the dense backends.
func DenseBatch(x *tensor.Tensor) *Batch {
	if x.Rank() != 2 {
		panic(fmt.Sprintf("infer.DenseBatch: want rank-2 embeddings, have %v", x.Shape()))
	}
	return &Batch{Dense: x}
}

// PackedBatch wraps packed binary probes as a batch for BinaryBackend.
func PackedBatch(vs []*hdc.Binary) *Batch { return &Batch{Packed: vs} }

// Len returns the number of probes in the batch.
func (b *Batch) Len() int {
	if b.Dense != nil {
		return b.Dense.Dim(0)
	}
	return len(b.Packed)
}

// Validate checks the batch's structural invariants: dense probes
// rank-2, no nil packed entries, and — when both representations are
// present — matching probe counts (probe p of Dense must be probe p of
// Packed, or backends reading different representations would disagree
// about which probe is which). A batch with neither representation is
// valid and empty.
//
//hdc:coldpath error construction only; the accepting path allocates nothing
func (b *Batch) Validate() error {
	if b == nil {
		return fmt.Errorf("%w: nil batch", ErrBadQuery)
	}
	if b.Dense != nil && b.Dense.Rank() != 2 {
		return fmt.Errorf("%w: dense probes must be rank-2 [n, d], have %v", ErrBadQuery, b.Dense.Shape())
	}
	for i, v := range b.Packed {
		if v == nil {
			return fmt.Errorf("%w: packed probe %d is nil", ErrBadQuery, i)
		}
		if v.Dim() != b.Packed[0].Dim() {
			return fmt.Errorf("%w: packed probe %d has dim %d, probe 0 has dim %d",
				ErrBadQuery, i, v.Dim(), b.Packed[0].Dim())
		}
	}
	if b.Dense != nil && b.Packed != nil {
		if b.Dense.Dim(0) != len(b.Packed) {
			return fmt.Errorf("%w: dense has %d probes, packed has %d",
				ErrBatchMismatch, b.Dense.Dim(0), len(b.Packed))
		}
		if len(b.Packed) > 0 && b.Dense.Dim(1) != b.Packed[0].Dim() {
			return fmt.Errorf("%w: dense probes have dim %d, packed probes have dim %d",
				ErrBatchMismatch, b.Dense.Dim(1), b.Packed[0].Dim())
		}
	}
	return nil
}

// Dim returns the probe dimensionality of the batch, or 0 when empty.
// Validate guarantees the representations agree on it.
func (b *Batch) Dim() int {
	if b.Dense != nil {
		return b.Dense.Dim(1)
	}
	if len(b.Packed) > 0 {
		return b.Packed[0].Dim()
	}
	return 0
}

// Satisfies reports whether the batch can serve a backend consuming the
// given representation: RepDense needs Dense, RepPacked is satisfied by
// either representation (dense probes sign-pack lazily).
func (b *Batch) Satisfies(r Representation) bool {
	switch r {
	case RepDense:
		return b.Dense != nil
	case RepPacked:
		return b.Dense != nil || b.Packed != nil
	}
	return false
}

// DenseNorms returns the L2 norm of each dense probe row, computed once
// per batch and shared by every shard worker (cosine denominators).
func (b *Batch) DenseNorms() *tensor.Tensor {
	b.normsOnce.Do(func() {
		if b.Dense != nil {
			b.norms = tensor.RowNorms(b.Dense)
		}
	})
	return b.norms
}

// SignPacked returns the probes in packed binary form: the explicit
// Packed field when set, otherwise a sign-packed view of Dense computed
// once per batch and shared by every shard worker. Dense-only batches
// therefore work against BinaryBackend without the caller paying the
// packing cost when no binary backend is in play.
func (b *Batch) SignPacked() []*hdc.Binary {
	if b.Packed != nil {
		return b.Packed
	}
	b.packOnce.Do(func() {
		if b.Dense != nil {
			b.signPacked = PackSign(b.Dense)
		}
	})
	return b.signPacked
}

// Backend is one concrete realization of the encode→similarity→readout
// path: a frozen class memory that can score probes against any
// contiguous class range. Scores are "higher is better" and must induce
// the same ranking on every backend built from the same frozen model
// (see the parity tests).
type Backend interface {
	// Name identifies the backend in reports ("float", "binary", "imc").
	Name() string
	// Classes returns the number of stored classes.
	Classes() int
	// Dim returns the probe dimensionality the backend expects.
	Dim() int
	// Label returns the label of class c.
	Label(c int) string
	// ScoreShard scores every probe in batch against classes [lo, hi),
	// writing probe p's score for class c into out[p][c-lo]. out is a
	// caller-owned buffer of batch.Len() rows of width hi-lo, reused
	// across calls; implementations must not retain it.
	ScoreShard(batch *Batch, lo, hi int, out [][]float64)
}

// Hit is one scored class in a query result.
type Hit struct {
	Class int     // class index in the backend's memory
	Label string  // class label
	Score float64 // similarity score, higher is better
}

// Result is the ranked answer for one probe: the top-k hits in
// descending score order, ties broken by ascending class index.
type Result struct {
	TopK []Hit
}

// PackSign packs dense embeddings [n, d] into binary hypervectors by
// sign: a non-negative component maps to bipolar +1 (clear bit), a
// negative one to −1 (set bit). This is the embedding binarization of
// the edge deployment path, where probes must enter the XOR+popcount
// readout as packed words.
func PackSign(x *tensor.Tensor) []*hdc.Binary {
	if x.Rank() != 2 {
		panic(fmt.Sprintf("infer.PackSign: want rank-2 embeddings, have %v", x.Shape()))
	}
	n, d := x.Dim(0), x.Dim(1)
	out := make([]*hdc.Binary, n)
	for i := 0; i < n; i++ {
		b := hdc.NewBinary(d)
		row := x.Row(i)
		for j, v := range row {
			if v < 0 {
				b.SetBit(j, 1)
			}
		}
		out[i] = b
	}
	return out
}
