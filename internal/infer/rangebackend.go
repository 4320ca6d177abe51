package infer

import "fmt"

// NewRangeBackend exposes classes [lo, hi) of a global backend as a
// standalone backend with local class indices [0, hi-lo). This is the
// slab a distributed shard server owns: the shard process builds (or
// maps) the full frozen class memory, wraps its assigned contiguous
// range, and serves it through an ordinary Engine; the router maps the
// local hit indices back to global ones by adding Base.
//
// Scoring goes straight through to the inner backend with the range
// offset applied, so a class's score is computed by exactly the kernel
// (and the cached shard tile) the single-process engine would use —
// the foundation of the distributed path's byte-identical-merge
// contract. The fused ShardSelector fast path is preserved when the
// inner backend implements it, as is the RepresentationRequirer
// declaration.
func NewRangeBackend(inner Backend, lo, hi int) Backend {
	if lo < 0 || hi > inner.Classes() || lo >= hi {
		panic(fmt.Sprintf("infer.NewRangeBackend: bad range [%d, %d) over %d classes",
			lo, hi, inner.Classes()))
	}
	rb := rangeBackend{inner: inner, base: lo, n: hi - lo}
	if _, ok := inner.(ShardSelector); ok {
		return &rangeSelectorBackend{rb}
	}
	return &rb
}

// rangeBackend is the plain sub-range view.
type rangeBackend struct {
	inner Backend
	base  int // global index of local class 0
	n     int // local class count
}

func (b *rangeBackend) Name() string       { return b.inner.Name() }
func (b *rangeBackend) Classes() int       { return b.n }
func (b *rangeBackend) Dim() int           { return b.inner.Dim() }
func (b *rangeBackend) Label(c int) string { return b.inner.Label(b.base + c) }

// Requires passes through the inner backend's declaration, defaulting
// to RepDense when it makes none (the serving layer's historical
// assumption for undeclared backends).
func (b *rangeBackend) Requires() Representation {
	if rr, ok := b.inner.(RepresentationRequirer); ok {
		return rr.Requires()
	}
	return RepDense
}

// ScoreShard scores local classes [lo, hi) by scoring global classes
// [base+lo, base+hi) on the inner backend.
//
//hdc:hotpath
func (b *rangeBackend) ScoreShard(batch *Batch, lo, hi int, out [][]float64) {
	b.inner.ScoreShard(batch, b.base+lo, b.base+hi, out)
}

// rangeSelectorBackend additionally forwards the fused ShardSelector
// fast path; it exists as a separate type so a rangeBackend over a
// non-selecting inner backend does not falsely advertise the interface.
type rangeSelectorBackend struct {
	rangeBackend
}

// SelectShard runs the inner fused path on the offset range and maps
// the returned global class indices back to local ones. The subtraction
// preserves ordering (same offset on every candidate), so the local
// candidate list is ordered exactly like the inner one.
//
//hdc:hotpath
func (b *rangeSelectorBackend) SelectShard(batch *Batch, lo, hi, k int, cands []Hit) int {
	kk := b.inner.(ShardSelector).SelectShard(batch, b.base+lo, b.base+hi, k, cands)
	n := batch.Len()
	for p := 0; p < n; p++ {
		row := cands[p*k : p*k+kk]
		for i := range row {
			row[i].Class -= b.base
		}
	}
	return kk
}
