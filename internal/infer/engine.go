package infer

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
)

// Engine executes batched queries against one Backend with the class
// memory sharded into contiguous ranges, one goroutine worker per shard.
// Each shard fills a reusable score buffer and produces its local top-k;
// the engine merges the per-shard candidate lists into globally ordered
// results. An Engine is cheap to build, holds no probe state, and is
// safe for concurrent use: every Query checks out a complete working set
// from a sync.Pool, so any number of goroutines can share one Engine
// (the serving layer in internal/serve does exactly that) while the
// steady state stays allocation-free.
type Engine struct {
	backend Backend
	workers int
	epoch   uint64
	ranges  [][2]int
	pool    sync.Pool // *queryScratch, one per in-flight Query
}

// queryScratch is the complete per-call working set: one shardScratch
// per worker plus the merge buffers. Checked out of Engine.pool at the
// top of Query and returned before the results are, so concurrent
// queries never share mutable state.
type queryScratch struct {
	shards []*shardScratch
	counts []int     // valid candidates per probe, per shard
	merged []Hit     // cross-shard merge buffer, reused per probe
	sorter HitSorter // scratch-held sort.Interface for the merge
}

// HitLess is THE result ordering of the engine: descending score, ties
// by ascending class index. It is a total order whenever the class
// indices in play are distinct, which is why the scatter-gather merge —
// in-process across shard workers and cross-process across shard
// servers (internal/dist) — is byte-identical regardless of how the
// class memory is partitioned or in which order candidate lists are
// concatenated.
func HitLess(a, b Hit) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.Class < b.Class
}

// HitSorter is a scratch-held sort.Interface over the engine ordering
// (HitLess). Merge loops keep one per working set and sort through
// sort.Sort on the reused pointer instead of sort.Slice, which would
// box a fresh slice header and closure on every probe. The distributed
// router reuses it so the cross-process merge is the same code path.
type HitSorter struct{ H []Hit }

func (s *HitSorter) Len() int           { return len(s.H) }
func (s *HitSorter) Swap(a, b int)      { s.H[a], s.H[b] = s.H[b], s.H[a] }
func (s *HitSorter) Less(a, b int) bool { return HitLess(s.H[a], s.H[b]) }

// shardScratch is the per-shard reusable working set: the score matrix
// rows handed to Backend.ScoreShard and the local top-k candidates.
type shardScratch struct {
	flat   []float64   // backing array for scores, n*width
	scores [][]float64 // row views into flat
	cands  []Hit       // n*k local candidates, kk valid per probe
}

// Option configures an Engine.
type Option func(*Engine)

// WithWorkers overrides the worker/shard count (default
// runtime.NumCPU(), capped at the class count).
func WithWorkers(n int) Option {
	return func(e *Engine) { e.workers = n }
}

// WithEpoch stamps the engine with the class-memory epoch it was built
// from (classmem.Versioned publishes epoch e as the base memory plus e
// enrolled classes). The engine itself is immutable either way; the
// stamp is how the serving layer tags each ranking with the memory
// version that produced it, the exact analogue of Param.Version keying
// packed weight panels.
func WithEpoch(e uint64) Option {
	return func(eng *Engine) { eng.epoch = e }
}

// New builds an engine over backend. The class memory is split into
// `workers` contiguous shards of near-equal width. It panics on an empty
// class set; NewChecked is the error-returning variant for callers that
// may legitimately see degenerate inputs.
func New(backend Backend, opts ...Option) *Engine {
	e, err := NewChecked(backend, opts...)
	if err != nil {
		panic("infer.New: " + err.Error())
	}
	return e
}

// NewChecked builds an engine over backend like New but reports an empty
// class set as ErrNoClasses instead of panicking — the path serving
// layers and degenerate evaluation splits take.
func NewChecked(backend Backend, opts ...Option) (*Engine, error) {
	e := &Engine{backend: backend, workers: runtime.NumCPU()}
	for _, opt := range opts {
		opt(e)
	}
	c := backend.Classes()
	if c <= 0 {
		return nil, fmt.Errorf("%w (backend %q)", ErrNoClasses, backend.Name())
	}
	if e.workers < 1 {
		e.workers = 1
	}
	if e.workers > c {
		e.workers = c
	}
	e.ranges = SplitRanges(c, e.workers)
	e.pool.New = func() any {
		qs := &queryScratch{
			shards: make([]*shardScratch, e.workers),
			counts: make([]int, e.workers),
		}
		for i := range qs.shards {
			qs.shards[i] = &shardScratch{}
		}
		return qs
	}
	return e, nil
}

// SplitRanges partitions [0, classes) into `shards` contiguous
// near-equal ranges: the first (classes % shards) ranges get one extra
// class. This is the canonical class-space split — the in-process
// engine shards with it, and distributed shard layouts built with the
// same rule line up exactly with the single-process reference.
func SplitRanges(classes, shards int) [][2]int {
	if shards < 1 {
		shards = 1
	}
	if shards > classes {
		shards = classes
	}
	ranges := make([][2]int, 0, shards)
	base, extra := classes/shards, classes%shards
	lo := 0
	for i := 0; i < shards; i++ {
		w := base
		if i < extra {
			w++
		}
		ranges = append(ranges, [2]int{lo, lo + w})
		lo += w
	}
	return ranges
}

// Backend returns the engine's backend.
func (e *Engine) Backend() Backend { return e.backend }

// Workers returns the number of shard workers.
func (e *Engine) Workers() int { return e.workers }

// Epoch returns the class-memory epoch the engine was built from (0 for
// a frozen memory never enrolled into). Both *Engine and the
// distributed router satisfy `interface{ Epoch() uint64 }`, which is
// how the serving layer reads the tag without widening the Querier
// seam.
func (e *Engine) Epoch() uint64 { return e.epoch }

// Name, Classes, and Dim delegate to the backend, so an *Engine
// satisfies the same descriptive surface a distributed router exposes
// (the serve.Querier seam: the coalescer fronts either one).
func (e *Engine) Name() string { return e.backend.Name() }

// Classes returns the backend's class count.
func (e *Engine) Classes() int { return e.backend.Classes() }

// Dim returns the backend's probe dimensionality.
func (e *Engine) Dim() int { return e.backend.Dim() }

// Requires reports the probe representation the backend consumes
// (RepDense when the backend does not declare one — the historical
// serving-layer default).
func (e *Engine) Requires() Representation {
	if rr, ok := e.backend.(RepresentationRequirer); ok {
		return rr.Requires()
	}
	return RepDense
}

// ShardSelector is an optional fast path a Backend may implement to fuse
// scoring and top-k selection into one pass over a shard, skipping the
// generic float64 score buffer. SelectShard must write, for each probe p,
// its best min(k, hi-lo) hits into cands[p*k : p*k+kk] ordered exactly
// like the generic path (descending score, ties by ascending class
// index) and return kk. The engine uses it transparently when present.
type ShardSelector interface {
	SelectShard(batch *Batch, lo, hi, k int, cands []Hit) int
}

// ResultBuf is caller-owned result storage for allocation-free querying:
// QueryInto writes its results (and their TopK backing) into the buffer,
// growing it only when a larger batch/k arrives, so the steady state of
// a serving loop allocates nothing. Results returned through a buffer
// are valid until the buffer's next use; callers that hand results to
// other goroutines must use Query (fresh storage) instead. A ResultBuf
// is not safe for concurrent use — one per querying goroutine.
type ResultBuf struct {
	results []Result
	backing []Hit
}

// take returns n results with k-wide TopK slices backed by the buffer.
//
//hdc:coldpath amortized ResultBuf growth; the steady state reuses capacity
func (rb *ResultBuf) take(n, k int) []Result {
	if cap(rb.results) < n {
		rb.results = make([]Result, n)
	}
	if cap(rb.backing) < n*k {
		rb.backing = make([]Hit, n*k)
	}
	rb.results = rb.results[:n]
	rb.backing = rb.backing[:n*k]
	return rb.results
}

// Query scores every probe in batch against the full class memory and
// returns, per probe, the top-k classes in descending score order (ties
// by ascending class index). k is clamped to the class count. Query is
// safe for concurrent callers on one shared Engine; it panics on invalid
// input — TryQuery is the error-returning variant.
func (e *Engine) Query(batch *Batch, k int) []Result {
	res, err := e.TryQuery(batch, k)
	if err != nil {
		panic("infer.Engine.Query: " + err.Error())
	}
	return res
}

// QueryInto is Query writing results into the caller's ResultBuf: the
// allocation-free steady-state path for tight readout loops that consume
// results before the buffer's next use.
//
//hdc:hotpath
func (e *Engine) QueryInto(batch *Batch, k int, buf *ResultBuf) []Result {
	res, err := e.TryQueryInto(batch, k, buf)
	if err != nil {
		panic("infer.Engine.QueryInto: " + err.Error())
	}
	return res
}

// TryQuery is Query with boundary validation reported as typed errors
// instead of panics: a malformed batch (ErrBadQuery, ErrBatchMismatch),
// a batch lacking the representation the backend consumes
// (ErrMissingRepresentation), or a non-positive k (ErrBadQuery) fail
// fast here, before any shard worker touches the probes.
func (e *Engine) TryQuery(batch *Batch, k int) ([]Result, error) {
	return e.TryQueryInto(batch, k, nil)
}

// TryQueryInto is TryQuery writing into buf when non-nil (see QueryInto);
// with a nil buf every call returns freshly allocated results.
func (e *Engine) TryQueryInto(batch *Batch, k int, buf *ResultBuf) ([]Result, error) {
	if err := batch.Validate(); err != nil {
		return nil, err
	}
	n := batch.Len()
	if n == 0 {
		return nil, nil
	}
	if k <= 0 {
		return nil, errNonPositiveK(k)
	}
	if rr, ok := e.backend.(RepresentationRequirer); ok {
		if r := rr.Requires(); !batch.Satisfies(r) {
			return nil, errMissingRep(e.backend, r, batch)
		}
	}
	if d := batch.Dim(); d != e.backend.Dim() {
		// Caught here so the mismatch surfaces as a typed error instead of
		// an unrecoverable panic inside a shard worker goroutine.
		return nil, errDimMismatch(e.backend, d)
	}
	if c := e.backend.Classes(); k > c {
		k = c
	}

	qs := e.pool.Get().(*queryScratch)

	// Phase 1: shard workers score their class range and keep local top-k.
	if e.workers == 1 {
		qs.counts[0] = e.runShard(0, qs.shards[0], batch, k)
	} else {
		var wg sync.WaitGroup
		for si := range e.ranges {
			wg.Add(1)
			// k passed as an argument, not captured: a captured k (it is
			// reassigned by the clamp above) would be boxed on every call,
			// breaking the zero-alloc steady state of the 1-shard path.
			go func(si, k int) { //hdc:allow hotpathalloc one goroutine and closure per shard per query is the fan-out design
				defer wg.Done()
				qs.counts[si] = e.runShard(si, qs.shards[si], batch, k)
			}(si, k)
		}
		wg.Wait()
	}

	// Phase 2: merge per-shard candidates into global top-k per probe.
	// One backing allocation (or the caller's ResultBuf) serves every
	// result's TopK slice.
	var results []Result
	var backing []Hit
	if buf != nil {
		results = buf.take(n, k)
		backing = buf.backing
	} else {
		results = make([]Result, n) //hdc:allow hotpathalloc nil-buf calls return caller-owned results by documented contract
		backing = make([]Hit, n*k)  //hdc:allow hotpathalloc nil-buf calls return caller-owned results by documented contract
	}
	if cap(qs.merged) < e.workers*k {
		qs.merged = make([]Hit, 0, e.workers*k) //hdc:allow hotpathalloc amortized merge-scratch growth; the steady state reuses capacity
	}
	merged := qs.merged
	for p := 0; p < n; p++ {
		top := backing[p*k : (p+1)*k : (p+1)*k]
		if e.workers == 1 {
			// Single shard: its candidate list is already the global order.
			copy(top, qs.shards[0].cands[p*k:p*k+k])
		} else {
			merged = merged[:0]
			for si := range e.ranges {
				merged = append(merged, qs.shards[si].cands[p*k:p*k+qs.counts[si]]...) //hdc:allow hotpathalloc capacity reserved above: shards contribute at most workers*k candidates
			}
			qs.sorter.H = merged
			sort.Sort(&qs.sorter)
			copy(top, merged[:k])
		}
		for i := range top {
			top[i].Label = e.backend.Label(top[i].Class)
		}
		results[p] = Result{TopK: top}
	}
	qs.merged = merged
	e.pool.Put(qs)
	return results, nil
}

// batchContents names the representations a batch carries, for error
// messages.
//
//hdc:coldpath diagnostic string building for rejected queries
func batchContents(b *Batch) string {
	switch {
	case b.Dense != nil && b.Packed != nil:
		return "dense+packed"
	case b.Dense != nil:
		return "dense"
	case b.Packed != nil:
		return "packed"
	}
	return "nothing"
}

// Predict returns the top-1 class index per probe.
func (e *Engine) Predict(batch *Batch) []int {
	res := e.Query(batch, 1)
	out := make([]int, len(res))
	for i, r := range res {
		out[i] = r.TopK[0].Class
	}
	return out
}

// runShard scores shard si into the supplied scratch and fills its local
// candidate buffer; it returns the number of valid candidates per probe
// (min(k, shard width)).
func (e *Engine) runShard(si int, s *shardScratch, batch *Batch, k int) int {
	lo, hi := e.ranges[si][0], e.ranges[si][1]
	width := hi - lo
	n := batch.Len()

	if cap(s.cands) < n*k {
		s.cands = make([]Hit, n*k) //hdc:allow hotpathalloc amortized shard-scratch growth; the steady state reuses capacity
	}
	s.cands = s.cands[:n*k]

	// Fused fast path: the backend scores and selects in one pass.
	if sel, ok := e.backend.(ShardSelector); ok {
		return sel.SelectShard(batch, lo, hi, k, s.cands)
	}

	// Reuse (or grow) the score buffer.
	if cap(s.flat) < n*width {
		s.flat = make([]float64, n*width) //hdc:allow hotpathalloc amortized shard-scratch growth; the steady state reuses capacity
	}
	s.flat = s.flat[:n*width]
	if len(s.scores) != n || (n > 0 && len(s.scores[0]) != width) {
		if cap(s.scores) < n {
			s.scores = make([][]float64, n) //hdc:allow hotpathalloc amortized shard-scratch growth; the steady state reuses capacity
		}
		s.scores = s.scores[:n]
		for p := 0; p < n; p++ {
			s.scores[p] = s.flat[p*width : (p+1)*width]
		}
	}
	e.backend.ScoreShard(batch, lo, hi, s.scores)

	kk := k
	if kk > width {
		kk = width
	}
	for p := 0; p < n; p++ {
		selectTopK(s.scores[p], lo, s.cands[p*k:p*k+kk])
	}
	return kk
}

// selectTopK writes the len(dst) best (score, class) pairs of row into
// dst, sorted by descending score with ties by ascending class index.
// row[j] is the score of absolute class lo+j. Classes are scanned in
// ascending order and an incoming score must strictly beat the current
// worst to enter a full buffer, which preserves lowest-index tie-breaks
// without comparisons at insert time.
func selectTopK(row []float64, lo int, dst []Hit) {
	k := len(dst)
	count := 0
	for j, sc := range row {
		if count == k && sc <= dst[count-1].Score {
			continue
		}
		// Find insertion position: after any existing entry with score ≥ sc
		// (equal scores keep the earlier, lower-index entry first).
		pos := count
		if pos == k {
			pos = k - 1
		}
		for pos > 0 && dst[pos-1].Score < sc {
			pos--
		}
		if count < k {
			count++
		}
		copy(dst[pos+1:count], dst[pos:count-1])
		dst[pos] = Hit{Class: lo + j, Score: sc}
	}
}

// Cold error constructors: kept out of TryQueryInto's body so the
// accepting path stays free of fmt boxing; each runs only when the
// query is rejected.

//hdc:coldpath error construction for rejected queries
func errNonPositiveK(k int) error {
	return fmt.Errorf("%w: non-positive k=%d", ErrBadQuery, k)
}

//hdc:coldpath error construction for rejected queries
func errMissingRep(b Backend, r Representation, batch *Batch) error {
	return fmt.Errorf("%w: backend %q consumes %s probes, batch carries %s only",
		ErrMissingRepresentation, b.Name(), r, batchContents(batch))
}

//hdc:coldpath error construction for rejected queries
func errDimMismatch(b Backend, d int) error {
	return fmt.Errorf("%w: probe dim %d, backend %q expects %d",
		ErrBadQuery, d, b.Name(), b.Dim())
}
