package classmem

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/hdc"
	"repro/internal/infer"
)

// liveCache bounds the engines one Live view keeps. A local server only
// queries the published epoch, and a shard's queries trail it by at most
// the flip in flight, so two cover the steady state; a miss only costs a
// rebuild.
const liveCache = 2

// Live serves one backend of a Versioned store over the class range
// [lo, base+epoch), base being the store's frozen class count: the
// whole memory when lo is 0, or the growing tail range of a shard. It is
// a serve.Querier. Engines are pulled, not pushed: enrollment only
// appends to the store, and the engine for an epoch is built by the
// first query that reaches it. Published rows are immutable, so an
// engine over epoch e's prefix stays exact however far the store has
// grown since.
type Live struct {
	v    *Versioned
	name string
	lo   int
	opts []infer.Option

	hot atomic.Pointer[infer.Engine] // newest cached epoch: the lock-free hit

	mu    sync.Mutex
	cache []*infer.Engine // the liveCache newest epochs built
}

// Live returns a view serving backend name ("float", "binary", "imc")
// over classes [lo, base+epoch) at every committed epoch. opts
// configure each engine; the view stamps its epoch. The published
// epoch's engine is built now, so a bad name or range fails here.
func (v *Versioned) Live(name string, lo int, opts ...infer.Option) (*Live, error) {
	if lo < 0 || lo >= v.base {
		return nil, fmt.Errorf("classmem: live range starts at class %d of a %d-class base memory", lo, v.base)
	}
	l := &Live{v: v, name: name, lo: lo, opts: opts}
	if _, err := l.build(v.Epoch()); err != nil {
		return nil, err
	}
	return l, nil
}

// At returns the engine serving epoch e, which must be committed.
//
//hdc:hotpath
func (l *Live) At(e uint64) (*infer.Engine, error) {
	if h := l.hot.Load(); h.Epoch() == e {
		return h, nil
	}
	return l.build(e)
}

// build is At's miss path: under the lock, find epoch e's engine or
// build it over e's class prefix. The cache keeps the liveCache newest
// epochs; an epoch older than all of them is served uncached.
//
//hdc:coldpath one engine build per epoch a query reaches; hits stop in At
func (l *Live) build(e uint64) (*infer.Engine, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	oldest := -1
	for i, c := range l.cache {
		if c.Epoch() == e {
			return c, nil
		}
		if oldest < 0 || c.Epoch() < l.cache[oldest].Epoch() {
			oldest = i
		}
	}
	s := l.v.Snapshot()
	if e > s.Epoch {
		return nil, fmt.Errorf("classmem: epoch %d not committed (at %d)", e, s.Epoch)
	}
	n := l.v.base + int(e)
	labels := s.Mem.Labels[:n:n]
	mem := &Memory{Labels: labels, Items: hdc.ItemMemoryFromSlab(l.v.dim, labels, s.Mem.Items.Slab()[:n*l.v.wpv])}
	be, err := mem.Backend(l.name)
	if err != nil {
		return nil, err
	}
	if l.lo > 0 {
		be = infer.NewRangeBackend(be, l.lo, n)
	}
	eng, err := infer.NewChecked(be, append(l.opts[:len(l.opts):len(l.opts)], infer.WithEpoch(e))...)
	if err != nil {
		return nil, err
	}
	switch {
	case len(l.cache) < liveCache:
		l.cache = append(l.cache, eng)
	case e > l.cache[oldest].Epoch():
		l.cache[oldest] = eng
	default:
		return eng, nil
	}
	if h := l.hot.Load(); h == nil || e > h.Epoch() {
		l.hot.Store(eng)
	}
	return eng, nil
}

// TryQueryEpoch answers batch at the published epoch, read with one
// atomic load, and returns that epoch with the ranking.
//
//hdc:hotpath
func (l *Live) TryQueryEpoch(batch *infer.Batch, k int) ([]infer.Result, uint64, error) {
	e := l.v.Epoch()
	eng, err := l.At(e)
	if err != nil {
		return nil, 0, err
	}
	res, err := eng.TryQuery(batch, k)
	return res, e, err
}

// TryQuery is TryQueryEpoch without the epoch.
func (l *Live) TryQuery(batch *infer.Batch, k int) ([]infer.Result, error) {
	res, _, err := l.TryQueryEpoch(batch, k)
	return res, err
}

// Name returns the served backend's name.
func (l *Live) Name() string { return l.name }

// Classes returns the view's class count at the published epoch.
func (l *Live) Classes() int { return l.v.base + int(l.v.Epoch()) - l.lo }

// Dim returns the hypervector dimensionality.
func (l *Live) Dim() int { return l.v.dim }

// Requires reports the probe representation the backend consumes.
func (l *Live) Requires() infer.Representation { return l.hot.Load().Requires() }

// Workers returns the engines' shard-worker count.
func (l *Live) Workers() int { return l.hot.Load().Workers() }

// Epoch, EnrolledTotal and WALBytes read the store's gauges through the
// view, for the /stats surface.
func (l *Live) Epoch() uint64         { return l.v.Epoch() }
func (l *Live) EnrolledTotal() uint64 { return l.v.EnrolledTotal() }
func (l *Live) WALBytes() int64       { return l.v.WALBytes() }

// Store returns the versioned store the view serves.
func (l *Live) Store() *Versioned { return l.v }

// First returns the global index of the view's first class.
func (l *Live) First() int { return l.lo }
