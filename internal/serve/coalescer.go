package serve

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/hdc"
	"repro/internal/infer"
	"repro/internal/lat"
	"repro/internal/tensor"
)

// Probe is one classification request: a single embedding in the dense
// and/or packed representation. Which representation is required depends
// on the backend behind the coalescer: dense-consuming backends (float,
// crossbar) need Dense; the packed-binary backend takes either (a dense
// probe is sign-packed at admission). The coalescer copies what it
// retains at admission, so the caller may reuse the probe's buffers the
// moment Classify returns — even on context cancellation.
type Probe struct {
	Dense  []float32
	Packed *hdc.Binary
}

// request is one admitted probe waiting for its batch to flush.
type request struct {
	dense  []float32
	packed *hdc.Binary
	k      int
	ctx    context.Context // caller's deadline, checked again at drain
	enq    time.Time       // admission time: queue-wait stage timing
	out    chan reply      // buffered (1): the flusher never blocks on a gone caller
}

type reply struct {
	res   infer.Result
	epoch uint64 // class-memory epoch of the querier that served the batch
	err   error
}

// querierBox wraps the swappable querier behind one pointer so
// SwapQuerier can atomically publish a new engine while in-flight
// batches finish on the old one.
type querierBox struct{ q Querier }

// Coalescer merges single-probe Classify calls into engine batches and
// demultiplexes the per-probe results back to the waiting callers. One
// goroutine owns admission; each flushed batch executes on its own
// goroutine, in one of MaxInFlight execution slots, against the shared
// concurrency-safe Querier — a local infer.Engine or a dist.Router over
// shard processes. Dispatch is work-conserving: a pending batch flushes
// the moment a slot is free, so an idle service never holds a probe,
// and probes coalesce (up to MaxBatch) only while every slot is busy.
//
// Overload behavior: with Config.Watermark set, a request arriving
// while the admission queue already holds Watermark undispatched probes
// is shed immediately with ErrOverloaded (never queued, never executed),
// keeping the queue depth — and therefore the queueing latency of every
// accepted request — bounded no matter the offered load. Requests whose
// caller context is already done when their batch drains are dropped
// before any engine/shard work is spent on them.
type Coalescer struct {
	cur      atomic.Pointer[querierBox]
	cfg      Config
	needs    infer.Representation
	dim      int
	reqs     chan *request
	loopDone chan struct{}

	mu        sync.RWMutex // guards closed vs. senders on reqs
	closed    bool
	exec      sync.WaitGroup // in-flight batch executions
	execSlots chan struct{}  // semaphore: one token per executing batch (cap MaxInFlight)
	asm       sync.Pool      // *batchScratch: pooled input-assembly buffers

	// serving counters (atomics; largestBatch guarded by statMu)
	requests, rejected             atomic.Uint64
	shed, cancelled                atomic.Uint64
	batches, full, freeSlot, drain atomic.Uint64
	probesServed                   atomic.Uint64
	depth                          atomic.Int64 // admitted, not yet dispatched
	statMu                         sync.Mutex
	largestBatch                   int

	// per-stage latency histograms (lock-free; see internal/lat)
	queueWait lat.Hist
	readout   lat.Hist
}

// NewCoalescer wraps a shared querier — a local infer.Engine or a
// dist.Router — with a micro-batching front. The zero Config takes the
// defaults (MaxBatch 32, 2×GOMAXPROCS execution slots, blocking
// backpressure).
func NewCoalescer(q Querier, cfg Config) *Coalescer {
	cfg = cfg.withDefaults()
	// Shedding keeps at most Watermark requests queued, so admission
	// below the watermark never blocks on the channel.
	queue := cfg.Watermark
	if queue == 0 {
		queue = 4 * cfg.MaxBatch
	}
	c := &Coalescer{
		cfg:       cfg,
		needs:     q.Requires(),
		dim:       q.Dim(),
		reqs:      make(chan *request, queue),
		loopDone:  make(chan struct{}),
		execSlots: make(chan struct{}, cfg.MaxInFlight),
	}
	c.cur.Store(&querierBox{q: q})
	c.asm.New = func() any { return new(batchScratch) }
	go c.loop()
	return c
}

// Querier returns the underlying shared querier (the current one, after
// a SwapQuerier).
func (c *Coalescer) Querier() Querier { return c.cur.Load().q }

// SwapQuerier atomically replaces the querier behind the coalescer —
// the seam through which an in-process stack (the benchmark harness's
// traced replay) swaps in the engine of a newer epoch: batches
// dispatched before the swap finish on the old querier, batches
// dispatched after it run on the new one, and no request ever observes
// a half-swapped state. The new querier must
// consume the same probe representation at the same dimensionality
// (admission normalized every queued probe to that geometry already);
// anything else returns ErrIncompatibleSwap and leaves the old querier
// serving. The class count may grow but never shrink: monotonic growth
// is exactly a live-enrollment epoch publish flowing through the swap
// seam, while a shrink would dangle class indices that in-flight
// responses and caches already reference.
func (c *Coalescer) SwapQuerier(q Querier) error {
	if q.Dim() != c.dim {
		return fmt.Errorf("%w: new querier has d=%d, coalescer admits d=%d",
			ErrIncompatibleSwap, q.Dim(), c.dim)
	}
	if q.Requires() != c.needs {
		return fmt.Errorf("%w: new querier consumes representation %v, coalescer admits %v",
			ErrIncompatibleSwap, q.Requires(), c.needs)
	}
	if have := c.cur.Load().q.Classes(); q.Classes() < have {
		return fmt.Errorf("%w: new querier has %d classes, coalescer serves %d (class count may only grow)",
			ErrIncompatibleSwap, q.Classes(), have)
	}
	c.cur.Store(&querierBox{q: q})
	return nil
}

// Config returns the effective admission policy.
func (c *Coalescer) Config() Config { return c.cfg }

// Classify submits one probe and blocks until its batch has been scored,
// returning the probe's top-k hits in engine order (score descending,
// ties by ascending class index). k < 1 defaults to 1; k above the class
// count is clamped. Classify is safe for any number of concurrent
// callers — that is the point: callers bring single probes, the
// coalescer recovers batched throughput underneath them.
//
// Under overload (Config.Watermark exceeded) Classify fails fast with
// ErrOverloaded instead of queuing.
func (c *Coalescer) Classify(ctx context.Context, p Probe, k int) (infer.Result, error) {
	res, _, err := c.ClassifyEpoch(ctx, p, k)
	return res, err
}

// Epoch reports the class-memory epoch of the querier currently behind
// the coalescer (0 when the querier predates live enrollment). The
// /stats path reads it; response tagging reads the per-batch value
// instead, from the same querier box that served the batch.
func (c *Coalescer) Epoch() uint64 { return queryEpoch(c.cur.Load().q) }

// queryEpoch extracts the optional epoch stamp from a querier — both
// *infer.Engine and *dist.Router carry one; anything else reports the
// frozen epoch 0.
func queryEpoch(q Querier) uint64 {
	if e, ok := q.(interface{ Epoch() uint64 }); ok {
		return e.Epoch()
	}
	return 0
}

// ClassifyEpoch is Classify also reporting the class-memory epoch that
// served the probe. The epoch is read from the same atomically loaded
// querier box that executed the batch, so the tag can never mix with a
// ranking from a different epoch — the contract the distributed chaos
// test checks byte-for-byte against a per-epoch oracle.
func (c *Coalescer) ClassifyEpoch(ctx context.Context, p Probe, k int) (infer.Result, uint64, error) {
	if k < 1 {
		k = 1
	}
	r := &request{dense: p.Dense, packed: p.Packed, k: k, ctx: ctx, out: make(chan reply, 1)}
	if err := c.admitProbe(r); err != nil {
		c.rejected.Add(1)
		return infer.Result{}, 0, err
	}

	// Load shedding: bound the admission queue depth. The increment is
	// optimistic — concurrent arrivals may transiently overshoot the
	// watermark by the number of in-flight Classify calls racing here,
	// each of which immediately backs out — so the steady-state depth
	// the drain loop observes never exceeds the watermark.
	if c.cfg.Watermark > 0 {
		if c.depth.Add(1) > int64(c.cfg.Watermark) {
			c.depth.Add(-1)
			c.shed.Add(1)
			return infer.Result{}, 0, ErrOverloaded
		}
	} else {
		c.depth.Add(1)
	}
	r.enq = time.Now()

	// Enqueue under a read lock so Close cannot close reqs mid-send.
	c.mu.RLock()
	if c.closed {
		c.mu.RUnlock()
		c.depth.Add(-1)
		c.rejected.Add(1)
		return infer.Result{}, 0, ErrClosed
	}
	select {
	case c.reqs <- r:
		c.mu.RUnlock()
	case <-ctx.Done():
		c.mu.RUnlock()
		c.depth.Add(-1)
		c.rejected.Add(1)
		return infer.Result{}, 0, ctx.Err()
	}
	c.requests.Add(1)

	select {
	case rep := <-r.out:
		return rep.res, rep.epoch, rep.err
	case <-ctx.Done():
		// The flusher delivers into the buffered channel (or drops the
		// request at drain time, now that it can see ctx is done); either
		// way the reply is simply discarded.
		return infer.Result{}, 0, ctx.Err()
	}
}

// admitProbe validates the probe against the backend's representation
// and dimensionality, normalizing it to the batch representation (dense
// probes for packed backends are sign-packed here, on the caller's
// goroutine, so the admission loop stays cheap). The retained probe is
// always a private copy: a caller may reuse its buffer the moment
// Classify returns — including on context cancellation, when the flush
// still executes after the caller has moved on.
func (c *Coalescer) admitProbe(r *request) error {
	switch c.needs {
	case infer.RepDense:
		if r.dense == nil {
			return fmt.Errorf("%w: backend %q consumes dense probes, none provided",
				ErrBadProbe, c.Querier().Name())
		}
		if len(r.dense) != c.dim {
			return fmt.Errorf("%w: embedding has %d components, backend %q expects %d",
				ErrBadProbe, len(r.dense), c.Querier().Name(), c.dim)
		}
		r.dense = append([]float32(nil), r.dense...)
	case infer.RepPacked:
		if r.packed == nil {
			if r.dense == nil {
				return fmt.Errorf("%w: no probe provided", ErrBadProbe)
			}
			if len(r.dense) != c.dim {
				return fmt.Errorf("%w: embedding has %d components, backend %q expects %d",
					ErrBadProbe, len(r.dense), c.Querier().Name(), c.dim)
			}
			r.packed = infer.PackSign(tensor.FromSlice(r.dense, 1, c.dim))[0]
		} else if r.packed.Dim() != c.dim {
			return fmt.Errorf("%w: packed probe has dim %d, backend %q expects %d",
				ErrBadProbe, r.packed.Dim(), c.Querier().Name(), c.dim)
		} else {
			r.packed = r.packed.Clone()
		}
	}
	return nil
}

// Close stops admission, flushes any pending probes, and waits for
// in-flight batches to finish. Subsequent Classify calls return
// ErrClosed. Close is idempotent.
func (c *Coalescer) Close() {
	c.mu.Lock()
	already := c.closed
	c.closed = true
	if !already {
		close(c.reqs)
	}
	c.mu.Unlock()
	<-c.loopDone
	c.exec.Wait()
}

// Stats snapshots the serving counters and stage histograms.
func (c *Coalescer) Stats() Stats {
	s := Stats{
		Requests:     c.requests.Load(),
		Rejected:     c.rejected.Load(),
		Shed:         c.shed.Load(),
		Cancelled:    c.cancelled.Load(),
		Batches:      c.batches.Load(),
		FullFlushes:  c.full.Load(),
		SlotFlushes:  c.freeSlot.Load(),
		DrainFlushes: c.drain.Load(),
		InFlight:     int64(len(c.execSlots)),
		QueueDepth:   c.depth.Load(),
	}
	if s.Batches > 0 {
		s.MeanBatch = float64(c.probesServed.Load()) / float64(s.Batches)
	}
	qw, ro := c.queueWait.Snapshot(), c.readout.Snapshot()
	s.QueueWait, s.Readout = &qw, &ro
	c.statMu.Lock()
	s.LargestBatch = c.largestBatch
	c.statMu.Unlock()
	return s
}

// loop owns admission and is work-conserving: a pending batch is
// dispatched the moment an execution slot is free, and keeps absorbing
// arrivals (up to MaxBatch) only while every slot is busy. Batching is
// therefore a by-product of backpressure, never of a timer — an idle
// service answers a lone probe at once, a saturated one runs full
// batches. A full batch stops admission until a slot frees: that is the
// backpressure chain that turns a slow backend into queue depth (and
// queue depth, at the watermark, into shedding) instead of into an
// unbounded pile of concurrent batches.
func (c *Coalescer) loop() {
	defer close(c.loopDone)
	pending := make([]*request, 0, c.cfg.MaxBatch)
	for {
		// A nil channel is never ready: nothing pending means nothing to
		// flush, a full batch means nothing more to admit.
		in, slot := c.reqs, c.execSlots
		if len(pending) == 0 {
			slot = nil
		} else if len(pending) == c.cfg.MaxBatch {
			in = nil
		}
		select {
		case slot <- struct{}{}:
			why := &c.freeSlot
			if len(pending) == c.cfg.MaxBatch {
				why = &c.full
			}
			c.dispatch(pending, why)
			pending = make([]*request, 0, c.cfg.MaxBatch)
		case r, ok := <-in:
			// Greedy drain: pull everything already queued without going
			// back through the scheduler, up to the batch cap.
			for ok {
				pending = append(pending, r)
				if len(pending) == c.cfg.MaxBatch {
					break
				}
				select {
				case r, ok = <-in:
					continue
				default:
				}
				break
			}
			if !ok { // Close: flush what is pending and exit
				if len(pending) > 0 {
					c.execSlots <- struct{}{}
					c.dispatch(pending, &c.drain)
				}
				return
			}
		}
	}
}

// dispatch records stats for a flushed batch — why is the flush-reason
// counter it falls under — and executes it on its own goroutine against
// the shared engine. The caller has already acquired the batch's
// execution slot; the goroutine releases it.
func (c *Coalescer) dispatch(batch []*request, why *atomic.Uint64) {
	c.depth.Add(-int64(len(batch)))
	c.batches.Add(1)
	c.probesServed.Add(uint64(len(batch)))
	why.Add(1)
	c.statMu.Lock()
	if len(batch) > c.largestBatch {
		c.largestBatch = len(batch)
	}
	c.statMu.Unlock()

	c.exec.Add(1)
	go func() {
		defer c.exec.Done()
		defer func() { <-c.execSlots }()
		c.execute(batch)
	}()
}

// execute drops requests whose caller is already gone, assembles the
// engine batch in the backend's representation, queries at the largest
// k any caller asked for, and demultiplexes the per-probe results.
//
//hdc:hotpath
func (c *Coalescer) execute(batch []*request) {
	// Deadline propagation: a request whose context expired while it
	// waited in the queue gets no embed/readout/shard work spent on it —
	// its caller has already returned. Filter in place before sizing the
	// engine batch.
	now := time.Now()
	live := batch[:0]
	for _, r := range batch {
		if r.ctx != nil && r.ctx.Err() != nil {
			c.cancelled.Add(1)
			r.out <- reply{err: r.ctx.Err()}
			continue
		}
		c.queueWait.Observe(now.Sub(r.enq))
		live = append(live, r) //hdc:allow hotpathalloc live filters batch in place, so capacity is batch's backing array
	}
	if len(live) == 0 {
		return
	}

	kmax := 1
	for _, r := range live {
		if r.k > kmax {
			kmax = r.k
		}
	}

	bs := c.asm.Get().(*batchScratch)
	var eb *infer.Batch
	if c.needs == infer.RepPacked {
		bs.grow(len(live), 0)
		packed := bs.packed[:len(live)]
		for i, r := range live {
			packed[i] = r.packed
		}
		eb = infer.PackedBatch(packed)
	} else {
		bs.grow(0, len(live)*c.dim)
		dense := tensor.FromSlice(bs.flat[:len(live)*c.dim], len(live), c.dim)
		for i, r := range live {
			copy(dense.Row(i), r.dense)
		}
		eb = infer.DenseBatch(dense)
	}

	// One atomic load serves the whole batch: the ranking and its epoch
	// tag always come from the same querier box, even mid-swap. Queriers
	// whose epoch can advance underneath a published instance (the dist
	// router enrolls live) return the epoch with the ranking, pinned to
	// the same class-memory state; for the rest (engines are built at a
	// fixed epoch) reading the stamp after the query cannot race.
	box := c.cur.Load()
	start := time.Now()
	var results []infer.Result
	var epoch uint64
	var err error
	if eq, ok := box.q.(interface {
		TryQueryEpoch(*infer.Batch, int) ([]infer.Result, uint64, error)
	}); ok {
		results, epoch, err = eq.TryQueryEpoch(eb, kmax)
	} else {
		results, err = box.q.TryQuery(eb, kmax)
		epoch = queryEpoch(box.q)
	}
	c.readout.Observe(time.Since(start))
	// The querier reads the batch synchronously and result storage is
	// fresh (TryQuery), so the assembly buffers are reusable as soon as
	// the call returns — before the replies are even delivered.
	c.putScratch(bs)
	if err != nil {
		for _, r := range live {
			r.out <- reply{err: err}
		}
		return
	}
	for i, r := range live {
		top := results[i].TopK
		if r.k < len(top) {
			top = top[:r.k]
		}
		r.out <- reply{res: infer.Result{TopK: top}, epoch: epoch}
	}
}

// batchScratch holds one execute call's input-assembly buffers (the
// pointer-gather slice for packed backends, the dense staging matrix for
// float backends). Pooled on Coalescer.asm so steady-state batches
// assemble without allocating, while concurrent executes each check out
// their own instance.
type batchScratch struct {
	packed []*hdc.Binary
	flat   []float32
}

//hdc:coldpath amortized assembly-scratch growth; the steady state reuses capacity
func (b *batchScratch) grow(nPacked, nFlat int) {
	if cap(b.packed) < nPacked {
		b.packed = make([]*hdc.Binary, nPacked)
	}
	if cap(b.flat) < nFlat {
		b.flat = make([]float32, nFlat)
	}
}

// putScratch drops the probe pointers (so pooled scratch never pins a
// caller's binary past the batch) and returns bs to the pool.
func (c *Coalescer) putScratch(bs *batchScratch) {
	for i := range bs.packed {
		bs.packed[i] = nil
	}
	c.asm.Put(bs)
}
