package dist

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/hdc"
	"repro/internal/infer"
	"repro/internal/lat"
)

// RouterConfig tunes the router's failover and pooling behavior. The
// zero value takes the defaults.
type RouterConfig struct {
	// ShardTimeout bounds one replica attempt (write + reply), default
	// 2s. A replica that blows it is condemned: its connection is torn
	// down and the next replica is tried.
	ShardTimeout time.Duration
	// DialTimeout bounds connection establishment + handshake, default
	// 2s.
	DialTimeout time.Duration
	// BreakerThreshold condemns a replica after this many consecutive
	// failed attempts (dial errors, timeouts, protocol faults): further
	// attempts skip it instantly — no dial, no timeout — until a
	// jittered exponential cool-off admits a single recovery probe.
	// Default 3; negative disables the breaker.
	BreakerThreshold int
	// BreakerBackoff is the first cool-off after a condemnation,
	// default 100ms. Each consecutive condemnation doubles it.
	BreakerBackoff time.Duration
	// BreakerMaxBackoff caps the cool-off growth, default 5s.
	BreakerMaxBackoff time.Duration
}

func (c RouterConfig) withDefaults() RouterConfig {
	if c.ShardTimeout <= 0 {
		c.ShardTimeout = 2 * time.Second
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 2 * time.Second
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerBackoff <= 0 {
		c.BreakerBackoff = 100 * time.Millisecond
	}
	if c.BreakerMaxBackoff <= 0 {
		c.BreakerMaxBackoff = 5 * time.Second
	}
	return c
}

// RouterStats is a snapshot of the router's serving counters.
type RouterStats struct {
	Queries      uint64 `json:"queries"`       // batches routed
	ShardCalls   uint64 `json:"shard_calls"`   // replica round trips attempted
	Failovers    uint64 `json:"failovers"`     // attempts that moved to another replica
	Failed       uint64 `json:"failed"`        // batches that failed on every replica of some shard
	BreakerSkips uint64 `json:"breaker_skips"` // attempts skipped because the replica was condemned
	Enrolls      uint64 `json:"enrolls"`       // epoch flips driven to completion
}

// epochState is the router's published enrollment epoch and everything
// a query needs to serve consistently at it: the global class count and
// label table epoch e implies. One atomic pointer load at the top of
// TryQueryEpoch pins a whole batch to one epoch — every shard leg is
// tagged with it and the merged ranking is labeled from its table — so
// a concurrent enroll can never produce a ranking that mixes epochs.
type epochState struct {
	epoch   uint64
	classes int
	labels  []string
}

// routerShard is one class-range slab and its replica connection pools
// in failover preference order.
type routerShard struct {
	base    int
	classes int
	pools   []*replicaPool
}

// Router is the scatter-gather front of a distributed class memory: it
// fans each probe batch out to every shard concurrently, collects the
// per-shard top-k candidate lists (global class indices, raw score
// bits), and merges them with the engine's own comparator — so the
// ranking a client sees is byte-identical to one engine over the whole
// class memory, at any shard count and any replica layout.
//
// A Router satisfies the serve.Querier seam: the micro-batching
// coalescer fronts it exactly as it fronts a local engine, which is how
// `hdcserve -router` serves /v1/classify from N shard processes without
// the HTTP layer noticing.
//
// Enrollment state lives on the replicas, not here: the router holds
// only its published epoch and label table, rebuilt from a handshake at
// start-up, so a restarted router loses nothing (see Enroll).
type Router struct {
	name    string
	classes int // layout (base-memory) class count; live count is in est
	dim     int
	rep     infer.Representation
	labels  []string // base-memory label table; live table is in est
	shards  []*routerShard
	pools   map[string]*replicaPool // shared per address across shards
	cfg     RouterConfig

	// est is the published enrollment epoch (see epochState). The last
	// shard range is the growing one; the others are frozen at the
	// layout geometry.
	est atomic.Pointer[epochState]

	// emu serializes enrollment flips. The router keeps no enrollment
	// records: the growing range's replica stores hold them all.
	emu sync.Mutex

	scratch sync.Pool // *routeScratch

	closed atomic.Bool

	queries      atomic.Uint64
	shardCalls   atomic.Uint64
	failovers    atomic.Uint64
	failed       atomic.Uint64
	breakerSkips atomic.Uint64
	enrolls      atomic.Uint64
	rtt          lat.Hist // per-attempt shard round-trip latency
}

// routeScratch is one query's working set: a reply slot and encode
// buffer per shard, plus the merge buffer and sorter.
type routeScratch struct {
	replies []shardReply
	bufs    [][]byte
	errs    []error
	merged  []infer.Hit
	sorter  infer.HitSorter
}

// NewRouter connects to the layout's shards and validates every range
// against a live replica's handshake: dimensionality, representation,
// backend name, and slab geometry must agree, and the concatenated
// label tables form the router's global label memory (result frames
// carry no strings). A range whose replicas are all down fails
// construction — a router that cannot cover the class space would
// silently mis-rank.
func NewRouter(layout Layout, cfg RouterConfig) (*Router, error) {
	if err := layout.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	r := &Router{
		name:    layout.Model,
		classes: layout.Classes,
		dim:     layout.Dim,
		labels:  make([]string, layout.Classes),
		pools:   map[string]*replicaPool{},
		cfg:     cfg,
	}
	r.scratch.New = func() any { return new(routeScratch) }
	pool := func(addr string) *replicaPool {
		p, ok := r.pools[addr]
		if !ok {
			p = newReplicaPool(addr, cfg.DialTimeout)
			p.brk = newBreaker(cfg.BreakerThreshold, cfg.BreakerBackoff, cfg.BreakerMaxBackoff)
			r.pools[addr] = p
		}
		return p
	}
	var enrolled []string
	for i, spec := range layout.Shards {
		rs := &routerShard{base: spec.Range[0], classes: spec.Range[1] - spec.Range[0]}
		for _, addr := range spec.Replicas {
			rs.pools = append(rs.pools, pool(addr))
		}
		grow := i == len(layout.Shards)-1
		// Frozen ranges validate against the first replica that answers
		// (the others are dialed lazily on demand). The growing tail
		// range asks every replica and adopts the highest committed
		// epoch — replicas restarting from older WALs lag behind and are
		// served around by failover until they catch up.
		var info *ShardInfo
		var err error
		for _, p := range rs.pools {
			pi, perr := p.info()
			if perr != nil {
				err = perr
				continue
			}
			if info == nil || (grow && pi.Epoch > info.Epoch) {
				info = pi
			}
			if !grow {
				break
			}
		}
		if info == nil {
			r.Close()
			return nil, fmt.Errorf("%w: range [%d, %d): no replica reachable: %v",
				ErrShardDown, spec.Range[0], spec.Range[1], err)
		}
		if enrolled, err = r.adoptInfo(spec, info, grow); err != nil {
			r.Close()
			return nil, err
		}
		r.shards = append(r.shards, rs)
	}
	sort.Slice(r.shards, func(a, b int) bool { return r.shards[a].base < r.shards[b].base })
	st := &epochState{
		epoch:   uint64(len(enrolled)),
		classes: layout.Classes + len(enrolled),
		labels:  append(r.labels[:layout.Classes:layout.Classes], enrolled...),
	}
	r.est.Store(st)
	return r, nil
}

// adoptInfo checks one shard's handshake against the layout and fills
// in the router's identity (name, representation) and label table. For
// the growing tail range it returns the labels of the classes enrolled
// beyond the layout geometry (info.Epoch of them).
func (r *Router) adoptInfo(spec ShardSpec, info *ShardInfo, grow bool) ([]string, error) {
	if info.Dim != r.dim {
		return nil, fmt.Errorf("%w: range %v serves d=%d, layout says %d", ErrLayout, spec.Range, info.Dim, r.dim)
	}
	if r.name == "" {
		r.name = info.Name
	}
	var slab *SlabInfo
	for i := range info.Slabs {
		if info.Slabs[i].Base == spec.Range[0] {
			slab = &info.Slabs[i]
			break
		}
	}
	if slab == nil {
		return nil, fmt.Errorf("%w: replica for range %v does not serve a slab at base %d", ErrLayout, spec.Range, spec.Range[0])
	}
	width := spec.Range[1] - spec.Range[0]
	want := width
	if grow {
		want += int(info.Epoch)
	}
	if slab.Classes != want {
		return nil, fmt.Errorf("%w: range %v slab holds %d classes, want %d (epoch %d)",
			ErrLayout, spec.Range, slab.Classes, want, info.Epoch)
	}
	if len(r.shards) == 0 {
		r.rep = info.Rep
	} else if info.Rep != r.rep {
		return nil, fmt.Errorf("%w: range %v serves representation %v, earlier shards %v", ErrLayout, spec.Range, info.Rep, r.rep)
	}
	copy(r.labels[slab.Base:slab.Base+width], slab.Labels[:width])
	if grow {
		return append([]string(nil), slab.Labels[width:]...), nil
	}
	return nil, nil
}

// Name reports the served backend name (the serve.Querier surface).
func (r *Router) Name() string { return r.name }

// Classes returns the global class count at the published epoch.
func (r *Router) Classes() int { return r.est.Load().classes }

// Epoch returns the published enrollment epoch: every query batch is
// served consistently at this epoch (the serve layer's epoch tag).
func (r *Router) Epoch() uint64 { return r.est.Load().epoch }

// EnrolledTotal returns the number of classes enrolled beyond the
// layout geometry — the router-side analogue of the versioned store's
// counter, surfaced through /stats.
func (r *Router) EnrolledTotal() uint64 { return r.est.Load().epoch }

// Dim returns the probe dimensionality.
func (r *Router) Dim() int { return r.dim }

// Shards returns the shard-range count (the distributed analogue of
// Engine.Workers).
func (r *Router) Shards() int { return len(r.shards) }

// Requires reports the probe representation the shard backends consume.
func (r *Router) Requires() infer.Representation { return r.rep }

// Label returns the label of global class c at the published epoch.
func (r *Router) Label(c int) string { return r.est.Load().labels[c] }

// Stats snapshots the routing counters.
func (r *Router) Stats() RouterStats {
	return RouterStats{
		Queries:      r.queries.Load(),
		ShardCalls:   r.shardCalls.Load(),
		Failovers:    r.failovers.Load(),
		Failed:       r.failed.Load(),
		BreakerSkips: r.breakerSkips.Load(),
		Enrolls:      r.enrolls.Load(),
	}
}

// LatencySnapshots exposes the router's stage timings through the
// serve layer's /stats endpoint (matched there by interface assertion,
// so serve never imports dist).
func (r *Router) LatencySnapshots() map[string]lat.Snapshot {
	return map[string]lat.Snapshot{"shard_rtt": r.rtt.Snapshot()}
}

// Close tears down every pooled connection. In-flight queries fail.
func (r *Router) Close() {
	r.closed.Store(true)
	for _, p := range r.pools {
		p.close()
	}
}

// TryQuery fans batch out to every shard concurrently, with per-shard
// timeouts and bounded replica failover, and merges the candidate
// lists into globally ordered per-probe top-k results — the same
// ordering, tie-breaks included, as one infer.Engine over the whole
// class memory. Results are freshly allocated (the coalescer's demux
// hands them to waiting callers); everything else in the call reuses
// pooled scratch. Safe for any number of concurrent callers.
//
//hdc:hotpath
func (r *Router) TryQuery(batch *infer.Batch, k int) ([]infer.Result, error) {
	res, _, err := r.TryQueryEpoch(batch, k)
	return res, err
}

// TryQueryEpoch is TryQuery returning the enrollment epoch the batch
// was served at. The epoch is pinned by one atomic load before the
// scatter, every shard leg carries it, and the returned tag is that
// same value — a ranking and its epoch can never disagree, even with
// enrollments flipping concurrently.
//
//hdc:hotpath
func (r *Router) TryQueryEpoch(batch *infer.Batch, k int) ([]infer.Result, uint64, error) {
	if r.closed.Load() {
		return nil, 0, ErrClosed
	}
	if err := batch.Validate(); err != nil {
		return nil, 0, err
	}
	n := batch.Len()
	if n == 0 {
		return nil, r.est.Load().epoch, nil
	}
	if k <= 0 {
		return nil, 0, errBadK(k)
	}
	if !batch.Satisfies(r.rep) {
		return nil, 0, errRepUnsatisfied(r.rep)
	}
	if d := batch.Dim(); d != r.dim {
		return nil, 0, errDimMismatch(d, r.dim)
	}
	st := r.est.Load()
	if k > st.classes {
		k = st.classes
	}
	r.queries.Add(1)

	sc := r.scratch.Get().(*routeScratch)
	sc.ensure(len(r.shards))

	// Scatter: one goroutine per shard range, each with its own reply
	// slot, encode buffer, and failover loop.
	var wg sync.WaitGroup
	for si := range r.shards {
		wg.Add(1)
		go func(si, k int) { //hdc:allow hotpathalloc one goroutine and closure per shard per query is the fan-out design
			defer wg.Done()
			sc.errs[si] = r.callShard(r.shards[si], st, si == len(r.shards)-1, batch, k, &sc.replies[si], &sc.bufs[si])
		}(si, k)
	}
	wg.Wait()
	for si, err := range sc.errs {
		if err != nil {
			r.failed.Add(1)
			s := r.shards[si]
			r.scratch.Put(sc)
			return nil, 0, errRangeDown(s.base, s.classes, err)
		}
	}

	// Gather: merge per-shard candidates per probe — concatenate, sort
	// with the engine's comparator (a total order: global class indices
	// are distinct), copy the top k. One backing allocation serves every
	// result's TopK, exactly like the engine's phase 2.
	results := make([]infer.Result, n) //hdc:allow hotpathalloc results are caller-owned by contract, mirroring Engine.TryQuery
	backing := make([]infer.Hit, n*k)  //hdc:allow hotpathalloc results are caller-owned by contract, mirroring Engine.TryQuery
	if cap(sc.merged) < len(r.shards)*k {
		sc.merged = make([]infer.Hit, 0, len(r.shards)*k) //hdc:allow hotpathalloc amortized merge-scratch growth; the steady state reuses capacity
	}
	merged := sc.merged
	for p := 0; p < n; p++ {
		merged = merged[:0]
		for si := range sc.replies {
			rep := &sc.replies[si]
			merged = append(merged, rep.hits[p*rep.kStride:p*rep.kStride+rep.counts[p]]...) //hdc:allow hotpathalloc capacity reserved above: shards contribute at most shards*k candidates
		}
		sc.sorter.H = merged
		sort.Sort(&sc.sorter)
		kk := k
		if kk > len(merged) {
			kk = len(merged)
		}
		top := backing[p*k : p*k+kk : (p+1)*k]
		copy(top, merged[:kk])
		for i := range top {
			top[i].Label = st.labels[top[i].Class]
		}
		results[p] = infer.Result{TopK: top}
	}
	sc.merged = merged
	r.scratch.Put(sc)
	return results, st.epoch, nil
}

// callShard runs one shard range's scatter leg: clamp k to the slab
// width (the growing tail range is st.epoch classes wider than the
// layout says), then try each replica once, in preference order, until
// one answers within the timeout. Every attempt is tagged with the
// pinned epoch; a replica that has not committed it yet refuses and the
// next replica is tried. The reply slot is safe to
// reuse across attempts because a timed-out attempt kills its
// connection and waits for the reader to acknowledge before returning
// (see clientConn.roundTrip).
//
//hdc:hotpath
func (r *Router) callShard(s *routerShard, st *epochState, grow bool, batch *infer.Batch, k int, out *shardReply, buf *[]byte) error {
	width := s.classes
	if grow {
		width += int(st.epoch)
	}
	kk := k
	if kk > width {
		kk = width
	}
	out.kStride = kk
	var lastErr error
	for a, p := range s.pools {
		// Circuit breaker: a condemned replica costs nothing — no dial,
		// no timeout — the attempt moves straight to the next replica.
		if !p.brk.allow() {
			r.breakerSkips.Add(1)
			if lastErr == nil {
				lastErr = errCondemned(p.addr)
			}
			continue
		}
		if a > 0 {
			r.failovers.Add(1)
		}
		r.shardCalls.Add(1)
		conn, err := p.get()
		if err != nil {
			p.brk.failure()
			lastErr = err
			continue
		}
		start := time.Now()
		b, err := conn.roundTrip(*buf, st.epoch, s.base, kk, r.rep, batch, r.cfg.ShardTimeout, out)
		r.rtt.Observe(time.Since(start))
		*buf = b
		if err == nil {
			if out.n != batch.Len() {
				p.brk.failure()
				return errReplyCount(out.n, batch.Len())
			}
			p.brk.success()
			return nil
		}
		p.brk.failure()
		lastErr = err
	}
	return lastErr
}

// Enroll drives one class enrollment through the two-phase epoch flip
// and returns the epoch at which the class is queryable cluster-wide.
//
// The replicas' stores are the only enrollment history: the router
// keeps none. Before its own flip, Enroll asks the growing range's
// replicas for a record at the next epoch. One that holds a different
// enrollment there is an unfinished flip — staged, or committed with
// the ack lost, by a router that then failed — and is rolled forward
// first, published at that epoch, so the caller's enrollment lands one
// epoch later. A retry of the same label and words finds its own record
// and lands once, through the idempotent prepare.
//
// Phase 1 prepares the epoch on every admissible replica: each acked
// prepare is WAL-durable on its replica before the ack. A replica whose
// committed epoch lags is first caught up, epoch by epoch, with records
// read from a peer's store. Phase 2 commits on the prepared replicas;
// the first commit ack makes the enrollment queryable somewhere, and
// only then does the router publish the new epoch — queries tagged with
// it fail over until they land on a committed replica, so a ranking can
// never show a class no shard serves.
//
// The epoch number is the idempotent enroll request ID end to end:
// replicas ack duplicate prepares/commits of the same content cleanly
// and refuse the same epoch with different content, so a crashed and
// retried flip can never double-enroll (see classmem.Prepare). Clean
// refusals are answers, not faults: they never count against a
// replica's circuit breaker.
func (r *Router) Enroll(label string, proto *hdc.Binary) (uint64, error) {
	if r.closed.Load() {
		return 0, ErrClosed
	}
	if proto.Dim() != r.dim {
		return 0, fmt.Errorf("%w: enroll dim %d, distributed class memory expects %d", infer.ErrBadQuery, proto.Dim(), r.dim)
	}
	r.emu.Lock()
	defer r.emu.Unlock()
	f := &flip{r: r, failed: map[*replicaPool]bool{}}
	for _, p := range r.shards[len(r.shards)-1].pools {
		if p.brk.allow() {
			f.pools = append(f.pools, p)
		} else {
			r.breakerSkips.Add(1)
			f.lastErr = errCondemned(p.addr)
		}
	}
	rec := &EnrollRecord{
		Epoch: r.est.Load().epoch + 1,
		Label: label,
		Words: append([]uint64(nil), proto.Words()...),
	}
	if staged := f.read(rec.Epoch, nil); staged != nil && (staged.Label != rec.Label || !slices.Equal(staged.Words, rec.Words)) {
		if err := f.publish(staged); err != nil {
			return 0, err
		}
		rec.Epoch++
	}
	if err := f.publish(rec); err != nil {
		return 0, err
	}
	return rec.Epoch, nil
}

// flip is one Enroll call's view of the growing range: the replicas the
// breaker admitted, in preference order, minus those a round trip
// failed on since.
type flip struct {
	r       *Router
	pools   []*replicaPool
	failed  map[*replicaPool]bool
	lastErr error
}

// publish drives rec through prepare and commit on the admitted
// replicas and publishes it as the router's epoch.
func (f *flip) publish(rec *EnrollRecord) error {
	var prepared []*replicaPool
	for _, p := range f.pools {
		if f.prepare(p, rec) {
			prepared = append(prepared, p)
		}
	}
	if len(prepared) == 0 {
		return fmt.Errorf("%w: enroll %q at epoch %d: no replica prepared: %v", ErrShardDown, rec.Label, rec.Epoch, f.lastErr)
	}
	committed := 0
	for _, p := range prepared {
		if f.ack(p, opCommit, rec) {
			committed++
		}
	}
	if committed == 0 {
		// Staged (WAL-durable) but published nowhere: the next Enroll
		// reads it back from a replica and finishes it first.
		return fmt.Errorf("%w: enroll %q at epoch %d: prepared on %d replicas but no commit acked: %v",
			ErrShardDown, rec.Label, rec.Epoch, len(prepared), f.lastErr)
	}
	r := f.r
	st := r.est.Load()
	labels := append(st.labels[:st.classes:st.classes], rec.Label)
	r.est.Store(&epochState{epoch: rec.Epoch, classes: st.classes + 1, labels: labels})
	r.enrolls.Add(1)
	return nil
}

// prepare stages rec on p. A clean refusal whose committed epoch lags
// rec's predecessor is a gap: each missing epoch is read from a peer's
// store and prepared and committed on p, then rec is prepared again.
func (f *flip) prepare(p *replicaPool, rec *EnrollRecord) bool {
	rep, ok := f.call(p, opPrepare, rec)
	if !ok || rep.OK {
		return ok
	}
	if rep.Committed+1 >= rec.Epoch {
		return f.refused(p, opPrepare, rec, rep)
	}
	for e := rep.Committed + 1; e < rec.Epoch; e++ {
		old := f.read(e, p)
		if old == nil {
			f.lastErr = fmt.Errorf("%w: replica %s is at epoch %d and no peer holds epoch %d", ErrShardDown, p.addr, e-1, e)
			return false
		}
		if !f.ack(p, opPrepare, old) || !f.ack(p, opCommit, old) {
			return false
		}
	}
	return f.ack(p, opPrepare, rec)
}

// read returns the record of epoch from the first admitted replica
// other than skip, in preference order, that holds it.
func (f *flip) read(epoch uint64, skip *replicaPool) *EnrollRecord {
	for _, p := range f.pools {
		if p == skip {
			continue
		}
		if rep, ok := f.call(p, opRecord, &EnrollRecord{Epoch: epoch}); ok && rep.OK && rep.Record.Epoch == epoch {
			return rep.Record
		}
	}
	return nil
}

// ack sends one prepare or commit and reports whether it was accepted.
func (f *flip) ack(p *replicaPool, op byte, rec *EnrollRecord) bool {
	rep, ok := f.call(p, op, rec)
	if ok && !rep.OK {
		return f.refused(p, op, rec, rep)
	}
	return ok
}

// refused records a clean refusal as the flip's last error and
// returns false.
func (f *flip) refused(p *replicaPool, op byte, rec *EnrollRecord, rep flipReply) bool {
	verb := "prepare"
	if op == opCommit {
		verb = "commit"
	}
	f.lastErr = fmt.Errorf("%w: replica %s refused %s of epoch %d (at %d)", ErrShardDown, p.addr, verb, rec.Epoch, rep.Committed)
	return false
}

// call runs one control round trip on p and feeds its breaker: a reply,
// refusals included, is a success; a dial, transport, or remote error is
// a failure and takes p out of the rest of this flip.
func (f *flip) call(p *replicaPool, op byte, rec *EnrollRecord) (flipReply, bool) {
	if f.failed[p] {
		return flipReply{}, false
	}
	conn, err := p.get()
	if err == nil {
		f.r.shardCalls.Add(1)
		var rep flipReply
		if rep, err = conn.flipTrip(op, rec, f.r.cfg.ShardTimeout); err == nil {
			p.brk.success()
			return rep, true
		}
	}
	p.brk.failure()
	f.failed[p] = true
	f.lastErr = err
	return flipReply{}, false
}

// ensure sizes the per-shard scratch slots.
//
//hdc:coldpath amortized scratch growth; the steady state reuses capacity
func (sc *routeScratch) ensure(shards int) {
	if cap(sc.replies) < shards {
		sc.replies = make([]shardReply, shards)
		sc.bufs = make([][]byte, shards)
		sc.errs = make([]error, shards)
	}
	sc.replies = sc.replies[:shards]
	sc.bufs = sc.bufs[:shards]
	sc.errs = sc.errs[:shards]
	for i := range sc.errs {
		sc.errs[i] = nil
	}
}

// Cold error constructors for rejected queries.

//hdc:coldpath error construction for rejected queries
func errBadK(k int) error {
	return fmt.Errorf("%w: non-positive k=%d", infer.ErrBadQuery, k)
}

//hdc:coldpath error construction for rejected queries
func errRepUnsatisfied(rep infer.Representation) error {
	return fmt.Errorf("%w: shards consume %s probes, batch does not satisfy it", infer.ErrMissingRepresentation, rep)
}

//hdc:coldpath error construction for rejected queries
func errDimMismatch(have, want int) error {
	return fmt.Errorf("%w: probe dim %d, distributed class memory expects %d", infer.ErrBadQuery, have, want)
}

//hdc:coldpath error construction for malformed replies
func errReplyCount(have, want int) error {
	return fmt.Errorf("%w: shard replied for %d probes, batch has %d", ErrProtocol, have, want)
}

//hdc:coldpath error construction for exhausted scatter legs
func errRangeDown(base, classes int, err error) error {
	return fmt.Errorf("%w: range [%d, %d): %v", ErrShardDown, base, base+classes, err)
}
