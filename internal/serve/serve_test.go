package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/hdc"
	"repro/internal/imc"
	"repro/internal/infer"
	"repro/internal/tensor"
)

// fixture builds a frozen class memory in both representations plus a
// set of dense probes with their serial-path reference results.
type fixture struct {
	phi    *tensor.Tensor
	im     *hdc.ItemMemory
	labels []string
	dense  *tensor.Tensor // [n, d] probes
}

func newFixture(classes, d, probes int, seed int64) *fixture {
	rng := rand.New(rand.NewSource(seed))
	f := &fixture{
		phi:    tensor.Rademacher(rng, classes, d),
		im:     hdc.NewItemMemory(d),
		labels: make([]string, classes),
	}
	for c := 0; c < classes; c++ {
		f.labels[c] = fmt.Sprintf("class%d", c)
		b := hdc.NewBinary(d)
		for j, v := range f.phi.Row(c) {
			if v < 0 {
				b.SetBit(j, 1)
			}
		}
		f.im.Store(f.labels[c], b)
	}
	f.dense = tensor.Randn(rng, 1, probes, d)
	return f
}

func (f *fixture) backends() []infer.Backend {
	return []infer.Backend{
		infer.NewFloatBackend(f.phi, f.labels, 1),
		infer.NewBinaryBackend(f.im),
		infer.NewCrossbarBackend(f.phi, f.labels, 1, imc.Ideal()),
	}
}

// gateQuerier parks every TryQuery until the test opens the gate. Behind
// a coalescer with MaxInFlight: 1 the first parked batch holds the only
// execution slot, so what queues behind it — and how the admission loop
// batches it once the slot frees — is decided by the test, not by the
// scheduler or a sleep.
type gateQuerier struct {
	Querier
	held    chan struct{} // closed when the first TryQuery reaches the gate
	gate    chan struct{} // closed by open: parked and later calls proceed
	once    sync.Once
	batches atomic.Int64
	probes  atomic.Int64 // probes that reached the backend
}

func newGateQuerier(inner Querier) *gateQuerier {
	return &gateQuerier{Querier: inner, held: make(chan struct{}), gate: make(chan struct{})}
}

func (g *gateQuerier) TryQuery(batch *infer.Batch, k int) ([]infer.Result, error) {
	g.once.Do(func() { close(g.held) })
	<-g.gate
	g.batches.Add(1)
	g.probes.Add(int64(batch.Len()))
	return g.Querier.TryQuery(batch, k)
}

func (g *gateQuerier) open() { close(g.gate) }

// holdSlot occupies the single execution slot of a coalescer built over
// g: it submits probe and returns once that probe's batch (of one — the
// slot was free) is parked on the gate. The channel yields the probe's
// Classify error after the gate opens.
func holdSlot(co *Coalescer, g *gateQuerier, probe []float32) <-chan error {
	done := make(chan error, 1)
	go func() {
		_, err := co.Classify(context.Background(), Probe{Dense: probe}, 1)
		done <- err
	}()
	<-g.held
	return done
}

// classifyAll submits rows [from, from+n) of dense, each from its own
// goroutine, and returns a function that waits for all of them and
// reports the first failure.
func classifyAll(co *Coalescer, dense *tensor.Tensor, from, n int) (wait func() error) {
	var wg sync.WaitGroup
	errs := make([]error, n)
	for p := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[p] = co.Classify(context.Background(), Probe{Dense: dense.Row(from + p)}, 1)
		}()
	}
	return func() error {
		wg.Wait()
		for p, err := range errs {
			if err != nil {
				return fmt.Errorf("probe %d: %w", from+p, err)
			}
		}
		return nil
	}
}

// waitFor spins until cond holds; the conditions tests wait on are
// reached by other goroutines making progress, never by time passing.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		runtime.Gosched()
	}
}

// waitAdmitted returns once n probes in total have been admitted and,
// with the slot held by the first, the admission loop has absorbed as
// many of the other n-1 as its pending batch takes — the rest sit in the
// queue. From then on the loop is blocked on the slot and the batching
// of those n-1 probes is fixed.
func waitAdmitted(t *testing.T, co *Coalescer, n int) {
	t.Helper()
	queued := max(0, n-1-co.cfg.MaxBatch)
	waitFor(t, fmt.Sprintf("%d admitted probes", n), func() bool {
		return co.Stats().Requests == uint64(n) && len(co.reqs) == queued
	})
}

// Concurrent single-probe Classify calls through the coalescer must
// return exactly what a direct batched Engine.Query returns for the same
// probes — per backend, under the race detector in CI.
func TestCoalescerParityWithDirectQuery(t *testing.T) {
	const classes, d, probes = 23, 256, 48
	f := newFixture(classes, d, probes, 1)
	for _, be := range f.backends() {
		eng := infer.New(be, infer.WithWorkers(3))
		want := eng.Query(infer.DenseBatch(f.dense), 4)

		co := NewCoalescer(eng, Config{MaxBatch: 8})
		var wg sync.WaitGroup
		errs := make(chan error, probes)
		for p := 0; p < probes; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				res, err := co.Classify(context.Background(), Probe{Dense: f.dense.Row(p)}, 4)
				if err != nil {
					errs <- fmt.Errorf("probe %d: %v", p, err)
					return
				}
				if len(res.TopK) != len(want[p].TopK) {
					errs <- fmt.Errorf("probe %d: %d hits, want %d", p, len(res.TopK), len(want[p].TopK))
					return
				}
				for i := range res.TopK {
					if res.TopK[i] != want[p].TopK[i] {
						errs <- fmt.Errorf("backend %q probe %d rank %d: %+v, want %+v",
							be.Name(), p, i, res.TopK[i], want[p].TopK[i])
						return
					}
				}
			}(p)
		}
		wg.Wait()
		co.Close()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		s := co.Stats()
		if s.Requests != probes {
			t.Fatalf("backend %q: stats report %d requests, want %d", be.Name(), s.Requests, probes)
		}
		if s.Batches == 0 || s.Batches > probes {
			t.Fatalf("backend %q: implausible batch count %d", be.Name(), s.Batches)
		}
	}
}

// Batching is a by-product of backpressure: probes admitted while every
// execution slot is busy run as one batch when a slot frees — exactly one
// batch of K below MaxBatch, full MaxBatch flushes from K upward.
func TestCoalescerMergesConcurrentRequests(t *testing.T) {
	const classes, d, maxBatch = 11, 128, 8
	for _, tc := range []struct {
		k               int // probes admitted behind the held slot
		batches         uint64
		full, slotFlush uint64
		largest         int
	}{
		{k: 5, batches: 2, full: 0, slotFlush: 2, largest: 5},                     // 1 | 5
		{k: maxBatch, batches: 2, full: 1, slotFlush: 1, largest: maxBatch},       // 1 | 8
		{k: 2*maxBatch + 3, batches: 4, full: 2, slotFlush: 2, largest: maxBatch}, // 1 | 8 | 8 | 3
	} {
		t.Run(fmt.Sprintf("K=%d", tc.k), func(t *testing.T) {
			f := newFixture(classes, d, 1+tc.k, 2)
			g := newGateQuerier(infer.New(infer.NewBinaryBackend(f.im), infer.WithWorkers(2)))
			co := NewCoalescer(g, Config{MaxBatch: maxBatch, MaxInFlight: 1})
			defer co.Close()

			held := holdSlot(co, g, f.dense.Row(0))
			wait := classifyAll(co, f.dense, 1, tc.k)
			waitAdmitted(t, co, 1+tc.k)
			if s := co.Stats(); s.Batches != 1 || s.InFlight != 1 {
				t.Fatalf("with the slot held: %d batches, %d in flight, want 1 and 1 (%+v)", s.Batches, s.InFlight, s)
			}
			g.open()
			if err := wait(); err != nil {
				t.Fatal(err)
			}
			if err := <-held; err != nil {
				t.Fatal(err)
			}
			s := co.Stats()
			if s.Batches != tc.batches || s.FullFlushes != tc.full || s.SlotFlushes != tc.slotFlush || s.LargestBatch != tc.largest {
				t.Fatalf("got %d batches (%d full, %d free-slot, largest %d), want %d (%d, %d, %d): %+v",
					s.Batches, s.FullFlushes, s.SlotFlushes, s.LargestBatch,
					tc.batches, tc.full, tc.slotFlush, tc.largest, s)
			}
			if got := g.batches.Load(); uint64(got) != tc.batches {
				t.Fatalf("backend ran %d batches, stats say %d", got, tc.batches)
			}
		})
	}
}

// An idle coalescer holds nothing back: with a free slot a lone probe is
// dispatched at once as a batch of one, however large MaxBatch is.
// (There is no timer that could flush it later — a coalescer that waited
// for company would hang here.)
func TestCoalescerIdleFlushesLoneProbe(t *testing.T) {
	const classes, d = 7, 64
	f := newFixture(classes, d, 1, 3)
	eng := infer.New(infer.NewFloatBackend(f.phi, f.labels, 1))
	co := NewCoalescer(eng, Config{MaxBatch: 1024})
	defer co.Close()

	res, err := co.Classify(context.Background(), Probe{Dense: f.dense.Row(0)}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TopK) != 1 {
		t.Fatalf("got %d hits, want 1", len(res.TopK))
	}
	if s := co.Stats(); s.Batches != 1 || s.LargestBatch != 1 || s.SlotFlushes != 1 || s.FullFlushes != 0 {
		t.Fatalf("lone probe on an idle coalescer: want one free-slot batch of 1, got %+v", s)
	}
}

// Per-request k: callers in the same batch may ask for different k and
// each gets exactly its own prefix of the ranking.
func TestCoalescerPerRequestK(t *testing.T) {
	const classes, d, probes = 13, 64, 6
	f := newFixture(classes, d, probes, 4)
	eng := infer.New(infer.NewFloatBackend(f.phi, f.labels, 1))
	want := eng.Query(infer.DenseBatch(f.dense), classes)
	// One slot, held by probe 0: probes 1..5 share the next batch.
	g := newGateQuerier(eng)
	co := NewCoalescer(g, Config{MaxBatch: probes, MaxInFlight: 1})
	defer co.Close()
	held := holdSlot(co, g, f.dense.Row(0))

	var wg sync.WaitGroup
	for p := 1; p < probes; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			k := 1 + p*2
			if k > classes {
				k = classes
			}
			res, err := co.Classify(context.Background(), Probe{Dense: f.dense.Row(p)}, k)
			if err != nil {
				panic(err)
			}
			if len(res.TopK) != k {
				panic(fmt.Sprintf("probe %d asked k=%d, got %d hits", p, k, len(res.TopK)))
			}
			for i := range res.TopK {
				if res.TopK[i] != want[p].TopK[i] {
					panic(fmt.Sprintf("probe %d rank %d mismatch", p, i))
				}
			}
		}(p)
	}
	waitAdmitted(t, co, probes)
	g.open()
	wg.Wait()
	if err := <-held; err != nil {
		t.Fatal(err)
	}
	if s := co.Stats(); s.LargestBatch != probes-1 {
		t.Fatalf("the %d probes behind the held slot did not share a batch: %+v", probes-1, s)
	}
}

// Bad probes are rejected at admission with ErrBadProbe naming the
// problem; the binary backend accepts dense probes via sign-packing.
func TestCoalescerProbeValidation(t *testing.T) {
	const classes, d = 7, 64
	f := newFixture(classes, d, 2, 5)
	ctx := context.Background()

	floatCo := NewCoalescer(infer.New(infer.NewFloatBackend(f.phi, f.labels, 1)), Config{})
	defer floatCo.Close()
	if _, err := floatCo.Classify(ctx, Probe{Packed: f.im.Vector(0)}, 1); !errors.Is(err, ErrBadProbe) {
		t.Fatalf("packed probe against float backend: err = %v, want ErrBadProbe", err)
	}
	if _, err := floatCo.Classify(ctx, Probe{Dense: make([]float32, d+1)}, 1); !errors.Is(err, ErrBadProbe) {
		t.Fatalf("wrong-dim dense probe: err = %v, want ErrBadProbe", err)
	}
	if _, err := floatCo.Classify(ctx, Probe{}, 1); !errors.Is(err, ErrBadProbe) {
		t.Fatalf("empty probe: err = %v, want ErrBadProbe", err)
	}

	binCo := NewCoalescer(infer.New(infer.NewBinaryBackend(f.im)), Config{})
	defer binCo.Close()
	fromDense, err := binCo.Classify(ctx, Probe{Dense: f.dense.Row(0)}, 1)
	if err != nil {
		t.Fatalf("dense probe against binary backend: %v", err)
	}
	fromPacked, err := binCo.Classify(ctx, Probe{Packed: infer.PackSign(f.dense)[0]}, 1)
	if err != nil {
		t.Fatalf("packed probe against binary backend: %v", err)
	}
	if fromDense.TopK[0] != fromPacked.TopK[0] {
		t.Fatalf("dense (%+v) and packed (%+v) probes disagree", fromDense.TopK[0], fromPacked.TopK[0])
	}
}

// After Close, Classify fails with ErrClosed; probes admitted before
// Close still get answers — those the loop finds still queued when it
// sees the closed channel go out as the drain flush.
func TestCoalescerCloseDrainsAndRejects(t *testing.T) {
	const classes, d, probes = 7, 64, 6
	f := newFixture(classes, d, probes, 6)
	g := newGateQuerier(infer.New(infer.NewFloatBackend(f.phi, f.labels, 1)))
	// MaxBatch 2 with five probes behind the held slot: the loop blocks on
	// the slot with a full pending batch and three queued, so Close lands
	// before any of them runs and the flush order is fixed: 2 | 2 | 1,
	// the last one picked up together with the channel's close.
	co := NewCoalescer(g, Config{MaxBatch: 2, MaxInFlight: 1})

	held := holdSlot(co, g, f.dense.Row(0))
	wait := classifyAll(co, f.dense, 1, probes-1)
	waitAdmitted(t, co, probes)

	closed := make(chan struct{})
	go func() {
		defer close(closed)
		co.Close()
	}()
	waitFor(t, "Close to stop admission", func() bool {
		co.mu.RLock()
		defer co.mu.RUnlock()
		return co.closed
	})
	if _, err := co.Classify(context.Background(), Probe{Dense: f.dense.Row(0)}, 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close Classify err = %v, want ErrClosed", err)
	}
	g.open()
	<-closed // Close returns only after every pending batch has executed
	if err := wait(); err != nil {
		t.Fatalf("pre-close %v", err)
	}
	if err := <-held; err != nil {
		t.Fatalf("in-flight probe: %v", err)
	}
	if s := co.Stats(); s.DrainFlushes != 1 || s.FullFlushes != 2 || s.Batches != 4 {
		t.Fatalf("want batches 1 | 2 | 2 | 1 with the last a drain flush, got %+v", s)
	}
	co.Close() // idempotent
}

// A caller whose context expires while its probe waits for a slot
// unblocks with the context's error, before the batch runs; the
// coalescer keeps serving everyone else.
func TestCoalescerContextCancellation(t *testing.T) {
	const classes, d = 7, 64
	f := newFixture(classes, d, 3, 7)
	g := newGateQuerier(infer.New(infer.NewFloatBackend(f.phi, f.labels, 1)))
	co := NewCoalescer(g, Config{MaxBatch: 1024, MaxInFlight: 1})
	defer co.Close()

	held := holdSlot(co, g, f.dense.Row(0))
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := co.Classify(ctx, Probe{Dense: f.dense.Row(1)}, 1)
		done <- err
	}()
	waitAdmitted(t, co, 2)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Classify err = %v, want context.Canceled", err)
	}
	g.open()
	if err := <-held; err != nil {
		t.Fatal(err)
	}
	// An uncancelled caller on the same coalescer still gets served.
	if _, err := co.Classify(context.Background(), Probe{Dense: f.dense.Row(2)}, 1); err != nil {
		t.Fatalf("follow-up Classify: %v", err)
	}
}

func TestRegistry(t *testing.T) {
	const classes, d = 7, 64
	f := newFixture(classes, d, 1, 8)
	reg := NewRegistry()
	floatCo := NewCoalescer(infer.New(infer.NewFloatBackend(f.phi, f.labels, 1)), Config{})
	binCo := NewCoalescer(infer.New(infer.NewBinaryBackend(f.im)), Config{})

	if err := reg.Register("float", floatCo); err != nil {
		t.Fatal(err)
	}
	// Single registered model: the empty name resolves to it.
	if co, err := reg.Get(""); err != nil || co != floatCo {
		t.Fatalf("Get(\"\") with one model = (%v, %v), want the model", co, err)
	}
	if err := reg.Register("binary", binCo); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register("float", floatCo); !errors.Is(err, ErrDuplicateModel) {
		t.Fatalf("duplicate register err = %v, want ErrDuplicateModel", err)
	}
	if _, err := reg.Get(""); !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("ambiguous empty name err = %v, want ErrUnknownModel", err)
	}
	if _, err := reg.Get("nope"); !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("unknown name err = %v, want ErrUnknownModel", err)
	}
	if names := reg.Names(); len(names) != 2 || names[0] != "binary" || names[1] != "float" {
		t.Fatalf("Names() = %v", names)
	}
	reg.Close()
	if _, err := floatCo.Classify(context.Background(), Probe{Dense: f.dense.Row(0)}, 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("registry Close did not close coalescers: %v", err)
	}
	if len(reg.Names()) != 0 {
		t.Fatal("registry not emptied by Close")
	}
}
