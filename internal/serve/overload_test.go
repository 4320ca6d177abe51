package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/infer"
)

// slowQuerier wraps a real engine with an injectable per-batch delay
// and counters — the serve-side fault-injection harness: it turns a
// microsecond-fast local engine into an arbitrarily slow backend so
// overload, shedding, and cancellation semantics can be exercised
// deterministically.
type slowQuerier struct {
	inner   Querier
	delay   atomic.Int64 // ns injected before every TryQuery
	batches atomic.Int64
	probes  atomic.Int64
}

func newSlowQuerier(inner Querier, delay time.Duration) *slowQuerier {
	s := &slowQuerier{inner: inner}
	s.delay.Store(int64(delay))
	return s
}

func (s *slowQuerier) TryQuery(batch *infer.Batch, k int) ([]infer.Result, error) {
	if d := time.Duration(s.delay.Load()); d > 0 {
		time.Sleep(d)
	}
	s.batches.Add(1)
	s.probes.Add(int64(batch.Len()))
	return s.inner.TryQuery(batch, k)
}

func (s *slowQuerier) Name() string                   { return s.inner.Name() }
func (s *slowQuerier) Classes() int                   { return s.inner.Classes() }
func (s *slowQuerier) Dim() int                       { return s.inner.Dim() }
func (s *slowQuerier) Requires() infer.Representation { return s.inner.Requires() }

// A negative watermark is 4× the effective MaxBatch, so a zero MaxBatch
// (defaulted to 32) still sheds instead of silently blocking; 0 blocks.
// The admission queue holds the watermark, or 4×MaxBatch when blocking.
func TestConfigWatermarkDefault(t *testing.T) {
	f := newFixture(5, 64, 1, 3)
	eng := infer.New(infer.NewFloatBackend(f.phi, f.labels, 1))
	for _, tc := range []struct {
		in               Config
		batch, wm, queue int
	}{
		{Config{MaxBatch: 0, Watermark: -1}, 32, 128, 128},
		{Config{MaxBatch: 8, Watermark: -1}, 8, 32, 32},
		{Config{MaxBatch: 8, Watermark: 5}, 8, 5, 5},
		{Config{MaxBatch: 8}, 8, 0, 32},
	} {
		co := NewCoalescer(eng, tc.in)
		got := co.Config()
		if got.MaxBatch != tc.batch || got.Watermark != tc.wm || cap(co.reqs) != tc.queue {
			t.Errorf("%+v: max-batch %d, watermark %d, queue %d; want %d/%d/%d",
				tc.in, got.MaxBatch, got.Watermark, cap(co.reqs), tc.batch, tc.wm, tc.queue)
		}
		co.Close()
	}
}

// Overload semantics under a deliberately slow backend: the queue fills
// to the watermark, new requests fail fast with ErrOverloaded, the shed
// counter moves, the observed queue depth stays bounded, and every
// accepted request still returns the exact engine ranking. Run under
// -race in CI.
func TestCoalescerOverloadSheds(t *testing.T) {
	const classes, d, probes = 11, 64, 120
	const watermark = 16
	f := newFixture(classes, d, probes, 21)
	eng := infer.New(infer.NewFloatBackend(f.phi, f.labels, 1))
	want := eng.Query(infer.DenseBatch(f.dense), 3)
	slow := newSlowQuerier(eng, 20*time.Millisecond)
	co := NewCoalescer(slow, Config{
		MaxBatch: 4, Watermark: watermark, MaxInFlight: 1,
	})
	defer co.Close()

	var wg sync.WaitGroup
	var okCount, shedCount atomic.Int64
	errCh := make(chan error, probes)
	for p := 0; p < probes; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			res, err := co.Classify(context.Background(), Probe{Dense: f.dense.Row(p)}, 3)
			switch {
			case err == nil:
				okCount.Add(1)
				for i := range res.TopK {
					if res.TopK[i] != want[p].TopK[i] {
						errCh <- errors.New("accepted request returned a wrong ranking under overload")
						return
					}
				}
			case errors.Is(err, ErrOverloaded):
				shedCount.Add(1)
			default:
				errCh <- err
			}
		}(p)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	s := co.Stats()
	if shedCount.Load() == 0 || s.Shed == 0 {
		t.Fatalf("no shedding under overload: ok=%d shed=%d stats=%+v",
			okCount.Load(), shedCount.Load(), s)
	}
	if uint64(shedCount.Load()) != s.Shed {
		t.Fatalf("shed counter %d disagrees with callers' view %d", s.Shed, shedCount.Load())
	}
	if okCount.Load() == 0 {
		t.Fatal("everything shed: the watermark should admit some requests")
	}
	// Every admitted probe was either served or shed — none lost.
	if got := uint64(okCount.Load()); s.Requests != got {
		t.Fatalf("admitted %d requests, %d callers got results", s.Requests, got)
	}
	// The backend only ever saw accepted probes.
	if slow.probes.Load() != okCount.Load() {
		t.Fatalf("backend saw %d probes, %d were accepted", slow.probes.Load(), okCount.Load())
	}
}

// The watermark bounds the queue depth the drain loop ever observes:
// sample Stats under sustained overload and the depth must never exceed
// the watermark plus the transient overshoot of concurrent admissions.
func TestCoalescerQueueDepthBounded(t *testing.T) {
	const classes, d = 7, 64
	const watermark = 8
	f := newFixture(classes, d, 4, 22)
	eng := infer.New(infer.NewFloatBackend(f.phi, f.labels, 1))
	slow := newSlowQuerier(eng, 10*time.Millisecond)
	co := NewCoalescer(slow, Config{MaxBatch: 2, Watermark: watermark, MaxInFlight: 2})
	defer co.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 32; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, _ = co.Classify(context.Background(), Probe{Dense: f.dense.Row(0)}, 1)
			}
		}()
	}
	var maxDepth int64
	for i := 0; i < 50; i++ {
		if depth := co.Stats().QueueDepth; depth > maxDepth {
			maxDepth = depth
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	// 32 concurrent callers can transiently overshoot by at most 32.
	if maxDepth > watermark+32 {
		t.Fatalf("queue depth reached %d with watermark %d", maxDepth, watermark)
	}
	if s := co.Stats(); s.Shed == 0 {
		t.Fatalf("sustained overload never shed: %+v", s)
	}
}

// A request whose context is cancelled while it waits for a slot is
// dropped at drain time: the backend never sees it and the Cancelled
// counter moves.
func TestCoalescerDropsCancelledAtDrain(t *testing.T) {
	const classes, d = 7, 64
	f := newFixture(classes, d, 3, 23)
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
		t.Fatalf("cancelled Classify err = %v", err)
	}
	g.open()
	if err := <-held; err != nil {
		t.Fatal(err)
	}
	// A live caller on the same coalescer still gets served. Its batch is
	// the dead request's batch or a later one on the single slot, so once
	// it returns the drain has already skipped the dead request.
	if _, err := co.Classify(context.Background(), Probe{Dense: f.dense.Row(2)}, 1); err != nil {
		t.Fatal(err)
	}
	if s := co.Stats(); s.Cancelled != 1 {
		t.Fatalf("cancelled counter = %d, want 1 (%+v)", s.Cancelled, s)
	}
	if got := g.probes.Load(); got != 2 {
		t.Fatalf("backend saw %d probes, want 2: the slot holder and the live follow-up", got)
	}
}

// Shedding engages while the admission loop is blocked on a slot: with
// the only slot held and a full batch pending, admitted probes pile up
// to the watermark and the next one fails fast — nothing times out, and
// everything admitted is still served once the slot frees.
func TestCoalescerShedsWhileBlockedOnSlot(t *testing.T) {
	const classes, d = 7, 64
	const maxBatch, watermark = 4, 6
	f := newFixture(classes, d, 1+watermark, 27)
	g := newGateQuerier(infer.New(infer.NewFloatBackend(f.phi, f.labels, 1)))
	co := NewCoalescer(g, Config{MaxBatch: maxBatch, Watermark: watermark, MaxInFlight: 1})
	defer co.Close()

	held := holdSlot(co, g, f.dense.Row(0))
	wait := classifyAll(co, f.dense, 1, watermark)
	waitAdmitted(t, co, 1+watermark)
	if s := co.Stats(); s.QueueDepth != watermark {
		t.Fatalf("queue depth %d with the slot held, want the watermark %d", s.QueueDepth, watermark)
	}
	if _, err := co.Classify(context.Background(), Probe{Dense: f.dense.Row(0)}, 1); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("probe past the watermark: err = %v, want ErrOverloaded", err)
	}
	g.open()
	if err := wait(); err != nil {
		t.Fatalf("admitted %v", err)
	}
	if err := <-held; err != nil {
		t.Fatal(err)
	}
	if s := co.Stats(); s.Shed != 1 || s.Requests != 1+watermark || s.FullFlushes != 1 {
		t.Fatalf("want 1 shed, %d served, one full flush; got %+v", 1+watermark, s)
	}
}

// SwapQuerier hot-swaps the backend mid-traffic: requests keep being
// answered throughout, with zero failures, and geometry mismatches are
// rejected with ErrIncompatibleSwap.
func TestCoalescerSwapQuerier(t *testing.T) {
	const classes, d, probes = 13, 128, 40
	f := newFixture(classes, d, probes, 24)
	engA := infer.New(infer.NewFloatBackend(f.phi, f.labels, 1))
	engB := infer.New(infer.NewFloatBackend(f.phi, f.labels, 1), infer.WithWorkers(2))
	want := engA.Query(infer.DenseBatch(f.dense), 2)
	co := NewCoalescer(engA, Config{MaxBatch: 4})
	defer co.Close()

	stop := make(chan struct{})
	errCh := make(chan error, 64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				p := (w*17 + i) % probes
				res, err := co.Classify(context.Background(), Probe{Dense: f.dense.Row(p)}, 2)
				if err != nil {
					errCh <- err
					return
				}
				for j := range res.TopK {
					if res.TopK[j] != want[p].TopK[j] {
						errCh <- errors.New("ranking changed across swap")
						return
					}
				}
			}
		}(w)
	}
	// Swap back and forth under traffic. Identical memories → identical
	// rankings, so any disruption shows up as an error above.
	for i := 0; i < 20; i++ {
		var err error
		if i%2 == 0 {
			err = co.SwapQuerier(engB)
		} else {
			err = co.SwapQuerier(engA)
		}
		if err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// Geometry mismatches are rejected and leave the old querier serving.
	f2 := newFixture(classes, d/2, 1, 25)
	bad := infer.New(infer.NewFloatBackend(f2.phi, f2.labels, 1))
	if err := co.SwapQuerier(bad); !errors.Is(err, ErrIncompatibleSwap) {
		t.Fatalf("wrong-dim swap err = %v, want ErrIncompatibleSwap", err)
	}
	if _, err := co.Classify(context.Background(), Probe{Dense: f.dense.Row(0)}, 1); err != nil {
		t.Fatalf("coalescer broken after rejected swap: %v", err)
	}
}
