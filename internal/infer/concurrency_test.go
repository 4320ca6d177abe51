package infer

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/hdc"
	"repro/internal/imc"
	"repro/internal/tensor"
)

// concurrencyFixture builds the three backends over one frozen random
// class memory plus a set of probe batches of varying sizes in both
// representations.
func concurrencyFixture(t *testing.T, classes, d, maxBatch int) ([]Backend, []*Batch) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	phi := tensor.Rademacher(rng, classes, d)
	labels := make([]string, classes)
	im := hdc.NewItemMemory(d)
	for c := 0; c < classes; c++ {
		labels[c] = fmt.Sprintf("class%d", c)
		b := hdc.NewBinary(d)
		for j, v := range phi.Row(c) {
			if v < 0 {
				b.SetBit(j, 1)
			}
		}
		im.Store(labels[c], b)
	}
	backends := []Backend{
		NewFloatBackend(phi, labels, 1),
		NewBinaryBackend(im),
		NewCrossbarBackend(phi, labels, 1, imc.Ideal()),
	}
	var batches []*Batch
	for n := 1; n <= maxBatch; n = n*2 + 1 {
		dense := tensor.Randn(rng, 1, n, d)
		b := &Batch{Dense: dense, Packed: PackSign(dense)}
		if err := b.Validate(); err != nil {
			t.Fatalf("Validate: %v", err)
		}
		batches = append(batches, b)
	}
	return backends, batches
}

// One Engine shared by many goroutines must return results identical to
// the single-threaded path — hammered across all three backends, mixed
// batch sizes, and mixed k, under the race detector in CI.
func TestEngineConcurrentQueryMatchesSerial(t *testing.T) {
	const classes, d = 37, 512
	const goroutines, iters = 12, 30
	backends, batches := concurrencyFixture(t, classes, d, 24)
	ks := []int{1, 3, classes}

	for _, be := range backends {
		eng := New(be, WithWorkers(4))

		// Serial reference: every (batch, k) pair queried once, in order.
		ref := make(map[[2]int][]Result)
		for bi, batch := range batches {
			for _, k := range ks {
				ref[[2]int{bi, k}] = eng.Query(batch, k)
			}
		}

		var wg sync.WaitGroup
		errs := make(chan string, goroutines)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(g)))
				for it := 0; it < iters; it++ {
					bi := rng.Intn(len(batches))
					k := ks[rng.Intn(len(ks))]
					got := eng.Query(batches[bi], k)
					want := ref[[2]int{bi, k}]
					for p := range want {
						for i := range want[p].TopK {
							if got[p].TopK[i] != want[p].TopK[i] {
								errs <- fmt.Sprintf("backend %q goroutine %d batch %d k=%d probe %d rank %d: %+v, want %+v",
									be.Name(), g, bi, k, p, i, got[p].TopK[i], want[p].TopK[i])
								return
							}
						}
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Fatal(e)
		}
	}
}

// The noisy crossbar — the configuration cmd/hdczsc and cmd/hdcserve
// actually ship (imc.TypicalPCM) — must be safe under concurrent Query
// on one shared engine. Scores are stochastic (read-noise draws
// interleave across callers, as on a physical array), so this test
// asserts structural integrity, not score parity: the race detector in
// CI is the real assertion.
func TestEngineConcurrentNoisyCrossbar(t *testing.T) {
	const classes, d, n = 19, 256, 8
	rng := rand.New(rand.NewSource(17))
	phi := tensor.Rademacher(rng, classes, d)
	eng := New(NewCrossbarBackend(phi, nil, 1, imc.TypicalPCM()), WithWorkers(4))
	batch := DenseBatch(tensor.Randn(rng, 1, n, d))

	var wg sync.WaitGroup
	for g := 0; g < 10; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := 0; it < 10; it++ {
				res := eng.Query(batch, 3)
				for p := range res {
					if len(res[p].TopK) != 3 {
						panic("noisy crossbar returned malformed top-k")
					}
					for i := 1; i < len(res[p].TopK); i++ {
						a, b := res[p].TopK[i-1], res[p].TopK[i]
						if a.Score < b.Score || (a.Score == b.Score && a.Class > b.Class) {
							panic("noisy crossbar result out of engine order")
						}
					}
				}
			}
		}()
	}
	wg.Wait()
}

// Concurrent queries against one engine must also hold when every caller
// uses a distinct batch object (no shared Batch lazy-init to hide
// behind) and when many callers share one large batch (the lazy
// DenseNorms/SignPacked sync.Once path).
func TestEngineConcurrentSharedBatchLazyInit(t *testing.T) {
	const classes, d, n = 19, 256, 16
	rng := rand.New(rand.NewSource(5))
	phi := tensor.Rademacher(rng, classes, d)
	im := hdc.NewItemMemory(d)
	for c := 0; c < classes; c++ {
		b := hdc.NewBinary(d)
		for j, v := range phi.Row(c) {
			if v < 0 {
				b.SetBit(j, 1)
			}
		}
		im.Store(fmt.Sprintf("class%d", c), b)
	}
	// Dense-only batch against the binary backend: every concurrent caller
	// races into Batch.SignPacked's once-guarded packing.
	eng := New(NewBinaryBackend(im), WithWorkers(3))
	batch := DenseBatch(tensor.Randn(rng, 1, n, d))
	want := eng.Query(batch, 3)
	var wg sync.WaitGroup
	for g := 0; g < 10; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := eng.Query(batch, 3)
			for p := range want {
				for i := range want[p].TopK {
					if got[p].TopK[i] != want[p].TopK[i] {
						panic("concurrent shared-batch query diverged")
					}
				}
			}
		}()
	}
	wg.Wait()
}
