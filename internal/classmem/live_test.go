package classmem

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/hdc"
	"repro/internal/infer"
	"repro/internal/tensor"
)

// liveK is deep enough that every ranking compared below spans
// enrolled and base classes.
const liveK = 6

// liveProbes is three random dense probes followed by the first n
// enrollment prototypes themselves, so enrolled classes top rankings
// once their epoch is published.
func liveProbes(n int) *infer.Batch {
	rng := rand.New(rand.NewSource(5))
	x := tensor.New(3+n, vtDim)
	for i := range x.Data[:3*vtDim] {
		x.Data[i] = float32(rng.NormFloat64())
	}
	for i := 0; i < n; i++ {
		copy(x.Row(3+i), vtProto(i).ToBipolar().Float32())
	}
	return infer.DenseBatch(x)
}

func liveEnroll(t *testing.T, v *Versioned, i int) {
	t.Helper()
	if _, err := v.Enroll(fmt.Sprintf("live-%02d", i), vtProto(i)); err != nil {
		t.Fatal(err)
	}
}

// liveOracle ranks the probes at every epoch 0..n on engines over a
// second store enrolled in lockstep: epoch e there holds exactly the
// first e enrollments, with no view or cache in play.
func liveOracle(t *testing.T, name string, lo, n int, probes *infer.Batch) [][]infer.Result {
	t.Helper()
	ref := NewVersioned(vtClasses, vtDim, vtSeed)
	out := make([][]infer.Result, n+1)
	for e := 0; e <= n; e++ {
		if e > 0 {
			liveEnroll(t, ref, e-1)
		}
		be, err := ref.Snapshot().Mem.Backend(name)
		if err != nil {
			t.Fatal(err)
		}
		if lo > 0 {
			be = infer.NewRangeBackend(be, lo, be.Classes())
		}
		if out[e], err = infer.New(be, infer.WithWorkers(3)).TryQuery(probes, liveK); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// sameRanking compares class, label and score bits of every hit.
func sameRanking(got, want []infer.Result) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d results, want %d", len(got), len(want))
	}
	for p := range want {
		g, w := got[p].TopK, want[p].TopK
		if len(g) != len(w) {
			return fmt.Errorf("probe %d: %d hits, want %d", p, len(g), len(w))
		}
		for i := range w {
			if g[i].Class != w[i].Class || g[i].Label != w[i].Label ||
				math.Float64bits(g[i].Score) != math.Float64bits(w[i].Score) {
				return fmt.Errorf("probe %d hit %d: %+v, want %+v", p, i, g[i], w[i])
			}
		}
	}
	return nil
}

// At(e) answers exactly like an engine over a store holding the first e
// enrollments, at every epoch and after the store has grown past e, for
// the whole memory and for a shard's tail range.
func TestLiveAtMatchesFreshStore(t *testing.T) {
	const n = 6
	probes := liveProbes(n)
	for _, name := range []string{"float", "binary"} {
		for _, lo := range []int{0, 5} {
			oracle := liveOracle(t, name, lo, n, probes)
			v := NewVersioned(vtClasses, vtDim, vtSeed)
			l, err := v.Live(name, lo, infer.WithWorkers(2))
			if err != nil {
				t.Fatal(err)
			}
			for e := 0; e <= n; e++ {
				if e > 0 {
					liveEnroll(t, v, e-1)
				}
				for past := 0; past <= e; past++ {
					eng, err := l.At(uint64(past))
					if err != nil {
						t.Fatal(err)
					}
					res, err := eng.TryQuery(probes, liveK)
					if err != nil {
						t.Fatal(err)
					}
					if err := sameRanking(res, oracle[past]); err != nil {
						t.Fatalf("%s lo=%d at epoch %d, store at %d: %v", name, lo, past, e, err)
					}
					if eng.Epoch() != uint64(past) || eng.Classes() != vtClasses+past-lo {
						t.Fatalf("%s lo=%d: engine for epoch %d reports epoch %d, %d classes",
							name, lo, past, eng.Epoch(), eng.Classes())
					}
				}
			}
			if _, err := l.At(n + 1); err == nil {
				t.Fatalf("%s lo=%d: At past the published epoch succeeded", name, lo)
			}
		}
	}
}

// Enrollment races queries: every ranking TryQueryEpoch returns matches
// the oracle at the epoch it is tagged with. Run under -race in CI.
func TestLiveTryQueryEpochUnderEnroll(t *testing.T) {
	const n = 16
	probes := liveProbes(n)
	for _, name := range []string{"float", "binary"} {
		oracle := liveOracle(t, name, 0, n, probes)
		v := NewVersioned(vtClasses, vtDim, vtSeed)
		l, err := v.Live(name, 0, infer.WithWorkers(2))
		if err != nil {
			t.Fatal(err)
		}
		var done atomic.Bool
		var wg sync.WaitGroup
		for r := 0; r < 3; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !done.Load() {
					res, e, err := l.TryQueryEpoch(probes, liveK)
					if err != nil {
						t.Error(err)
						return
					}
					if err := sameRanking(res, oracle[e]); err != nil {
						t.Errorf("%s at epoch %d: %v", name, e, err)
						return
					}
				}
			}()
		}
		for i := 0; i < n; i++ {
			liveEnroll(t, v, i)
		}
		// One query is certain to see the last epoch.
		res, e, err := l.TryQueryEpoch(probes, liveK)
		done.Store(true)
		wg.Wait()
		if err != nil || e != n {
			t.Fatalf("%s after %d enrolls: epoch %d, err %v", name, n, e, err)
		}
		if err := sameRanking(res, oracle[n]); err != nil {
			t.Fatalf("%s at epoch %d: %v", name, n, err)
		}
	}
}

// A hit on the published epoch's engine is one atomic load.
func TestLiveAtPublishedZeroAlloc(t *testing.T) {
	v := NewVersioned(vtClasses, vtDim, vtSeed)
	l, err := v.Live("binary", 0)
	if err != nil {
		t.Fatal(err)
	}
	liveEnroll(t, v, 0)
	if _, err := l.At(v.Epoch()); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := l.At(v.Epoch()); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("At(published) hit: %v allocs, want 0", allocs)
	}
}

// A float view queried after every enrollment keeps at most liveCache
// engines — hence at most that many sets of expanded float tiles — and
// they are the newest epochs.
func TestLiveCacheBound(t *testing.T) {
	const n = 100
	v := NewVersioned(vtClasses, vtDim, vtSeed)
	l, err := v.Live("float", 0)
	if err != nil {
		t.Fatal(err)
	}
	probes := liveProbes(0)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < n; i++ {
		if _, err := v.Enroll(fmt.Sprintf("bound-%03d", i), hdc.NewRandomBinary(rng, vtDim)); err != nil {
			t.Fatal(err)
		}
		if _, e, err := l.TryQueryEpoch(probes, 1); err != nil || e != uint64(i+1) {
			t.Fatalf("query after enroll %d: epoch %d, err %v", i, e, err)
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.cache) > liveCache {
		t.Fatalf("cache holds %d engines, bound %d", len(l.cache), liveCache)
	}
	for _, c := range l.cache {
		if c.Epoch()+liveCache <= n {
			t.Fatalf("cache kept epoch %d after %d enrolls", c.Epoch(), n)
		}
	}
	if h := l.hot.Load(); h.Epoch() != n {
		t.Fatalf("hot engine at epoch %d, want %d", h.Epoch(), n)
	}
}
