package lat

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

// Every duration must land in a bucket whose reconstructed lower bound
// is within the documented ~6.25% relative error.
func TestBucketRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100000; trial++ {
		ns := uint64(rng.Int63n(int64(10 * time.Minute)))
		i := bucketOf(ns)
		lo := bucketLow(i)
		if lo > ns {
			t.Fatalf("bucketLow(%d)=%d exceeds the value %d that mapped there", i, lo, ns)
		}
		if ns >= subBuckets && i < numBuckets-1 {
			hi := bucketLow(i + 1)
			if hi <= ns {
				t.Fatalf("value %d maps to bucket %d but next bucket starts at %d", ns, i, hi)
			}
			if rel := float64(ns-lo) / float64(ns); rel > 1.0/subBuckets+1e-9 {
				t.Fatalf("value %d bucket lower bound %d: relative error %.4f", ns, lo, rel)
			}
		}
	}
}

// bucketLow must be strictly monotone over the bucket index range —
// the property quantile walking depends on.
func TestBucketLowMonotone(t *testing.T) {
	prev := bucketLow(0)
	for i := 1; i < numBuckets; i++ {
		cur := bucketLow(i)
		if cur <= prev && i >= subBuckets {
			t.Fatalf("bucketLow not monotone at %d: %d then %d", i, prev, cur)
		}
		if got := bucketOf(cur); got != i {
			t.Fatalf("bucketOf(bucketLow(%d)) = %d", i, got)
		}
		prev = cur
	}
}

// Quantiles of a known uniform population must come out near the true
// values, and the canned percentiles must be ordered.
func TestQuantiles(t *testing.T) {
	var h Hist
	for i := 1; i <= 10000; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	s := h.Snapshot()
	if s.Count != 10000 {
		t.Fatalf("count %d", s.Count)
	}
	check := func(q, want float64) {
		got := s.quantile(q)
		if got < want*0.90 || got > want*1.05 {
			t.Fatalf("q%.3f = %.3fms, want ≈ %.3fms", q, got, want)
		}
	}
	check(0.50, 5.0)
	check(0.90, 9.0)
	check(0.99, 9.9)
	if !(s.P50 <= s.P90 && s.P90 <= s.P99 && s.P99 <= s.P999 && s.P999 <= s.Max) {
		t.Fatalf("percentiles out of order: %+v", s)
	}
	if s.Max < 9.99 || s.Max > 10.01 {
		t.Fatalf("max %.3fms, want 10ms", s.Max)
	}
	if s.Mean < 4.9 || s.Mean > 5.2 {
		t.Fatalf("mean %.3fms, want ≈ 5ms", s.Mean)
	}
}

// The zero histogram snapshots to all-zero without dividing by zero.
func TestEmptySnapshot(t *testing.T) {
	var h Hist
	s := h.Snapshot()
	if s.Count != 0 || s.P99 != 0 || s.Mean != 0 || s.quantile(0.5) != 0 {
		t.Fatalf("empty snapshot not zero: %+v", s)
	}
}

// Concurrent observers must not lose counts (run under -race in CI).
func TestConcurrentObserve(t *testing.T) {
	var h Hist
	const workers, per = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(w*1000+i) * time.Nanosecond)
			}
		}(w)
	}
	wg.Wait()
	if got := h.count.Load(); got != workers*per {
		t.Fatalf("lost observations: %d, want %d", got, workers*per)
	}
	if s := h.Snapshot(); s.Count != workers*per {
		t.Fatalf("snapshot count %d", s.Count)
	}
}

// Negative and overflow-octave durations must clamp, not panic or
// corrupt the index computation.
func TestObserveExtremes(t *testing.T) {
	var h Hist
	h.Observe(-time.Second)
	h.Observe(time.Duration(1) << 62)
	s := h.Snapshot()
	if s.Count != 2 {
		t.Fatalf("count %d", s.Count)
	}
}
