// Package lat provides the lock-free log-bucketed latency histogram
// shared by the serving layer's per-stage timing (/stats) and the
// distributed router's shard round-trip tracking.
//
// The layout is HDR-style log-linear: durations bucket by the position
// of their highest set bit (one octave per power of two of nanoseconds)
// subdivided into 16 linear sub-buckets, so any recorded value is
// reproduced by the snapshot's quantiles with at most ~6.25% relative
// error while Observe stays one atomic add on a fixed-size array — no
// locks, no allocation, safe for any number of concurrent recorders.
// That cheap Observe is the point: the coalescer and router call it on
// their hot paths, where a mutex-guarded reservoir would serialize
// exactly the traffic the histogram is supposed to measure.
package lat

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

const (
	// octaves covers [1ns, 2^40ns ≈ 18min); longer observations clamp
	// into the last octave. Serving latencies live in µs–s, comfortably
	// inside.
	octaves = 40
	// subBuckets linearly subdivides each octave; 16 gives ≤ 1/16
	// relative quantile error within an octave.
	subBuckets = 16
	numBuckets = octaves * subBuckets
)

// Hist is a concurrent fixed-footprint latency histogram. The zero
// value is ready to use.
type Hist struct {
	buckets [numBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64 // total nanoseconds
	max     atomic.Uint64 // max nanoseconds, monotone CAS
}

// bucketOf maps a nanosecond duration to its bucket index.
func bucketOf(ns uint64) int {
	if ns < subBuckets {
		// The first octave degenerates: values below 16ns index linearly.
		return int(ns)
	}
	exp := bits.Len64(ns) - 1 // position of the highest set bit, ≥ 4
	sub := (ns >> (uint(exp) - 4)) & (subBuckets - 1)
	idx := (exp-3)*subBuckets + int(sub)
	if idx >= numBuckets {
		return numBuckets - 1
	}
	return idx
}

// bucketLow returns the smallest nanosecond value mapping to bucket i
// (the inverse of bucketOf, used to reconstruct quantiles).
func bucketLow(i int) uint64 {
	if i < subBuckets {
		return uint64(i)
	}
	exp := i/subBuckets + 3
	sub := uint64(i % subBuckets)
	return (1 << uint(exp)) | sub<<(uint(exp)-4)
}

// Observe records one duration. Negative durations clamp to zero.
//
//hdc:hotpath
func (h *Hist) Observe(d time.Duration) {
	ns := uint64(0)
	if d > 0 {
		ns = uint64(d)
	}
	h.buckets[bucketOf(ns)].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
	for {
		cur := h.max.Load()
		if ns <= cur || h.max.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// Snapshot is a consistent-enough copy of a histogram for reporting:
// counters are read individually, so a snapshot taken under concurrent
// Observe traffic may be off by the few in-flight observations —
// irrelevant for the quantiles it feeds.
type Snapshot struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean_ms"`
	P50   float64 `json:"p50_ms"`
	P90   float64 `json:"p90_ms"`
	P99   float64 `json:"p99_ms"`
	P999  float64 `json:"p999_ms"`
	Max   float64 `json:"max_ms"`

	buckets []uint64
}

// Snapshot freezes the histogram into a quantile report. Milliseconds
// everywhere: that is the unit serving SLOs are written in.
func (h *Hist) Snapshot() Snapshot {
	s := Snapshot{buckets: make([]uint64, numBuckets)}
	for i := range h.buckets {
		s.buckets[i] = h.buckets[i].Load()
		s.Count += s.buckets[i]
	}
	if s.Count == 0 {
		return s
	}
	s.Mean = float64(h.sum.Load()) / float64(s.Count) / 1e6
	s.Max = float64(h.max.Load()) / 1e6
	s.P50 = s.quantile(0.50)
	s.P90 = s.quantile(0.90)
	s.P99 = s.quantile(0.99)
	s.P999 = s.quantile(0.999)
	return s
}

// quantile returns the q-quantile in milliseconds by walking the
// cumulative bucket counts; the reported value is the lower bound of
// the containing bucket (within one sub-bucket of the true value).
func (s *Snapshot) quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range s.buckets {
		cum += c
		if cum >= rank {
			ns := bucketLow(i)
			// The max is exact; never report a quantile beyond it.
			if m := float64(s.Max) * 1e6; float64(ns) > m {
				return s.Max
			}
			return float64(ns) / 1e6
		}
	}
	return s.Max
}
