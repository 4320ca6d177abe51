package main

import (
	"slices"
	"testing"
	"time"
)

func TestPoissonScheduleIsSeededAndBounded(t *testing.T) {
	const rate, dur = 500.0, 4 * time.Second
	a, b := poissonSchedule(1, rate, dur), poissonSchedule(1, rate, dur)
	if !slices.Equal(a, b) {
		t.Fatal("same seed produced different schedules")
	}
	if slices.Equal(a, poissonSchedule(2, rate, dur)) {
		t.Fatal("different seeds produced the same schedule")
	}
	if !slices.IsSorted(a) || a[len(a)-1] > dur {
		t.Fatalf("schedule not ascending within %v (last %v)", dur, a[len(a)-1])
	}
	// 2000 expected arrivals, σ ≈ 45
	if n := len(a); n < 1750 || n > 2250 {
		t.Fatalf("%d arrivals at %v/s over %v", n, rate, dur)
	}
}

// A request that falls due while every connection is busy waits in the
// generator, and both its lateness and its latency count from the due
// time — the whole point of an open loop.
func TestOpenLoopCountsFromDueTime(t *testing.T) {
	const service = 30 * time.Millisecond
	offsets := []time.Duration{0, time.Millisecond, 2 * time.Millisecond}
	fire := func(_, i int, due time.Time) sample {
		sent := time.Now()
		time.Sleep(service)
		return sample{seq: i, late: sent.Sub(due), lat: time.Since(due)}
	}

	one := dispatchOpen(offsets, 1, fire)
	slices.SortFunc(one, func(a, b sample) int { return a.seq - b.seq })
	if len(one) != 3 {
		t.Fatalf("%d samples", len(one))
	}
	for i, s := range one {
		// request i waits for i services minus its own offset
		wantLate := time.Duration(i)*service - offsets[i]
		if s.late < wantLate-time.Millisecond || s.lat < s.late+service {
			t.Errorf("request %d on one connection: late %v (want ≥ %v), latency %v", i, s.late, wantLate, s.lat)
		}
	}

	three := dispatchOpen(offsets, 3, fire)
	for _, s := range three {
		if s.late > service/2 || s.lat > 2*service {
			t.Errorf("request %d with a free connection each: late %v, latency %v", s.seq, s.late, s.lat)
		}
	}
}
