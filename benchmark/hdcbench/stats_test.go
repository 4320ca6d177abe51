package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.50, 50}, {0.99, 99}, {1, 100}, {0, 1}, {0.001, 1}} {
		if got := percentile(s, c.q); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("single sample: %v", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty sample: %v", got)
	}
}

// The guide wants ten samples beyond a reported percentile; beyond is the
// arithmetic behind the "N beyond p99" line.
func TestBeyondCountsSamplesPastTheRank(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want int
	}{{2000, 0.99, 20}, {1000, 0.99, 10}, {999, 0.99, 9}, {100, 0.50, 50}, {1, 0.99, 0}, {0, 0.99, 0}} {
		if got := beyond(c.n, c.q); got != c.want {
			t.Errorf("beyond(%d, %v) = %d, want %d", c.n, c.q, got, c.want)
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(v, n=4), which
// is what the driver computes spreads from.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{1, 2, 3})
	if q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles(1,2,3) = %v %v %v, want 1 2 3", q1, q2, q3)
	}
	// statistics.quantiles([3.1, 2.9, 3.0, 3.3, 2.8], n=4) == [2.85, 3.0, 3.2]
	q1, q2, q3 = quartiles([]float64{3.1, 2.9, 3.0, 3.3, 2.8})
	for i, d := range []float64{q1 - 2.85, q2 - 3.0, q3 - 3.2} {
		if math.Abs(d) > 1e-12 {
			t.Errorf("quartile %d off by %v", i+1, d)
		}
	}
}

func TestSpreadAndMedian(t *testing.T) {
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if m := median(v); m != 5.5 {
		t.Errorf("median = %v", m)
	}
	if s := spread(v); s != 1 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", s)
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %v", m)
	}
}
