package main

import "testing"

func runsOf(workload, name string, values ...float64) []record {
	var out []record
	for i, v := range values {
		out = append(out, record{Workload: workload, Seed: int64(i), result: result{
			Correct: true, Attempted: 1, Metrics: map[string]metric{name: {Value: v, Unit: "ms"}},
		}})
	}
	return out
}

func TestCompareVerdicts(t *testing.T) {
	spec := benchSpec{
		Workloads: []specItem{{Name: "w"}},
		EndToEnd: []specMetric{
			{Name: "lat", Unit: "ms", Better: "lower", Bound: 0.10},
			{Name: "rate", Unit: "1/s", Better: "higher", Bound: 0.10},
		},
	}
	steadyA := []float64{10, 10.1, 9.9, 10, 10.05}
	for _, c := range []struct {
		name, metric string
		a, b         []float64
		want         string
	}{
		{"within bound", "lat", steadyA, []float64{10.5, 10.6, 10.4, 10.5, 10.5}, verdictOK},
		{"better", "lat", steadyA, []float64{8, 8.1, 7.9, 8, 8}, verdictOK},
		{"slower by a fifth", "lat", steadyA, []float64{12, 12.1, 11.9, 12, 12}, verdictWorse},
		{"noisy side hides a regression", "lat", steadyA, []float64{9, 15, 12, 10, 14}, verdictUnresolved},
		{"higher-is-better drop", "rate", steadyA, []float64{8, 8.1, 7.9, 8, 8}, verdictWorse},
		{"higher-is-better gain", "rate", steadyA, []float64{12, 12.1, 11.9, 12, 12}, verdictOK},
	} {
		rows := compareRuns(spec, runsOf("w", c.metric, c.a...), runsOf("w", c.metric, c.b...))
		if len(rows) != 1 || rows[0].verdict != c.want {
			t.Errorf("%s: %+v, want %s", c.name, rows, c.want)
		}
	}
	// Traced runs and other workloads never enter a row.
	traced := runsOf("w", "lat", 100, 100, 100)
	for i := range traced {
		traced[i].Trace = 1
	}
	rows := compareRuns(spec, append(runsOf("w", "lat", steadyA...), traced...), runsOf("w", "lat", steadyA...))
	if len(rows) != 1 || rows[0].verdict != verdictOK {
		t.Errorf("traced runs leaked into the comparison: %+v", rows)
	}
}
