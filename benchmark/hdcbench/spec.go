package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"
)

// Request kinds a serving stream mixes.
const (
	kindClassify = iota
	kindEmbed
	kindEnroll
)

// The class memory every server in the fleet rebuilds is a pure function
// of (classes, dim, serverSeed); the harness rebuilds the same memory
// in-process for the oracle and the traced replay. The workload seed
// (--seed) only ever shapes request bodies and arrival times.
const (
	serverSeed = 1
	probeDim   = 1536
	topK       = 5
	poolSize   = 64
)

// workload is one named traffic mix. Everything in it is a constant:
// rates were sized once on the seed commit (about half the closed-loop
// rate of a 2-core box) and are never derived at run time, so two
// commits always face the same offered load.
type workload struct {
	name string
	// serving shape (zero for train_eval)
	classes    int
	model      string  // backend the classify requests name
	embedder   string  // "" for raw-embedding streams
	embedImg   int     // embedder input size (pixels, square)
	embedWidth int     // embedder ResNet base width
	routed     bool    // two hdcshard processes behind hdcserve -router
	wal        bool    // hdcserve -wal: enrollments fsync before publish
	backends   string  // hdcserve -backends ("" = its default, all three)
	rateRPS    float64 // open-loop Poisson arrival rate
	enrollFrac float64 // share of the stream that is POST /v1/enroll
	limitMS    float64 // informational p99 latency limit
	// setups is how many times a run starts the fleet (or builds the
	// in-process model) to report a median setup_s.
	setups int
}

var workloads = []workload{
	{
		name: "classify_enroll", classes: 200, model: "binary", wal: true,
		rateRPS: 250, enrollFrac: 0.03, limitMS: 10, setups: 5,
	},
	{
		name: "embed_classify", classes: 200, model: "binary", backends: "binary",
		embedder: "resnet-int8", embedImg: 32, embedWidth: 32,
		rateRPS: 120, limitMS: 25, setups: 5,
	},
	{
		name: "routed_classify", classes: 1000, model: "float", routed: true,
		// a routed fleet takes ~2.7 s to come up, nine times the others
		rateRPS: 200, limitMS: 12, setups: 3,
	},
	{name: "train_eval", setups: 5},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// connections is both the generator's keep-alive connection count and
// its GOMAXPROCS: generator and servers share the box, so the harness
// never claims more threads than there are cores.
func connections() int {
	return min(runtime.NumCPU(), 4)
}

// phases splits one run's measured seconds. The driver fixes --seconds
// for every commit, so the split is a pure function of it.
type phases struct {
	warm, open, closed time.Duration
}

func servingPhases(seconds float64) phases {
	d := func(f float64) time.Duration { return time.Duration(f * seconds * float64(time.Second)) }
	return phases{warm: min(d(0.10), 3*time.Second), open: d(0.55), closed: d(0.35)}
}

// benchSpec is the part of BENCHMARK.json the harness itself reads:
// names, units and bounds.
type benchSpec struct {
	Workloads []specItem   `json:"workloads"`
	EndToEnd  []specMetric `json:"end_to_end"`
	PerLayer  []specMetric `json:"per_layer"`
}

type specItem struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (benchSpec, error) {
	var s benchSpec
	raw, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(raw, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// metric is one reported value; the JSON shape is the driver's.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is one run as stored by `hdcbench all` and read by `compare`.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	result
}
