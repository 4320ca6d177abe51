package repro

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/classmem"
	"repro/internal/infer"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// The production-hardening acceptance run: one real hdcserve process is
// probed through the liveness/readiness split, driven into overload
// (shedding must engage, accepted requests must stay correct and
// bounded), and finally drained cleanly on SIGTERM.

// Geometry sized so one engine worker needs ~milliseconds per batch:
// overload must be reachable with a few hundred concurrent requests.
const (
	chaosClasses   = 512
	chaosDim       = 2048
	chaosSeed      = 7
	chaosWatermark = 16
)

// chaosStats is the slice of GET /stats this test reads.
type chaosStats struct {
	Models map[string]struct {
		Shed       uint64 `json:"shed"`
		Requests   uint64 `json:"requests"`
		QueueDepth int64  `json:"queue_depth"`
		QueueWait  *struct {
			Count uint64  `json:"count"`
			P99   float64 `json:"p99_ms"`
		} `json:"queue_wait"`
	} `json:"models"`
}

func getChaosStats(t *testing.T, addr string) chaosStats {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var s chaosStats
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestServeOverloadChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	dir := t.TempDir()
	serveBin := buildBinary(t, dir, "hdcserve")

	front := exec.Command(serveBin,
		"-addr", "127.0.0.1:0",
		"-backends", "float",
		"-embedder=false",
		"-classes", fmt.Sprint(chaosClasses),
		"-d", fmt.Sprint(chaosDim),
		"-seed", fmt.Sprint(chaosSeed),
		"-workers", "1",
		"-max-batch", "8",
		"-watermark", fmt.Sprint(chaosWatermark),
		"-max-inflight", "1",
	)
	stderr, err := front.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := front.Start(); err != nil {
		t.Fatal(err)
	}
	exited := false
	t.Cleanup(func() {
		if !exited {
			_ = front.Process.Kill()
			_ = front.Wait()
		}
	})
	addr := awaitListening(t, stderr, "hdcserve")

	// The oracle: the identical seed-derived memory in-process.
	be, err := classmem.Build(chaosClasses, chaosDim, chaosSeed).Backend("float")
	if err != nil {
		t.Fatal(err)
	}
	oracle := infer.New(be)
	const probes = 24
	x := tensor.New(probes, chaosDim)
	fillChaosProbes(x)
	want, err := oracle.TryQuery(infer.DenseBatch(x), 3)
	if err != nil {
		t.Fatal(err)
	}
	bodies := make([][]byte, probes)
	for p := range bodies {
		bodies[p], _ = json.Marshal(serve.ClassifyRequest{Model: "float", K: 3, Embedding: x.Row(p)})
	}

	// classify POSTs probe p and verifies an accepted response against
	// the oracle; returns the status code.
	classify := func(p int) (int, string, error) {
		resp, err := http.Post("http://"+addr+"/v1/classify", "application/json", bytes.NewReader(bodies[p]))
		if err != nil {
			return 0, "", err
		}
		defer resp.Body.Close()
		retryAfter := resp.Header.Get("Retry-After")
		if resp.StatusCode != http.StatusOK {
			io.Copy(io.Discard, resp.Body)
			return resp.StatusCode, retryAfter, nil
		}
		var cr serve.ClassifyResponse
		if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
			return 0, "", err
		}
		for i, h := range want[p].TopK {
			got := cr.TopK[i]
			if got.Class != h.Class || got.Label != h.Label || got.Score != h.Score {
				return 0, "", fmt.Errorf("probe %d hit %d: %+v, want %+v", p, i, got, h)
			}
		}
		return http.StatusOK, retryAfter, nil
	}

	// readyz/healthz split: both up while serving.
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
	}

	// --- Phase 1: overload. Far more concurrent requests than the
	// watermark admits: shedding must engage (429 + Retry-After), every
	// accepted ranking must match the oracle, and the queue depth the
	// server reports must stay bounded by the watermark (plus transient
	// admission overshoot).
	const flood = 400
	var okN, shedN atomic.Int64
	var maxDepth atomic.Int64
	errCh := make(chan error, flood)
	stopSample := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		for {
			select {
			case <-stopSample:
				return
			default:
			}
			s := getChaosStats(t, addr)
			if d := s.Models["float"].QueueDepth; d > maxDepth.Load() {
				maxDepth.Store(d)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < flood; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, retryAfter, err := classify(i % probes)
			switch {
			case err != nil:
				errCh <- err
			case status == http.StatusOK:
				okN.Add(1)
			case status == http.StatusTooManyRequests:
				if retryAfter == "" {
					errCh <- fmt.Errorf("429 without Retry-After")
					return
				}
				shedN.Add(1)
			default:
				errCh <- fmt.Errorf("unexpected status %d under overload", status)
			}
		}(i)
	}
	wg.Wait()
	close(stopSample)
	sampler.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if okN.Load() == 0 || shedN.Load() == 0 {
		t.Fatalf("overload phase: ok=%d shed=%d — want both nonzero", okN.Load(), shedN.Load())
	}
	// Transient overshoot: concurrent admissions can each optimistically
	// increment before backing out; bound by the flood size but expect
	// watermark-ish. Allow 2× headroom over watermark + samplers' skew.
	if d := maxDepth.Load(); d > 2*chaosWatermark+8 {
		t.Fatalf("queue depth reached %d with watermark %d", d, chaosWatermark)
	}
	s := getChaosStats(t, addr)
	ms := s.Models["float"]
	if ms.Shed == 0 {
		t.Fatalf("server-side shed counter still zero: %+v", ms)
	}
	if ms.QueueWait == nil || ms.QueueWait.Count == 0 {
		t.Fatal("no queue-wait samples after the flood")
	}
	// Bounded queueing for accepted requests: 16 probes ahead at ~ms per
	// batch is tens of ms; a second would mean the watermark failed.
	if ms.QueueWait.P99 > 1000 {
		t.Fatalf("queue-wait p99 %.1fms unbounded despite shedding", ms.QueueWait.P99)
	}

	// --- Phase 2: graceful drain. SIGTERM must exit cleanly.
	if err := front.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waitErr := make(chan error, 1)
	go func() { waitErr <- front.Wait() }()
	select {
	case err := <-waitErr:
		exited = true
		if err != nil {
			t.Fatalf("hdcserve did not exit cleanly on SIGTERM: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("hdcserve did not exit within 15s of SIGTERM")
	}
}

// fillChaosProbes writes deterministic pseudo-random probe content —
// a tiny LCG, so the oracle and the HTTP bodies agree without sharing
// an rng instance.
func fillChaosProbes(x *tensor.Tensor) {
	state := uint64(0x9e3779b97f4a7c15)
	for i := range x.Data {
		state = state*6364136223846793005 + 1442695040888963407
		x.Data[i] = float32(int32(state>>33))/float32(1<<31)*2 - 1
	}
}
