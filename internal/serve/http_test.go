package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"

	"repro/internal/infer"
)

func newTestServer(t *testing.T, f *fixture) (*httptest.Server, *Registry) {
	t.Helper()
	reg := NewRegistry()
	cfg := Config{MaxBatch: 8}
	if err := reg.Register("float", NewCoalescer(
		infer.New(infer.NewFloatBackend(f.phi, f.labels, 1), infer.WithWorkers(2)), cfg)); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register("binary", NewCoalescer(
		infer.New(infer.NewBinaryBackend(f.im), infer.WithWorkers(2)), cfg)); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(reg))
	t.Cleanup(func() { srv.Close(); reg.Close() })
	return srv, reg
}

func postClassify(t *testing.T, url string, req ClassifyRequest) (*http.Response, []byte) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/v1/classify", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func TestHTTPClassifyParityAndConcurrency(t *testing.T) {
	const classes, d, probes = 13, 128, 24
	f := newFixture(classes, d, probes, 10)
	srv, _ := newTestServer(t, f)

	// Reference: the direct engine path.
	want := infer.New(infer.NewFloatBackend(f.phi, f.labels, 1)).Query(infer.DenseBatch(f.dense), 3)

	var wg sync.WaitGroup
	errs := make(chan error, probes)
	for p := 0; p < probes; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			resp, body := postClassify(t, srv.URL, ClassifyRequest{
				Model: "float", K: 3, Embedding: f.dense.Row(p),
			})
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("probe %d: status %d: %s", p, resp.StatusCode, body)
				return
			}
			var cr ClassifyResponse
			if err := json.Unmarshal(body, &cr); err != nil {
				errs <- fmt.Errorf("probe %d: %v", p, err)
				return
			}
			if cr.Model != "float" || len(cr.TopK) != 3 {
				errs <- fmt.Errorf("probe %d: response %+v", p, cr)
				return
			}
			for i, h := range cr.TopK {
				w := want[p].TopK[i]
				if h.Class != w.Class || h.Label != w.Label {
					errs <- fmt.Errorf("probe %d rank %d: (%d, %q), want (%d, %q)",
						p, i, h.Class, h.Label, w.Class, w.Label)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestHTTPClassifyErrors(t *testing.T) {
	const classes, d = 7, 64
	f := newFixture(classes, d, 1, 11)
	srv, _ := newTestServer(t, f)

	resp, _ := postClassify(t, srv.URL, ClassifyRequest{Model: "nope", Embedding: f.dense.Row(0)})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown model: status %d, want 404", resp.StatusCode)
	}
	// Two models registered: the empty model name is ambiguous.
	resp, _ = postClassify(t, srv.URL, ClassifyRequest{Embedding: f.dense.Row(0)})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("ambiguous model: status %d, want 404", resp.StatusCode)
	}
	resp, body := postClassify(t, srv.URL, ClassifyRequest{Model: "float", Embedding: []float32{1, 2}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad dim: status %d, want 400 (%s)", resp.StatusCode, body)
	}
	r, err := http.Post(srv.URL+"/v1/classify", "application/json", bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON: status %d, want 400", r.StatusCode)
	}
}

func TestHTTPHealthAndStats(t *testing.T) {
	const classes, d = 7, 64
	f := newFixture(classes, d, 2, 12)
	srv, _ := newTestServer(t, f)

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h healthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h.Status != "ok" || len(h.Models) != 2 || h.Models[0] != "binary" || h.Models[1] != "float" {
		t.Fatalf("healthz = %+v", h)
	}

	// Serve one probe through each model, then check the stats surface.
	for _, model := range []string{"float", "binary"} {
		if r, body := postClassify(t, srv.URL, ClassifyRequest{Model: model, Embedding: f.dense.Row(0)}); r.StatusCode != http.StatusOK {
			t.Fatalf("%s classify: %d %s", model, r.StatusCode, body)
		}
	}
	resp, err = http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for _, model := range []string{"float", "binary"} {
		s, ok := stats.Models[model]
		if !ok {
			t.Fatalf("stats missing model %q: %v", model, stats)
		}
		if s.Classes != classes || s.Dim != d || s.Requests != 1 || s.Batches != 1 {
			t.Fatalf("%s stats = %+v", model, s)
		}
		// What shapes batches is reported as resolved, not as configured:
		// the fixture leaves MaxInFlight at its default.
		if s.MaxBatch != 8 || s.MaxInFlight != 2*runtime.GOMAXPROCS(0) || s.SlotFlushes != 1 {
			t.Fatalf("%s stats: max_batch=%d max_inflight=%d slot_flushes=%d, want 8, %d, 1",
				model, s.MaxBatch, s.MaxInFlight, s.SlotFlushes, 2*runtime.GOMAXPROCS(0))
		}
		// The stage decomposition must be present and see the request.
		if s.QueueWait == nil || s.Readout == nil {
			t.Fatalf("%s stats missing stage histograms: %+v", model, s)
		}
		if s.QueueWait.Count != 1 || s.Readout.Count != 1 {
			t.Fatalf("%s stage counts queue=%d readout=%d, want 1/1",
				model, s.QueueWait.Count, s.Readout.Count)
		}
	}
}
