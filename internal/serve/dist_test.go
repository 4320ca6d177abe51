package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/infer"
	"repro/internal/tensor"
)

// TestCoalescerFrontsRouter is the Querier-seam contract: the same
// micro-batching front over a dist.Router must answer exactly what it
// answers over the local engine — through Classify and through the HTTP
// handler — with the HTTP layer none the wiser about the shard fan-out.
func TestCoalescerFrontsRouter(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const classes, d = 45, 32
	phi := tensor.New(classes, d)
	for i := range phi.Data {
		phi.Data[i] = rng.Float32()*2 - 1
	}
	labels := make([]string, classes)
	for c := range labels {
		labels[c] = fmt.Sprintf("c%02d", c)
	}
	backend := infer.NewFloatBackend(phi, labels, 0.05)
	local := infer.New(backend)

	// Three single-slab loopback shard processes.
	layout := dist.Layout{Classes: classes, Dim: d}
	for _, r := range infer.SplitRanges(classes, 3) {
		eng, err := infer.NewChecked(infer.NewRangeBackend(backend, r[0], r[1]))
		if err != nil {
			t.Fatal(err)
		}
		srv, err := dist.NewShardServer([]dist.Slab{{Base: r[0], Engine: eng}})
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln)
		t.Cleanup(func() { srv.Close() })
		layout.Shards = append(layout.Shards, dist.ShardSpec{Range: r, Replicas: []string{ln.Addr().String()}})
	}
	router, err := dist.NewRouter(layout, dist.RouterConfig{ShardTimeout: 5 * time.Second})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	t.Cleanup(router.Close)

	coLocal := NewCoalescer(local, Config{})
	coDist := NewCoalescer(router, Config{})
	t.Cleanup(coLocal.Close)
	t.Cleanup(coDist.Close)

	probe := make([]float32, d)
	for i := range probe {
		probe[i] = rng.Float32()*2 - 1
	}
	want, err := coLocal.Classify(context.Background(), Probe{Dense: probe}, 5)
	if err != nil {
		t.Fatal(err)
	}
	got, err := coDist.Classify(context.Background(), Probe{Dense: probe}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("coalesced distributed result diverged:\n got %+v\nwant %+v", got, want)
	}

	// And through the HTTP surface.
	reg := NewRegistry()
	if err := reg.Register("float", coDist); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewHandler(reg))
	t.Cleanup(ts.Close)
	body, _ := json.Marshal(ClassifyRequest{K: 5, Embedding: probe})
	resp, err := http.Post(ts.URL+"/v1/classify", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var cr ClassifyResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	if cr.Model != backend.Name() {
		t.Fatalf("model=%q want %q", cr.Model, backend.Name())
	}
	if len(cr.TopK) != len(want.TopK) {
		t.Fatalf("topk=%d want %d", len(cr.TopK), len(want.TopK))
	}
	for i, h := range want.TopK {
		if cr.TopK[i].Class != h.Class || cr.TopK[i].Label != h.Label || cr.TopK[i].Score != h.Score {
			t.Fatalf("hit %d: %+v want %+v", i, cr.TopK[i], h)
		}
	}
}
