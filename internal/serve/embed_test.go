package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"testing"

	"repro/internal/infer"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// newTestEmbedder builds a small frozen MLP embedder (Linear→ReLU→Linear,
// served through its compiled frozen-graph plan) matching the fixture's
// probe dimensionality, plus the raw inputs it will embed. The source
// net is returned too so tests can run eval Forward as the offline
// reference — bitwise identical to the compiled plan for BN-free graphs.
func newTestEmbedder(d, samples int, seed int64) (*NetEmbedder, *tensor.Tensor) {
	e, _, inputs := newTestEmbedderNet(d, samples, seed)
	return e, inputs
}

func newTestEmbedderNet(d, samples int, seed int64) (*NetEmbedder, *nn.Sequential, *tensor.Tensor) {
	rng := rand.New(rand.NewSource(seed))
	const in = 24
	net := nn.NewSequential(
		nn.NewLinear(rng, "fc1", in, 32, true),
		nn.NewReLU(),
		nn.NewLinear(rng, "fc2", 32, d, true),
	)
	return NewNetEmbedder("mlp", nn.MustCompile(net), []int{in}, d), net, tensor.Randn(rng, 1, samples, in)
}

func TestNetEmbedderShapesAndErrors(t *testing.T) {
	e, inputs := newTestEmbedder(64, 3, 1)
	out, err := e.Embed(inputs)
	if err != nil {
		t.Fatal(err)
	}
	if out.Dim(0) != 3 || out.Dim(1) != 64 {
		t.Fatalf("embed output shape %v, want [3 64]", out.Shape())
	}
	if _, err := e.Embed(tensor.New(2, 7)); !errors.Is(err, ErrBadInput) {
		t.Fatalf("wrong input dim: err = %v, want ErrBadInput", err)
	}
	if _, err := e.Embed(tensor.New(2, 7, 3)); !errors.Is(err, ErrBadInput) {
		t.Fatalf("wrong input rank: err = %v, want ErrBadInput", err)
	}
	// A declared out-dim the network doesn't produce is a server-side
	// configuration error, NOT bad input (HTTP maps it to 500, not 400).
	bad := NewNetEmbedder("bad", e.net, []int{24}, 999)
	if _, err := bad.Embed(inputs); err == nil || errors.Is(err, ErrBadInput) {
		t.Fatalf("misconfigured out-dim: err = %v, want a non-ErrBadInput error", err)
	}
}

func TestRegistryEmbedderTable(t *testing.T) {
	reg := NewRegistry()
	e, _ := newTestEmbedder(32, 1, 2)
	if _, err := reg.Embedder(""); !errors.Is(err, ErrUnknownEmbedder) {
		t.Fatalf("empty registry: err = %v, want ErrUnknownEmbedder", err)
	}
	if err := reg.RegisterEmbedder("mlp", e); err != nil {
		t.Fatal(err)
	}
	if err := reg.RegisterEmbedder("mlp", e); !errors.Is(err, ErrDuplicateEmbedder) {
		t.Fatalf("duplicate: err = %v, want ErrDuplicateEmbedder", err)
	}
	// Single-embedder shorthand: the empty name resolves.
	got, err := reg.Embedder("")
	if err != nil || got.Name() != "mlp" {
		t.Fatalf("shorthand resolve = (%v, %v)", got, err)
	}
	if names := reg.EmbedderNames(); len(names) != 1 || names[0] != "mlp" {
		t.Fatalf("EmbedderNames = %v", names)
	}
	reg.Close()
	if _, err := reg.Embedder("mlp"); !errors.Is(err, ErrUnknownEmbedder) {
		t.Fatalf("after Close: err = %v, want ErrUnknownEmbedder", err)
	}
}

// TestHTTPEmbedClassifyEndToEndParity is the acceptance round-trip: raw
// inputs served through POST /v1/embed-classify must rank classes
// exactly like the offline path (eval Forward through the same frozen
// net, then a direct engine query) — under concurrent clients.
func TestHTTPEmbedClassifyEndToEndParity(t *testing.T) {
	const classes, d, samples = 13, 64, 16
	f := newFixture(classes, d, 1, 21)
	srv, reg := newTestServer(t, f)
	e, seq, inputs := newTestEmbedderNet(d, samples, 22)
	if err := reg.RegisterEmbedder("mlp", e); err != nil {
		t.Fatal(err)
	}

	// Offline reference: mutating eval Forward over the same frozen net,
	// then a direct batched engine query. The served
	// embedder runs the compiled plan; for a BN-free MLP the fused
	// epilogues are exact, so the parity below stays bitwise.
	offline := seq.Forward(inputs, false)
	want := infer.New(infer.NewFloatBackend(f.phi, f.labels, 1)).Query(infer.DenseBatch(offline), 3)

	var wg sync.WaitGroup
	errs := make(chan error, samples)
	for p := 0; p < samples; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			body, _ := json.Marshal(EmbedClassifyRequest{
				Model: "float", Embedder: "mlp", K: 3,
				Shape: []int{24}, Input: inputs.Row(p),
			})
			resp, err := http.Post(srv.URL+"/v1/embed-classify", "application/json", bytes.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			var er EmbedClassifyResponse
			if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
				errs <- err
				return
			}
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("sample %d: status %d", p, resp.StatusCode)
				return
			}
			if er.Model != "float" || er.Embedder != "mlp" || len(er.TopK) != 3 {
				errs <- fmt.Errorf("sample %d: response %+v", p, er)
				return
			}
			for i, h := range er.TopK {
				w := want[p].TopK[i]
				if h.Class != w.Class || h.Label != w.Label || math.Abs(h.Score-w.Score) > 1e-12 {
					errs <- fmt.Errorf("sample %d rank %d: (%d, %q, %v), want (%d, %q, %v)",
						p, i, h.Class, h.Label, h.Score, w.Class, w.Label, w.Score)
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

func TestHTTPEmbedClassifyErrors(t *testing.T) {
	const classes, d = 7, 64
	f := newFixture(classes, d, 1, 23)
	srv, reg := newTestServer(t, f)
	e, inputs := newTestEmbedder(d, 1, 24)
	if err := reg.RegisterEmbedder("mlp", e); err != nil {
		t.Fatal(err)
	}
	post := func(req EmbedClassifyRequest) int {
		t.Helper()
		body, _ := json.Marshal(req)
		resp, err := http.Post(srv.URL+"/v1/embed-classify", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	in := inputs.Row(0)
	if code := post(EmbedClassifyRequest{Model: "float", Embedder: "nope", Input: in}); code != http.StatusNotFound {
		t.Fatalf("unknown embedder: %d, want 404", code)
	}
	if code := post(EmbedClassifyRequest{Model: "nope", Embedder: "mlp", Input: in}); code != http.StatusNotFound {
		t.Fatalf("unknown model: %d, want 404", code)
	}
	if code := post(EmbedClassifyRequest{Model: "float", Embedder: "mlp", Shape: []int{3, 8}, Input: in}); code != http.StatusBadRequest {
		t.Fatalf("mismatched shape: %d, want 400", code)
	}
	if code := post(EmbedClassifyRequest{Model: "float", Embedder: "mlp", Input: in[:5]}); code != http.StatusBadRequest {
		t.Fatalf("short input: %d, want 400", code)
	}
	if code := post(EmbedClassifyRequest{Model: "float", Embedder: "mlp"}); code != http.StatusBadRequest {
		t.Fatalf("missing input: %d, want 400", code)
	}
}

// TestHTTPHardening pins the request-surface policy across /v1/*: wrong
// methods get 405, non-JSON content types 415, and oversized bodies 413.
func TestHTTPHardening(t *testing.T) {
	const classes, d = 7, 64
	f := newFixture(classes, d, 1, 25)
	srv, reg := newTestServer(t, f)
	e, _ := newTestEmbedder(d, 1, 26)
	if err := reg.RegisterEmbedder("mlp", e); err != nil {
		t.Fatal(err)
	}

	// Wrong method, consistently across the API surface.
	for _, tc := range []struct{ method, path string }{
		{http.MethodGet, "/v1/classify"},
		{http.MethodDelete, "/v1/classify"},
		{http.MethodGet, "/v1/embed-classify"},
		{http.MethodPut, "/v1/embed-classify"},
		{http.MethodPost, "/healthz"},
		{http.MethodPost, "/stats"},
	} {
		req, _ := http.NewRequest(tc.method, srv.URL+tc.path, strings.NewReader("{}"))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: status %d, want 405", tc.method, tc.path, resp.StatusCode)
		}
	}

	// Non-JSON content type.
	for _, path := range []string{"/v1/classify", "/v1/embed-classify"} {
		resp, err := http.Post(srv.URL+path, "text/plain", strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnsupportedMediaType {
			t.Errorf("POST %s text/plain: status %d, want 415", path, resp.StatusCode)
		}
	}

	// Oversized body: a classify payload past the 1 MiB cap.
	huge := make([]float32, maxClassifyBody) // zeros marshal to ~2 bytes each: ~2 MiB body
	body, _ := json.Marshal(ClassifyRequest{Model: "float", Embedding: huge})
	if len(body) <= maxClassifyBody {
		t.Fatalf("test payload too small to trip the cap: %d bytes", len(body))
	}
	resp, err := http.Post(srv.URL+"/v1/classify", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized classify body: status %d, want 413", resp.StatusCode)
	}
}
