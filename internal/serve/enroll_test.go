package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/classmem"
	"repro/internal/hdc"
	"repro/internal/infer"
)

// protoFromDense sign-packs a dense vector into the binary prototype
// representation, exactly as the enroll hook in cmd/hdcserve does.
func protoFromDense(vec []float32) *hdc.Binary {
	bp := make(hdc.Bipolar, len(vec))
	for i, v := range vec {
		if v < 0 {
			bp[i] = -1
		} else {
			bp[i] = 1
		}
	}
	return hdc.FromBipolar(bp)
}

// SwapQuerier must accept monotonic class growth — an epoch publish
// flowing through the hot-reload seam — and keep rejecting shrink, so
// an accidental swap back to a stale pre-enrollment engine cannot make
// already-served classes vanish.
func TestCoalescerSwapQuerierGrowth(t *testing.T) {
	const classes, d = 9, 256
	v := classmem.NewVersioned(classes, d, 31)
	b0, err := v.Backend("float")
	if err != nil {
		t.Fatal(err)
	}
	eng0 := infer.New(b0, infer.WithEpoch(v.Epoch()))
	co := NewCoalescer(eng0, Config{MaxBatch: 4})
	defer co.Close()

	probe := v.Snapshot().Mem.Items.Vector(3).ToBipolar().Float32()
	res, epoch, err := co.ClassifyEpoch(context.Background(), Probe{Dense: probe}, 1)
	if err != nil || epoch != 0 || res.TopK[0].Class != 3 {
		t.Fatalf("pre-enroll: res=%+v epoch=%d err=%v", res, epoch, err)
	}

	// Enroll and swap in the grown engine: accepted, epoch visible.
	if _, err := v.Enroll("grown", protoFromDense(make([]float32, d))); err != nil {
		t.Fatal(err)
	}
	b1, err := v.Backend("float")
	if err != nil {
		t.Fatal(err)
	}
	eng1 := infer.New(b1, infer.WithEpoch(v.Epoch()))
	if err := co.SwapQuerier(eng1); err != nil {
		t.Fatalf("grown swap rejected: %v", err)
	}
	if got := co.Querier().Classes(); got != classes+1 {
		t.Fatalf("classes after grown swap = %d, want %d", got, classes+1)
	}
	if got := co.Epoch(); got != 1 {
		t.Fatalf("coalescer epoch = %d, want 1", got)
	}
	if _, epoch, err = co.ClassifyEpoch(context.Background(), Probe{Dense: probe}, 1); err != nil || epoch != 1 {
		t.Fatalf("post-enroll classify: epoch=%d err=%v", epoch, err)
	}

	// Shrinking back to the stale pre-enrollment engine must fail and
	// leave the grown querier serving.
	if err := co.SwapQuerier(eng0); !errors.Is(err, ErrIncompatibleSwap) {
		t.Fatalf("shrink swap err = %v, want ErrIncompatibleSwap", err)
	}
	if got := co.Epoch(); got != 1 {
		t.Fatalf("epoch after rejected shrink = %d, want 1", got)
	}
}

// End-to-end live enrollment over HTTP: POST /v1/enroll flows through
// the hook into the versioned store, the store's live view serves the
// new epoch from the next batch on, and subsequent rankings carry the
// new epoch and can hit the new class. Also covers request validation
// and the hook-less 501.
func TestHTTPEnroll(t *testing.T) {
	const classes, d = 9, 256
	v := classmem.NewVersioned(classes, d, 32)
	reg := NewRegistry()
	t.Cleanup(func() { reg.Close() })
	if err := reg.Register("float", NewCoalescer(mustLive(t, v), Config{MaxBatch: 4})); err != nil {
		t.Fatal(err)
	}
	hooks := Hooks{Enroll: func(ctx context.Context, req EnrollRequest) (uint64, error) {
		if len(req.Vector) != d {
			return 0, fmt.Errorf("%w: enroll vector has %d components, want %d", ErrBadInput, len(req.Vector), d)
		}
		return v.Enroll(req.Label, protoFromDense(req.Vector))
	}}
	srv := newHandlerServer(t, reg, hooks)

	// Enroll a class whose prototype is its own best probe.
	vec := make([]float32, d)
	for i := range vec {
		if i%3 == 0 {
			vec[i] = -1
		} else {
			vec[i] = 1
		}
	}
	resp, body := postJSON(t, srv.URL+"/v1/enroll", EnrollRequest{Label: "fresh", Vector: vec})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("enroll: status %d: %s", resp.StatusCode, body)
	}
	var er EnrollResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Label != "fresh" || er.Epoch != 1 {
		t.Fatalf("enroll response = %+v, want fresh@1", er)
	}

	resp, body = postJSON(t, srv.URL+"/v1/classify", ClassifyRequest{K: 1, Embedding: vec})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("classify: status %d: %s", resp.StatusCode, body)
	}
	var cr ClassifyResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Epoch != 1 || len(cr.TopK) != 1 || cr.TopK[0].Label != "fresh" || cr.TopK[0].Class != classes {
		t.Fatalf("post-enroll classify = %+v, want fresh@class %d, epoch 1", cr, classes)
	}

	// The stats surface reports the enrollment state.
	sresp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats statsResponse
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	ms := stats.Models["float"]
	if ms.Epoch != 1 || ms.EnrolledTotal != 1 || ms.Classes != classes+1 {
		t.Fatalf("stats = %+v, want epoch 1, enrolled_total 1, classes %d", ms, classes+1)
	}

	// Validation: label required; exactly one of vector/examples.
	for _, bad := range []EnrollRequest{
		{Vector: vec},
		{Label: "x"},
		{Label: "x", Vector: vec, Examples: [][]float32{vec}},
		{Label: "x", Vector: vec[:3]},
	} {
		if resp, body := postJSON(t, srv.URL+"/v1/enroll", bad); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad enroll %+v: status %d (%s), want 400", bad, resp.StatusCode, body)
		}
	}

	// A deployment without an enroll hook answers 501.
	bare := newHandlerServer(t, reg, Hooks{})
	if resp, _ := postJSON(t, bare.URL+"/v1/enroll", EnrollRequest{Label: "x", Vector: vec}); resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("hook-less enroll: status %d, want 501", resp.StatusCode)
	}
}

// An enrollment the store cannot take now — no replica of a distributed
// growing range could — answers 503 with Retry-After; any other hook
// failure stays a 500.
func TestHTTPEnrollUnavailable(t *testing.T) {
	reg := NewRegistry()
	t.Cleanup(func() { reg.Close() })
	hookErr := fmt.Errorf("%w: router: shard unavailable on every replica", ErrUnavailable)
	srv := newHandlerServer(t, reg, Hooks{Enroll: func(context.Context, EnrollRequest) (uint64, error) {
		return 0, hookErr
	}})
	req := EnrollRequest{Label: "x", Vector: []float32{1, -1}}
	resp, body := postJSON(t, srv.URL+"/v1/enroll", req)
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("unavailable store: status %d, Retry-After %q (%s), want 503 with Retry-After",
			resp.StatusCode, resp.Header.Get("Retry-After"), body)
	}
	hookErr = errors.New("store exploded")
	if resp, body := postJSON(t, srv.URL+"/v1/enroll", req); resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("unclassified hook error: status %d (%s), want 500", resp.StatusCode, body)
	}
}

func newHandlerServer(t *testing.T, reg *Registry, hooks Hooks) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(NewHandler(reg, hooks))
	t.Cleanup(srv.Close)
	return srv
}

func postJSON(t *testing.T, url string, v any) (*http.Response, []byte) {
	t.Helper()
	body, _ := json.Marshal(v)
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
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

// mustLive is the float view of the store that cmd/hdcserve registers:
// it reports the store's epoch, enrolled_total and wal_bytes to /stats,
// and tags every ranking with the epoch that produced it.
func mustLive(t *testing.T, v *classmem.Versioned) *classmem.Live {
	t.Helper()
	l, err := v.Live("float", 0, infer.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	return l
}
