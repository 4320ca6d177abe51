package serve

import (
	"context"
	"encoding/json"
	"errors"
	"mime"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/infer"
	"repro/internal/lat"
	"repro/internal/tensor"
)

// Request body size caps, enforced with http.MaxBytesReader before any
// JSON decoding. Classify carries one embedding (~tens of KB at the
// paper's d); embed-classify carries a raw input tensor and gets more
// headroom.
const (
	maxClassifyBody = 1 << 20 // 1 MiB
	maxEmbedBody    = 8 << 20 // 8 MiB
)

// ClassifyRequest is the POST /v1/classify body. Embedding is the dense
// probe; for the packed-binary backend it is sign-packed server-side, so
// one request shape serves every registered backend.
type ClassifyRequest struct {
	// Model names the registered backend ("float", "binary"); optional
	// when exactly one model is registered.
	Model string `json:"model,omitempty"`
	// K is the number of ranked hits to return (default 1).
	K int `json:"k,omitempty"`
	// Embedding is the dense probe, length = backend dimensionality.
	Embedding []float32 `json:"embedding"`
}

// ClassifyHit is one ranked class in a ClassifyResponse.
type ClassifyHit struct {
	Class int     `json:"class"`
	Label string  `json:"label"`
	Score float64 `json:"score"`
}

// ClassifyResponse is the POST /v1/classify reply. Epoch tags the
// ranking with the class-memory version that produced it: a client
// (or the chaos oracle) replaying the probe against the base memory
// plus the first Epoch enrollments reproduces the ranking byte for
// byte. 0 is the frozen pre-enrollment memory.
type ClassifyResponse struct {
	Model string        `json:"model"`
	Epoch uint64        `json:"epoch,omitempty"`
	TopK  []ClassifyHit `json:"topk"`
}

// EnrollRequest is the POST /v1/enroll body: one new class, given
// either as a ready prototype vector (component signs are taken — the
// bipolar representation) or as example vectors bundled server-side by
// the majority rule. Enrollment is store-wide: every registered model
// over the shared class memory observes the new class at the returned
// epoch.
type EnrollRequest struct {
	// Label names the new class; required.
	Label string `json:"label"`
	// Vector is the class prototype (length = memory dimensionality).
	// Exactly one of Vector and Examples must be set.
	Vector []float32 `json:"vector,omitempty"`
	// Examples are bundled into the prototype by the majority rule.
	Examples [][]float32 `json:"examples,omitempty"`
	// Seed drives the bundling tie-break when Examples is set (an even
	// example count can tie componentwise); the same request bits must
	// yield the same prototype bits everywhere.
	Seed int64 `json:"seed,omitempty"`
}

// EnrollResponse is the POST /v1/enroll reply: the epoch at which the
// new class became queryable. Rankings tagged with an epoch ≥ this one
// include the class.
type EnrollResponse struct {
	Label string `json:"label"`
	Epoch uint64 `json:"epoch"`
}

// EmbedClassifyRequest is the POST /v1/embed-classify body: a raw
// per-sample input (flattened, row-major) that the named embedder turns
// into a probe before the usual coalesced readout — the end-to-end
// serving path.
type EmbedClassifyRequest struct {
	// Model names the backend to classify against; optional when exactly
	// one model is registered.
	Model string `json:"model,omitempty"`
	// Embedder names the registered embedder; optional when exactly one
	// is registered.
	Embedder string `json:"embedder,omitempty"`
	// K is the number of ranked hits to return (default 1).
	K int `json:"k,omitempty"`
	// Shape optionally asserts the per-sample input shape; it must match
	// the embedder's expected shape when present.
	Shape []int `json:"shape,omitempty"`
	// Input is one sample, flattened row-major to the embedder's input
	// shape (e.g. C·H·W values for an image embedder).
	Input []float32 `json:"input"`
}

// EmbedClassifyResponse is the POST /v1/embed-classify reply. Epoch is
// the class-memory version that served the ranking (see
// ClassifyResponse).
type EmbedClassifyResponse struct {
	Model    string        `json:"model"`
	Embedder string        `json:"embedder"`
	Epoch    uint64        `json:"epoch,omitempty"`
	TopK     []ClassifyHit `json:"topk"`
}

// healthResponse is the GET /healthz reply.
type healthResponse struct {
	Status    string   `json:"status"`
	Models    []string `json:"models"`
	Embedders []string `json:"embedders,omitempty"`
}

// modelStats is one model's entry in the GET /stats reply. Workers is
// the in-process engine's shard-worker count; Shards is the distributed
// router's shard-range count — whichever the model's querier reports.
// QuerierLat carries any named latency histograms the querier itself
// exports (the distributed router reports its shard round-trip times
// as "shard_rtt").
// Epoch, EnrolledTotal, and WALBytes surface live enrollment: the
// published class-memory epoch, classes enrolled beyond the frozen
// base, and the enrollment WAL's on-disk size (the operator's
// compaction gauge) — read through optional interface assertions on
// the querier, so frozen deployments simply omit them.
type modelStats struct {
	Backend       string                  `json:"backend"`
	Classes       int                     `json:"classes"`
	Dim           int                     `json:"dim"`
	Workers       int                     `json:"workers,omitempty"`
	Shards        int                     `json:"shards,omitempty"`
	Epoch         uint64                  `json:"epoch,omitempty"`
	EnrolledTotal uint64                  `json:"enrolled_total,omitempty"`
	WALBytes      int64                   `json:"wal_bytes,omitempty"`
	MaxBatch      int                     `json:"max_batch"`
	MaxInFlight   int                     `json:"max_inflight"`
	Watermark     int                     `json:"watermark,omitempty"`
	QuerierLat    map[string]lat.Snapshot `json:"querier_lat,omitempty"`
	Stats
}

// embedderStats is one embedder's entry in the GET /stats reply: its
// geometry and the server-side embed-stage latency histogram.
type embedderStats struct {
	InShape []int         `json:"in_shape"`
	OutDim  int           `json:"out_dim"`
	Embed   *lat.Snapshot `json:"embed,omitempty"`
}

// statsResponse is the GET /stats reply: per-model coalescer counters
// and stage histograms (queue wait, readout) beside per-embedder embed
// timings — the internal decomposition of the external latency
// the benchmark/ harness measures.
type statsResponse struct {
	Models    map[string]modelStats    `json:"models"`
	Embedders map[string]embedderStats `json:"embedders,omitempty"`
}

// Hooks lets the process embedding the handler surface its lifecycle
// and its writes: readiness (load balancers poll /readyz and stop
// routing on 503) and live enrollment (POST /v1/enroll). The zero value
// serves a process that is always ready and takes no enrollments.
type Hooks struct {
	// Ready reports whether the process should receive traffic. nil
	// means always ready. /readyz returns 503 while it reports false —
	// during startup (models still compiling) and during the shutdown
	// drain window.
	Ready func() bool
	// Enroll adds one class to the live class memory and returns the
	// epoch at which it became queryable (durable before visible when
	// the deployment has a WAL). The serve layer has validated shape
	// basics; the hook owns dimensionality and bundling. nil disables
	// POST /v1/enroll (501).
	Enroll func(ctx context.Context, req EnrollRequest) (uint64, error)
}

// embedTimers aggregates per-embedder embed-stage latency, keyed by
// embedder name.
type embedTimers struct {
	mu sync.Mutex
	m  map[string]*lat.Hist
}

func (et *embedTimers) get(name string) *lat.Hist {
	et.mu.Lock()
	defer et.mu.Unlock()
	h, ok := et.m[name]
	if !ok {
		h = &lat.Hist{}
		et.m[name] = h
	}
	return h
}

func (et *embedTimers) snapshot(name string) *lat.Snapshot {
	et.mu.Lock()
	h, ok := et.m[name]
	et.mu.Unlock()
	if !ok {
		return nil
	}
	s := h.Snapshot()
	return &s
}

// NewHandler builds the HTTP JSON API over a registry:
//
//	POST /v1/classify        — classify one embedding against a named model
//	POST /v1/embed-classify  — embed one raw input, then classify it
//	POST /v1/enroll          — add one class live (wired via Hooks.Enroll)
//	GET  /healthz            — liveness plus registered model/embedder names
//	GET  /readyz             — readiness: 503 during startup and drain
//	GET  /stats              — per-model coalescer counters + stage histograms
//
// Every handler is registered with a method-specific pattern, so a
// wrong-method request gets a uniform 405 from the mux. POST bodies are
// size-capped and must be JSON (an explicit non-JSON Content-Type is
// rejected with 415). Overloaded coalescers surface as 429 with a
// Retry-After hint. At most one Hooks value wires the embedding
// process's readiness and enrollment callbacks in.
func NewHandler(reg *Registry, hookList ...Hooks) http.Handler {
	var hooks Hooks
	if len(hookList) > 0 {
		hooks = hookList[0]
	}
	embedTimes := &embedTimers{m: make(map[string]*lat.Hist)}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/classify", func(w http.ResponseWriter, r *http.Request) {
		var req ClassifyRequest
		if !decodeJSON(w, r, maxClassifyBody, &req) {
			return
		}
		co, err := reg.Get(req.Model)
		if err != nil {
			httpError(w, http.StatusNotFound, err.Error())
			return
		}
		res, epoch, err := co.ClassifyEpoch(r.Context(), Probe{Dense: req.Embedding}, req.K)
		if err != nil {
			classifyError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, ClassifyResponse{
			Model: co.Querier().Name(),
			Epoch: epoch,
			TopK:  toHits(res.TopK),
		})
	})
	mux.HandleFunc("POST /v1/enroll", func(w http.ResponseWriter, r *http.Request) {
		if hooks.Enroll == nil {
			httpError(w, http.StatusNotImplemented, "this deployment has no enroll hook")
			return
		}
		var req EnrollRequest
		if !decodeJSON(w, r, maxEmbedBody, &req) {
			return
		}
		if req.Label == "" {
			httpError(w, http.StatusBadRequest, ErrBadInput.Error()+": enroll label must be non-empty")
			return
		}
		if (len(req.Vector) == 0) == (len(req.Examples) == 0) {
			httpError(w, http.StatusBadRequest,
				ErrBadInput.Error()+": exactly one of vector and examples must be set")
			return
		}
		epoch, err := hooks.Enroll(r.Context(), req)
		if err != nil {
			enrollError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, EnrollResponse{Label: req.Label, Epoch: epoch})
	})
	mux.HandleFunc("POST /v1/embed-classify", func(w http.ResponseWriter, r *http.Request) {
		var req EmbedClassifyRequest
		if !decodeJSON(w, r, maxEmbedBody, &req) {
			return
		}
		emb, err := reg.Embedder(req.Embedder)
		if err != nil {
			httpError(w, http.StatusNotFound, err.Error())
			return
		}
		co, err := reg.Get(req.Model)
		if err != nil {
			httpError(w, http.StatusNotFound, err.Error())
			return
		}
		shape := emb.InShape()
		if req.Shape != nil && !slices.Equal(req.Shape, shape) {
			httpError(w, http.StatusBadRequest,
				ErrBadInput.Error()+": request shape does not match the embedder's input shape")
			return
		}
		want := 1
		for _, s := range shape {
			want *= s
		}
		if len(req.Input) != want {
			httpError(w, http.StatusBadRequest,
				ErrBadInput.Error()+": input element count does not match the embedder's input shape")
			return
		}
		// Deadline propagation: the embed stage is the expensive half of
		// this endpoint — do not spend it on a caller that already hung up.
		if r.Context().Err() != nil {
			httpError(w, statusClientClosedRequest, "client went away before embedding")
			return
		}
		x := tensor.FromSlice(req.Input, append([]int{1}, shape...)...)
		embedStart := time.Now()
		probe, err := emb.Embed(x)
		embedTimes.get(emb.Name()).Observe(time.Since(embedStart))
		if err != nil {
			// Input geometry was validated above, so a failure here is a
			// server-side embedder problem unless it says otherwise.
			code := http.StatusInternalServerError
			if errors.Is(err, ErrBadInput) {
				code = http.StatusBadRequest
			}
			httpError(w, code, err.Error())
			return
		}
		res, epoch, err := co.ClassifyEpoch(r.Context(), Probe{Dense: probe.Row(0)}, req.K)
		if err != nil {
			classifyError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, EmbedClassifyResponse{
			Model:    co.Querier().Name(),
			Embedder: emb.Name(),
			Epoch:    epoch,
			TopK:     toHits(res.TopK),
		})
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		// Liveness only: the process is up and the mux answers. Routing
		// decisions belong to /readyz.
		writeJSON(w, http.StatusOK, healthResponse{
			Status: "ok", Models: reg.Names(), Embedders: reg.EmbedderNames(),
		})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if hooks.Ready != nil && !hooks.Ready() {
			httpError(w, http.StatusServiceUnavailable, "not ready")
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		out := statsResponse{
			Models:    make(map[string]modelStats),
			Embedders: make(map[string]embedderStats),
		}
		for _, name := range reg.Names() {
			co, err := reg.Get(name)
			if err != nil {
				continue // raced with Close
			}
			q := co.Querier()
			ms := modelStats{
				Backend:     q.Name(),
				Classes:     q.Classes(),
				Dim:         q.Dim(),
				MaxBatch:    co.Config().MaxBatch,
				MaxInFlight: co.Config().MaxInFlight,
				Watermark:   co.Config().Watermark,
				Stats:       co.Stats(),
			}
			if w, ok := q.(interface{ Workers() int }); ok {
				ms.Workers = w.Workers()
			}
			if s, ok := q.(interface{ Shards() int }); ok {
				ms.Shards = s.Shards()
			}
			if ls, ok := q.(interface {
				LatencySnapshots() map[string]lat.Snapshot
			}); ok {
				ms.QuerierLat = ls.LatencySnapshots()
			}
			if e, ok := q.(interface{ Epoch() uint64 }); ok {
				ms.Epoch = e.Epoch()
			}
			if e, ok := q.(interface{ EnrolledTotal() uint64 }); ok {
				ms.EnrolledTotal = e.EnrolledTotal()
			}
			if wb, ok := q.(interface{ WALBytes() int64 }); ok {
				ms.WALBytes = wb.WALBytes()
			}
			out.Models[name] = ms
		}
		for _, name := range reg.EmbedderNames() {
			emb, err := reg.Embedder(name)
			if err != nil {
				continue
			}
			out.Embedders[name] = embedderStats{
				InShape: emb.InShape(),
				OutDim:  emb.OutDim(),
				Embed:   embedTimes.snapshot(name),
			}
		}
		writeJSON(w, http.StatusOK, out)
	})
	return mux
}

// statusClientClosedRequest is nginx's non-standard 499: the client
// disconnected before the server produced a response. Nothing reads the
// reply (the client is gone) — the code exists for the access log.
const statusClientClosedRequest = 499

// decodeJSON enforces the shared POST-body policy — JSON content type,
// size cap, well-formed body — writing the error response itself and
// returning false when the request should not proceed.
func decodeJSON(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	if ct := r.Header.Get("Content-Type"); ct != "" {
		mt, _, err := mime.ParseMediaType(ct)
		if err != nil || mt != "application/json" {
			httpError(w, http.StatusUnsupportedMediaType,
				"unsupported content type "+ct+": want application/json")
			return false
		}
	}
	r.Body = http.MaxBytesReader(w, r.Body, limit)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge, err.Error())
			return false
		}
		httpError(w, http.StatusBadRequest, "malformed JSON: "+err.Error())
		return false
	}
	return true
}

// retryAfterSeconds is the Retry-After hint sent with 429 responses
// (and with 503s for an unavailable enrollment store): a coalescer
// sheds because its queue already holds more than a watermark of work,
// which drains in Watermark/(MaxBatch×MaxInFlight) rounds of batch
// readouts — one second is a safely conservative client backoff at any
// sane configuration.
const retryAfterSeconds = 1

// classifyError maps Coalescer.Classify errors onto status codes,
// shared by both classification endpoints. ErrOverloaded is the load
// -shedding contract: 429 plus Retry-After so a well-behaved client
// backs off instead of hammering a saturated queue.
func classifyError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrBadProbe):
		httpError(w, http.StatusBadRequest, err.Error())
	case errors.Is(err, ErrOverloaded):
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
		httpError(w, http.StatusTooManyRequests, err.Error())
	case errors.Is(err, ErrClosed):
		httpError(w, http.StatusServiceUnavailable, err.Error())
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		httpError(w, statusClientClosedRequest, err.Error())
	default:
		httpError(w, http.StatusInternalServerError, err.Error())
	}
}

// enrollError maps Hooks.Enroll errors onto status codes. Geometry and
// label problems are the caller's fault (400); an unavailable store
// (ErrUnavailable: the distributed router could not get any replica of
// the growing range to take the flip) is 503 with Retry-After, so the
// client retries against a healed cluster.
func enrollError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrBadInput), errors.Is(err, ErrBadProbe):
		httpError(w, http.StatusBadRequest, err.Error())
	case errors.Is(err, ErrUnavailable):
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
		httpError(w, http.StatusServiceUnavailable, err.Error())
	case errors.Is(err, ErrClosed):
		httpError(w, http.StatusServiceUnavailable, err.Error())
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		httpError(w, statusClientClosedRequest, err.Error())
	default:
		httpError(w, http.StatusInternalServerError, err.Error())
	}
}

// toHits converts engine hits to the JSON response shape.
func toHits(top []infer.Hit) []ClassifyHit {
	out := make([]ClassifyHit, 0, len(top))
	for _, h := range top {
		out = append(out, ClassifyHit{Class: h.Class, Label: h.Label, Score: h.Score})
	}
	return out
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
