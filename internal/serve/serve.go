// Package serve is the concurrent serving layer over the batched
// inference engine (internal/infer): the seam that turns the repo's
// evaluation-time readout into a traffic-facing subsystem.
//
// Three pieces compose:
//
//   - Coalescer: a micro-batching front. Callers submit single probes
//     (Classify); the coalescer runs them through one shared
//     concurrency-safe infer.Engine in at most MaxInFlight concurrent
//     batches and demultiplexes per-probe Results back to the waiting
//     callers. Dispatch is work-conserving — a probe flushes as soon as an
//     execution slot is free and coalesces with later arrivals (up to
//     MaxBatch) only while every slot is busy — so an idle service adds
//     no queueing delay, and under load single-probe callers get within a
//     few percent of raw batched-Query throughput (see
//     BenchmarkServeCoalesced at the repo root) without ever seeing a
//     batch.
//   - Registry: a named model table, so one process serves the float
//     and packed-binary backends side by side. It also names Embedders:
//     frozen networks run through their compiled plans (nn.CompiledNet),
//     turning raw inputs into probes so the process serves end to end
//     (raw input → embed → coalesce → readout).
//   - Handler: a net/http JSON API over a Registry — POST /v1/classify,
//     POST /v1/embed-classify, GET /healthz, GET /stats — the surface
//     cmd/hdcserve exposes.
//
// The layer holds no model state of its own: every scaling feature the
// ROADMAP plans (result caching, async serving, multi-node sharding)
// slots in between the Coalescer and the Engine.
package serve

import (
	"errors"
	"runtime"
	"time"

	"repro/internal/infer"
	"repro/internal/lat"
)

// Typed errors returned by Classify and the registry.
var (
	// ErrClosed: the coalescer has been closed and accepts no new probes.
	ErrClosed = errors.New("serve: coalescer closed")
	// ErrOverloaded: the admission queue is past its watermark; the
	// request was shed without touching the engine. The HTTP layer maps
	// it to 429 with a Retry-After hint — fail fast is the contract: a
	// caller that would have waited past its deadline anyway learns
	// immediately, and the queue depth (hence the latency of accepted
	// requests) stays bounded.
	ErrOverloaded = errors.New("serve: overloaded, request shed")
	// ErrIncompatibleSwap: SwapQuerier was offered a querier whose
	// geometry (dimensionality or probe representation) does not match
	// the one the coalescer was built around, or that serves fewer
	// classes than the querier it would replace.
	ErrIncompatibleSwap = errors.New("serve: incompatible querier swap")
	// ErrBadProbe: the submitted probe is missing, malformed, or does not
	// match the backend's dimensionality or representation.
	ErrBadProbe = errors.New("serve: bad probe")
	// ErrUnknownModel: the registry holds no model under the given name.
	ErrUnknownModel = errors.New("serve: unknown model")
	// ErrDuplicateModel: a model is already registered under the name.
	ErrDuplicateModel = errors.New("serve: duplicate model")
	// ErrUnknownEmbedder: the registry holds no embedder under the name.
	ErrUnknownEmbedder = errors.New("serve: unknown embedder")
	// ErrDuplicateEmbedder: an embedder is already registered under the name.
	ErrDuplicateEmbedder = errors.New("serve: duplicate embedder")
	// ErrBadInput: a raw embed input is missing, malformed, or does not
	// match the embedder's input geometry.
	ErrBadInput = errors.New("serve: bad embed input")
	// ErrUnavailable: the store an enrollment goes to cannot take it
	// now (no replica of a distributed growing range could); the HTTP
	// layer maps it to 503 with a Retry-After hint.
	ErrUnavailable = errors.New("serve: class memory unavailable")
)

// Querier is the classification surface the coalescer batches in front
// of: a local infer.Engine or a dist.Router fanning out to shard
// processes. The coalescer — and everything above it, registry and HTTP
// included — cannot tell the difference; that indifference is what lets
// `hdcserve -router` serve a distributed class memory through the same
// micro-batching front as a local one. Implementations must be safe for
// concurrent TryQuery calls and must return freshly allocated results
// (the coalescer demultiplexes them to waiting callers).
type Querier interface {
	TryQuery(batch *infer.Batch, k int) ([]infer.Result, error)
	// Name is the served backend's name, surfaced in API responses.
	Name() string
	// Classes is the global class count.
	Classes() int
	// Dim is the probe dimensionality, enforced at admission.
	Dim() int
	// Requires is the probe representation the backend consumes; dense
	// probes are sign-packed at admission for RepPacked queriers.
	Requires() infer.Representation
}

// Config is the coalescer's admission policy.
type Config struct {
	// MaxBatch caps the probes in one engine batch (default 32, the
	// evaluation pipeline's embedding batch size). A batch that reaches it
	// stops admission until an execution slot frees.
	MaxBatch int
	// MaxDelay is ignored: dispatch is work-conserving and has no flush
	// timer. The field remains only so the frozen benchmark harness
	// (benchmark/hdcbench), which still sets it, compiles; the next PR
	// that may edit benchmark/ removes it.
	MaxDelay time.Duration
	// Watermark is the admission-queue depth (requests admitted but not
	// yet dispatched to the engine) beyond which new requests are shed
	// with ErrOverloaded instead of queuing; negative means 4×MaxBatch
	// (cmd/hdcserve's default). 0 disables shedding: the queue then holds
	// 4×MaxBatch requests, and a full queue blocks Classify until the
	// coalescer drains or the caller's context expires.
	Watermark int
	// MaxInFlight is the number of execution slots: the cap on
	// concurrently executing engine batches (default 2×GOMAXPROCS). With
	// MaxBatch it is all that shapes batches — a pending batch flushes the
	// moment a slot is free, and probes coalesce only while all slots are
	// busy. It is also what makes the watermark effective: a slow backend
	// fills the slots, the admission loop blocks, the queue builds to the
	// watermark, and new arrivals shed.
	MaxInFlight int
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 32
	}
	if c.Watermark < 0 {
		c.Watermark = 4 * c.MaxBatch
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 2 * runtime.GOMAXPROCS(0)
	}
	return c
}

// Stats is a snapshot of a coalescer's serving counters, also the
// per-model payload of the HTTP /stats endpoint.
type Stats struct {
	Requests     uint64  `json:"requests"`      // probes admitted
	Rejected     uint64  `json:"rejected"`      // probes rejected before admission (bad probe, closed)
	Shed         uint64  `json:"shed"`          // probes shed at the admission watermark (ErrOverloaded)
	Cancelled    uint64  `json:"cancelled"`     // admitted probes dropped at drain: caller ctx already done
	Batches      uint64  `json:"batches"`       // engine batches flushed
	FullFlushes  uint64  `json:"full_flushes"`  // batches flushed because they reached MaxBatch
	SlotFlushes  uint64  `json:"slot_flushes"`  // batches flushed below MaxBatch because an execution slot was free
	DrainFlushes uint64  `json:"drain_flushes"` // batches flushed while shutting down
	LargestBatch int     `json:"largest_batch"` // largest batch flushed so far
	MeanBatch    float64 `json:"mean_batch"`    // mean probes per flushed batch
	InFlight     int64   `json:"in_flight"`     // batches currently executing on the engine
	QueueDepth   int64   `json:"queue_depth"`   // probes admitted but not yet dispatched

	// Per-stage latency histograms, the internal decomposition of the
	// end-to-end latency a client sees: how long probes waited in the
	// admission queue, and how long engine/router readout took per batch.
	QueueWait *lat.Snapshot `json:"queue_wait,omitempty"`
	Readout   *lat.Snapshot `json:"readout,omitempty"`
}
