package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/classmem"
	"repro/internal/dist"
	"repro/internal/infer"
	"repro/internal/nn"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// The traced run replays a workload's request stream in-process, one
// request at a time, and records a span around every call it makes into
// a layer. Nothing inside the program is instrumented: spans come from
// this file's own calls and from thin wrappers handed to the layers'
// public constructors (a serve.Querier under serve.NewCoalescer, an
// nn.Inferer under serve.NewNetEmbedder, an infer.Backend under
// infer.NewChecked → dist.NewShardServer).

// Span names. The two roots of a request share its request id:
// spanHandler is the real HTTP handler on an in-memory writer;
// spanLayers is the same work redone as the harness's own sequence of
// layer calls, which is where the per-layer split comes from.
const (
	spanHandler    = "serve.handler"
	spanLayers     = "serve.layer_calls"
	spanDecode     = "serve.json_decode"
	spanEmbed      = "serve.embed"
	spanClassify   = "serve.classify"
	spanEncode     = "serve.json_encode"
	spanNNInfer    = "nn.infer"
	spanQuery      = "infer.query"
	spanRouter     = "dist.router_query"
	spanShardScore = "dist.shard_score"
	spanEnroll     = "classmem.enroll"
	spanEngine     = "infer.engine_build"
	spanSwap       = "serve.swap"
)

// tracedQuerier times the coalescer's inner query.
type tracedQuerier struct {
	serve.Querier
	tr   *tracer
	name string
}

// TryQueryEpoch is the entry point the coalescer prefers; it forwards to
// the wrapped querier's own epoch-returning query when it has one (the
// router) and otherwise reads the engine's build-time epoch stamp.
func (q tracedQuerier) TryQueryEpoch(b *infer.Batch, k int) (res []infer.Result, epoch uint64, err error) {
	q.tr.in(q.name, -1, func() {
		if eq, ok := q.Querier.(interface {
			TryQueryEpoch(*infer.Batch, int) ([]infer.Result, uint64, error)
		}); ok {
			res, epoch, err = eq.TryQueryEpoch(b, k)
			return
		}
		res, err = q.Querier.TryQuery(b, k)
		if e, ok := q.Querier.(interface{ Epoch() uint64 }); ok {
			epoch = e.Epoch()
		}
	})
	return res, epoch, err
}

// tracedInferer times the embedder's compiled plan.
type tracedInferer struct {
	inner nn.Inferer
	tr    *tracer
}

func (t tracedInferer) Infer(x *tensor.Tensor, s *nn.Scratch) *tensor.Tensor {
	defer t.tr.end(t.tr.begin(spanNNInfer, -1))
	return t.inner.Infer(x, s)
}

// tracedBackend times shard-side scoring. It wraps backends without the
// fused select fast path only (the float backend), so the engine above
// it takes the same route it takes unwrapped.
type tracedBackend struct {
	infer.Backend
	tr *tracer
}

// ScoreShard runs concurrently on every shard worker of every shard
// server, so it only reads the current parent (the router's query span)
// and never becomes it.
func (b tracedBackend) ScoreShard(batch *infer.Batch, lo, hi int, out [][]float64) {
	defer b.tr.end(b.tr.begin(spanShardScore, -1))
	b.Backend.ScoreShard(batch, lo, hi, out)
}

func (b tracedBackend) Requires() infer.Representation {
	return b.Backend.(infer.RepresentationRequirer).Requires()
}

// coalescerConfig is hdcserve's default admission policy.
func coalescerConfig() serve.Config {
	return serve.Config{MaxBatch: 32, MaxDelay: 2 * time.Millisecond, Watermark: 4 * 32}
}

// storeEngine is hdcserve's per-epoch engine build over the versioned
// store (including its pinned crossbar tile layout).
func storeEngine(store *classmem.Versioned, name string) (*infer.Engine, error) {
	be, err := store.Backend(name)
	if err != nil {
		return nil, err
	}
	opts := []infer.Option{infer.WithEpoch(store.Epoch())}
	if name == "imc" {
		opts = append(opts, infer.WithWorkers(4))
	}
	return infer.NewChecked(be, opts...)
}

// stack is one workload's serving stack assembled in-process from the
// layers' public constructors, the way cmd/hdcserve (and, for the routed
// stream, cmd/hdcshard) assembles it.
type stack struct {
	w       workload
	tr      *tracer
	reg     *serve.Registry
	handler http.Handler
	co      *serve.Coalescer // the model the stream classifies against
	emb     serve.Embedder   // nil for raw-embedding streams
	router  *dist.Router     // nil unless routed
	closers []func()
	// position in the stream; replay may be called in slices
	seq, enrolls int
}

func (st *stack) close() {
	for i := len(st.closers) - 1; i >= 0; i-- {
		st.closers[i]()
	}
}

// buildStack assembles the workload's stack; global is the class memory
// the routed stream's shard servers split between them (unused otherwise).
func buildStack(w workload, tr *tracer, global infer.Backend) (st *stack, err error) {
	st = &stack{w: w, tr: tr, reg: serve.NewRegistry()}
	st.closers = append(st.closers, st.reg.Close)
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	hooks := serve.Hooks{}
	if w.routed {
		if err := st.buildRouted(global); err != nil {
			return nil, err
		}
	} else {
		store, err := st.openStore()
		if err != nil {
			return nil, err
		}
		models := []string{"float", "binary", "imc"}
		if w.backends != "" {
			models = []string{w.backends}
		}
		for _, name := range models {
			eng, err := storeEngine(store, name)
			if err != nil {
				return nil, err
			}
			co := serve.NewCoalescer(tracedQuerier{eng, tr, spanQuery}, coalescerConfig())
			if err := st.reg.Register(name, co); err != nil {
				return nil, err
			}
		}
		hooks.Enroll = st.enrollHook(store)
	}
	if w.embedder != "" {
		plan, err := servingPlan(w)
		if err != nil {
			return nil, err
		}
		st.emb = serve.NewNetEmbedder(w.embedder, tracedInferer{plan, tr}, []int{3, w.embedImg, w.embedImg}, probeDim)
		if err := st.reg.RegisterEmbedder(w.embedder, st.emb); err != nil {
			return nil, err
		}
	}
	if st.co, err = st.reg.Get(w.model); err != nil {
		return nil, err
	}
	st.handler = serve.NewHandler(st.reg, hooks)
	return st, nil
}

func (st *stack) openStore() (*classmem.Versioned, error) {
	if !st.w.wal {
		return classmem.NewVersioned(st.w.classes, probeDim, serverSeed), nil
	}
	dir, err := os.MkdirTemp("", "hdcbench-replay-")
	if err != nil {
		return nil, err
	}
	st.closers = append(st.closers, func() { _ = os.RemoveAll(dir) }) // temp files; a leftover is harmless
	store, err := classmem.OpenVersioned(filepath.Join(dir, "wal"), st.w.classes, probeDim, serverSeed, 64)
	if err != nil {
		return nil, err
	}
	st.closers = append(st.closers, func() { _ = store.Close() }) // nothing to salvage from a failed close of a temp WAL
	return store, nil
}

// enrollHook is hdcserve's local enrollment: append to the store, then
// rebuild every model's engine and swap it behind its coalescer — with
// a span around each of the three calls.
func (st *stack) enrollHook(store *classmem.Versioned) func(context.Context, serve.EnrollRequest) (uint64, error) {
	return func(_ context.Context, req serve.EnrollRequest) (epoch uint64, err error) {
		proto := signPack(req.Vector)
		st.tr.in(spanEnroll, -1, func() { epoch, err = store.Enroll(req.Label, proto) })
		if err != nil {
			return 0, err
		}
		for _, name := range st.reg.Names() {
			co, err := st.reg.Get(name)
			if err != nil {
				return 0, err
			}
			var eng *infer.Engine
			st.tr.in(spanEngine, -1, func() { eng, err = storeEngine(store, name) })
			if err != nil {
				return 0, err
			}
			st.tr.in(spanSwap, -1, func() { err = co.SwapQuerier(tracedQuerier{eng, st.tr, spanQuery}) })
			if err != nil {
				return 0, err
			}
		}
		return epoch, nil
	}
}

// buildRouted serves the two class ranges from two in-process shard
// servers on loopback TCP and routes to them, as cmd/hdcshard and
// `hdcserve -router` do across processes. Both ranges are frozen slabs:
// the routed stream never enrolls.
func (st *stack) buildRouted(global infer.Backend) error {
	layout, closeShards, err := loopbackShards(global, st.tr)
	st.closers = append(st.closers, closeShards)
	if err != nil {
		return err
	}
	st.router, err = dist.NewRouter(layout, dist.RouterConfig{})
	if err != nil {
		return err
	}
	st.closers = append(st.closers, st.router.Close)
	return st.reg.Register(st.router.Name(), serve.NewCoalescer(tracedQuerier{st.router, st.tr, spanRouter}, coalescerConfig()))
}

// loopbackShards splits the global backend's classes into two frozen
// slabs, each behind its own shard server on loopback TCP.
func loopbackShards(global infer.Backend, tr *tracer) (dist.Layout, func(), error) {
	var servers []*dist.ShardServer
	closeAll := func() {
		for _, s := range servers {
			_ = s.Close() // loopback listener; nothing to recover
		}
	}
	layout := dist.Layout{Classes: global.Classes(), Dim: global.Dim()}
	half := global.Classes() / 2
	for _, r := range [][2]int{{0, half}, {half, global.Classes()}} {
		eng, err := infer.NewChecked(tracedBackend{infer.NewRangeBackend(global, r[0], r[1]), tr})
		if err != nil {
			return layout, closeAll, err
		}
		srv, err := dist.NewShardServer([]dist.Slab{{Base: r[0], Engine: eng}})
		if err != nil {
			return layout, closeAll, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return layout, closeAll, err
		}
		servers = append(servers, srv)
		go func() { _ = srv.Serve(ln) }() // returns when closeAll closes the server
		layout.Shards = append(layout.Shards, dist.ShardSpec{Range: r, Replicas: []string{ln.Addr().String()}})
	}
	return layout, closeAll, nil
}

// memWriter is the in-memory http.ResponseWriter the handler writes to.
type memWriter struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (m *memWriter) Header() http.Header         { return m.header }
func (m *memWriter) WriteHeader(code int)        { m.status = code }
func (m *memWriter) Write(p []byte) (int, error) { return m.body.Write(p) }

// replayed is what one replay pass leaves behind.
type replayed struct {
	samples  []sample        // every response, for the oracle
	handler  []time.Duration // real-handler time of classify/embed requests
	layerSum []time.Duration // Σ of the harness's own layer calls for the same requests
}

// replay continues the stream through the stack for dur, appending to
// out: each request goes once through the real handler and, if it is a
// classify, once more as the harness's own decode → embed → classify →
// encode calls.
func (st *stack) replay(p *pools, dur time.Duration, out *replayed) error {
	paths := map[int]string{kindClassify: "/v1/classify", kindEmbed: "/v1/embed-classify", kindEnroll: "/v1/enroll"}
	for start := time.Now(); time.Since(start) < dur; st.seq++ {
		s := sample{seq: st.seq, phase: phaseClosed}
		s.kind, s.slot = p.pick(st.seq)
		body := p.bodies[s.slot]
		if s.kind == kindEnroll {
			s.slot = st.enrolls
			body = p.enrollBody(st.enrolls)
			st.enrolls++
		}
		if st.tr != nil {
			st.tr.curReq.Store(int64(st.seq + 1))
		}

		req, err := http.NewRequest(http.MethodPost, paths[s.kind], bytes.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		w := &memWriter{header: http.Header{}}
		t := time.Now()
		st.tr.in(spanHandler, 0, func() { st.handler.ServeHTTP(w, req) })
		took := time.Since(t)
		s.lat, s.status, s.body = took, w.status, bytes.Clone(w.body.Bytes())
		out.samples = append(out.samples, s)
		if w.status != http.StatusOK {
			continue // the oracle reports it
		}

		t = time.Now()
		if err := st.layerCalls(s.kind, body, s.body); err != nil {
			return err
		}
		if s.kind != kindEnroll {
			out.handler = append(out.handler, took)
			out.layerSum = append(out.layerSum, time.Since(t))
		}
	}
	return nil
}

// layerCalls redoes one request as direct calls into the layers, a span
// around each. An enrollment is not redone (it would enroll twice); only
// its JSON work, a pure function of the bytes, is timed here — the
// enrollment itself was timed inside the real handler, through the hook.
func (st *stack) layerCalls(kind int, body, respBody []byte) (err error) {
	tr := st.tr
	root := tr.begin(spanLayers, 0)
	defer tr.end(root)
	switch kind {
	case kindEnroll:
		var req serve.EnrollRequest
		var resp serve.EnrollResponse
		tr.in(spanDecode, root, func() { err = json.Unmarshal(body, &req) })
		if err == nil {
			err = json.Unmarshal(respBody, &resp)
		}
		tr.in(spanEncode, root, func() { _, _ = json.Marshal(resp) }) // timing only; the type always marshals
	default:
		// Classify and embed-classify differ in how the probe is obtained
		// and in the response's type; the rest is one path.
		var dense []float32
		var k int
		if kind == kindEmbed {
			var req serve.EmbedClassifyRequest
			tr.in(spanDecode, root, func() { err = json.Unmarshal(body, &req) })
			if err != nil {
				break
			}
			tr.in(spanEmbed, root, func() {
				var probe *tensor.Tensor
				if probe, err = st.emb.Embed(tensor.FromSlice(req.Input, append([]int{1}, st.emb.InShape()...)...)); err == nil {
					dense = probe.Row(0)
				}
			})
			k = req.K
		} else {
			var req serve.ClassifyRequest
			tr.in(spanDecode, root, func() { err = json.Unmarshal(body, &req) })
			dense, k = req.Embedding, req.K
		}
		if err != nil {
			break
		}
		var res infer.Result
		var epoch uint64
		tr.in(spanClassify, root, func() {
			res, epoch, err = st.co.ClassifyEpoch(context.Background(), serve.Probe{Dense: dense}, k)
		})
		var resp any = serve.ClassifyResponse{Model: st.w.model, Epoch: epoch, TopK: hits(res)}
		if kind == kindEmbed {
			resp = serve.EmbedClassifyResponse{Model: st.w.model, Embedder: st.emb.Name(), Epoch: epoch, TopK: hits(res)}
		}
		tr.in(spanEncode, root, func() { _, _ = json.Marshal(resp) }) // timing only; the types always marshal
	}
	if err != nil {
		return fmt.Errorf("replaying a %s request as layer calls: %w", st.w.name, err)
	}
	return nil
}

func hits(res infer.Result) []serve.ClassifyHit {
	out := make([]serve.ClassifyHit, 0, len(res.TopK))
	for _, h := range res.TopK {
		out = append(out, serve.ClassifyHit{Class: h.Class, Label: h.Label, Score: h.Score})
	}
	return out
}
