package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/classmem"
	"repro/internal/infer"
	"repro/internal/serve"
)

// maxResidual is the largest share of the end-to-end median the layers
// may leave unexplained before the traced run fails.
const maxResidual = 0.15

// runTraced produces the per-layer ledger of one workload: side by side,
// a traced in-process replay of its request stream, an untraced replay
// of the same stream (the difference is the tracing overhead), a
// sequential run against the real server (what the layers must sum to)
// and the cost of loopback HTTP; then the fixed-geometry probes for the
// lines the stream does not touch.
func runTraced(ctx context.Context, w workload, o options) (*report, error) {
	// train_eval sends no requests; its ledger takes the serve lines from
	// the first serving stream so that every workload prints every line.
	stream := w
	if w.name == "train_eval" {
		stream = workloads[0]
	}
	frac := func(f float64) time.Duration { return time.Duration(f * o.seconds * float64(time.Second)) }
	p := genPools(stream, o.seed)
	rep := &report{metrics: map[string]metric{}}

	// The routed geometry's float class memory: the routed stream's shard
	// servers and two of the probes score against it; built once.
	routed, _ := findWorkload("routed_classify")
	global, err := classmem.Build(routed.classes, probeDim, serverSeed).Backend(routed.model)
	if err != nil {
		return nil, err
	}

	tr := newTracer()
	m, err := measureRounds(ctx, stream, p, global, tr, frac(0.48), o.wrongOracle, rep)
	if err != nil {
		return nil, err
	}
	traced := m.traced
	if err := writeSpans(filepath.Join(o.outDir, "spans.jsonl"), tr.spans); err != nil {
		return nil, err
	}
	l, err := runProbes(frac(0.22), o.seed, global)
	if err != nil {
		return nil, err
	}
	replayLines(l, stream, tr.spans)
	l.us("serve.handler_us", medianDur(traced.handler))
	other := make([]time.Duration, len(traced.handler))
	for i := range other {
		other[i] = traced.handler[i] - traced.layerSum[i]
	}
	l.us("serve.handler_other_us", medianDur(other))
	l.count("serve.batch_size_mean", m.stats.MeanBatch)
	l.count("serve.shed_count", float64(m.stats.Shed))
	l.count("serve.cancelled_count", float64(m.stats.Cancelled))

	plain, e2e, loopback := medianDur(m.untraced.handler), medianDur(m.e2e), medianDur(m.loopback)
	l.frac("trace_overhead_frac", float64(medianDur(traced.handler)-plain)/float64(plain))
	// The residual is taken round by round — each round's three medians
	// were measured within a fraction of a second of one another — and the
	// median round is reported.
	residual := math.Abs(median(m.residuals))
	l.frac("layer_sum_residual_frac", residual)
	if residual > maxResidual {
		rep.failures = append(rep.failures, fmt.Sprintf(
			"layers do not sum to the whole: end-to-end p50 %v, in-process handler p50 %v + loopback p50 %v leaves %.0f%% unexplained (limit %.0f%%)",
			e2e, plain, loopback, residual*100, maxResidual*100))
	}
	if err := checkSpanTree(tr.spans); err != nil {
		rep.failures = append(rep.failures, err.Error())
	}

	for name, m := range l {
		rep.metrics[name] = m
	}
	rep.infof("stream %s: %d traced and %d untraced requests replayed, %d spans in %s", stream.name,
		len(traced.samples), len(m.untraced.samples), len(tr.spans), filepath.Join(o.outDir, "spans.jsonl"))
	rep.infof("end-to-end p50 %v (one connection, real server) = handler p50 %v + loopback p50 %v + residual", e2e, plain, loopback)
	return rep, nil
}

// replayLines writes the ledger lines the stream's own replay measured:
// medians over the harness's layer-call spans.
func replayLines(l ledger, stream workload, spans []span) {
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	// inLayerCalls: the span descends from a spanLayers root — the
	// harness's own call sequence, not the real handler's internals.
	inLayerCalls := func(s span) bool {
		for s.Parent != 0 {
			s = byID[s.Parent]
		}
		return s.Name == spanLayers
	}
	// A request is a classify when its layer-call root has a classify
	// child; the JSON lines describe classify bodies only.
	classifyRoot := map[int]bool{}
	for _, s := range spans {
		if s.Name == spanClassify {
			classifyRoot[s.Parent] = true
		}
	}
	self := selfTimes(spans)
	collect := func(name string, selfTime bool, keep func(span) bool) time.Duration {
		var ds []time.Duration
		for _, s := range spans {
			if s.Name == name && keep(s) {
				if selfTime {
					ds = append(ds, self[s.ID])
				} else {
					ds = append(ds, s.dur())
				}
			}
		}
		return medianDur(ds)
	}
	ofClassify := func(s span) bool { return classifyRoot[s.Parent] }
	l.us("serve.json_decode_us", collect(spanDecode, false, ofClassify))
	l.us("serve.json_encode_us", collect(spanEncode, false, ofClassify))
	l.us("serve.queue_wait_us", collect(spanClassify, true, inLayerCalls))
	if stream.embedder != "" {
		l.us("serve.embed_us", collect(spanEmbed, false, inLayerCalls))
		l.us("nn.infer_int8_b1_us", collect(spanNNInfer, false, inLayerCalls))
	}
	if stream.routed {
		q, score, wire := routerSplit(spans, inLayerCalls)
		l.us("dist.router_query_b1_us", q)
		l.us("dist.shard_score_us", score)
		l.us("dist.wire_us", wire)
	} else {
		l.us("infer.query_"+stream.model+"_b1_us", collect(spanQuery, false, inLayerCalls))
	}
	if stream.enrollFrac > 0 {
		all := func(span) bool { return true }
		l.us("classmem.enroll_us", collect(spanEnroll, false, all))
		l.us("infer.engine_build_us", collect(spanEngine, false, all))
		l.us("serve.swap_us", collect(spanSwap, false, all))
	}
}

// checkSpanTree asserts what the self-time arithmetic relies on: every
// span closed, every parent known, every same-request child inside its
// parent's interval.
func checkSpanTree(spans []span) error {
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) was never closed", s.ID, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			return fmt.Errorf("span %d (%s) names unknown parent %d", s.ID, s.Name, s.Parent)
		}
		if s.Req != p.Req || s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d (%s) is not inside its parent %d (%s)", s.ID, s.Name, p.ID, p.Name)
		}
	}
	return nil
}

// measured is everything the traced run times against a live stack or
// server: the traced replay, and what its layers must add up to.
type measured struct {
	traced   *replayed       // the stream replayed under the tracer
	stats    serve.Stats     // the traced stack's coalescer counters
	untraced *replayed       // the stream replayed with a nil tracer
	e2e      []time.Duration // classify latency of the real server: one connection, one request at a time
	loopback []time.Duration // loopback HTTP cost of the same bodies (see loopbackCost)
	// residuals holds, per round, the share of the round's end-to-end
	// median that its untraced handler median plus loopback median leave
	// unexplained (signed).
	residuals []float64
}

// rounds is how many times measureRounds alternates its four
// measurements.
const rounds = 8

// measureRounds takes its four measurements in alternating slices, not
// one after the other: the box's speed drifts by a tenth or more over
// tens of seconds, and quantities that are compared with, or subtracted
// from, one another must see the same drift. Half of budget goes to the
// traced replay, a sixth to each of the other three.
func measureRounds(ctx context.Context, stream workload, p *pools, global infer.Backend, tr *tracer, budget time.Duration, sabotage bool, rep *report) (*measured, error) {
	tracedStack, err := buildStack(stream, tr, global)
	if err != nil {
		return nil, err
	}
	defer tracedStack.close()
	plainStack, err := buildStack(stream, nil, global)
	if err != nil {
		return nil, err
	}
	defer plainStack.close()

	bins, err := findBinaries()
	if err != nil {
		return nil, err
	}
	classifyOnly := stream
	classifyOnly.enrollFrac = 0 // the real server is asked for the classify path alone
	fl, _, err := startFleet(ctx, bins, classifyOnly)
	if err != nil {
		return nil, err
	}
	defer fl.stop()
	g := newGenerator(fl.front.addr, genPools(classifyOnly, p.seed), 1)
	defer g.close()

	// The null peer is this binary again, as its own process: waking an
	// idle peer process is part of what loopback HTTP costs the real fleet.
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	null, err := startChild(ctx, self, "nullserver")
	if err != nil {
		return nil, err
	}
	defer null.stop()

	m := &measured{traced: &replayed{}, untraced: &replayed{}}
	slice := budget / (6 * rounds)
	g.closedLoop(phaseWarm, slice)
	for range rounds {
		if err := tracedStack.replay(p, 3*slice, m.traced); err != nil {
			return nil, err
		}
		before := len(m.untraced.handler)
		if err := plainStack.replay(p, slice, m.untraced); err != nil {
			return nil, err
		}
		handler := m.untraced.handler[before:]
		var e2e []time.Duration
		for _, s := range g.closedLoop(phaseClosed, slice) {
			if s.status != http.StatusOK {
				return nil, fmt.Errorf("reference request: status %d: %s", s.status, s.body)
			}
			e2e = append(e2e, s.lat)
		}
		if len(handler) == 0 || len(e2e) == 0 {
			return nil, fmt.Errorf("a slice of %v completed no classify request", slice)
		}
		costs, err := loopbackCost(null.addr, p.bodies, medianDur(handler), slice)
		if err != nil {
			return nil, err
		}
		whole := medianDur(e2e)
		m.residuals = append(m.residuals, float64(whole-medianDur(handler)-medianDur(costs))/float64(whole))
		m.e2e = append(m.e2e, e2e...)
		m.loopback = append(m.loopback, costs...)
	}
	m.stats = tracedStack.co.Stats()

	orc, err := newOracle(stream, p)
	if err != nil {
		return nil, err
	}
	orc.sabotage = sabotage
	for _, out := range []*replayed{m.traced, m.untraced} {
		rep.attempted += len(out.samples)
		rep.failures = append(rep.failures, orc.check(out.samples)...)
	}
	return m, nil
}

// The null server is told how long to hold a request and reports how
// long it actually did; the round trip minus that is the loopback cost.
// Holding matters: both processes go idle for the length of a real
// request, and waking an idle peer is part of what the real fleet pays.
const (
	holdHeader    = "X-Hold-Ns"
	serviceHeader = "X-Service-Ns"
)

// loopbackCost posts bodies to the null server one at a time for dur and
// returns each round trip minus the time the server reports holding it.
func loopbackCost(addr string, bodies [][]byte, hold, dur time.Duration) ([]time.Duration, error) {
	client := &http.Client{Timeout: 5 * time.Second}
	defer client.CloseIdleConnections()
	var costs []time.Duration
	for i, start := 0, time.Now(); time.Since(start) < dur; i++ {
		req, err := http.NewRequest(http.MethodPost, "http://"+addr+"/", bytes.NewReader(bodies[i%len(bodies)]))
		if err != nil {
			return nil, err
		}
		req.Header.Set(holdHeader, strconv.FormatInt(int64(hold), 10))
		t := time.Now()
		resp, err := client.Do(req)
		if err != nil {
			return nil, err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		rtt := time.Since(t)
		if err != nil {
			return nil, err
		}
		service, err := strconv.ParseInt(resp.Header.Get(serviceHeader), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("null server reply: %w", err)
		}
		costs = append(costs, rtt-time.Duration(service))
	}
	return costs, nil
}

// nullServerMain serves every request by draining its body, holding it
// for the time the request names, and writing a reply about the size of
// a top-5 response, until signalled.
func nullServerMain(ctx context.Context) int {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, "hdcbench nullserver:", err)
		return 1
	}
	reply := bytes.Repeat([]byte{' '}, 400)
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)                            // draining is the whole job
		hold, _ := strconv.ParseInt(r.Header.Get(holdHeader), 10, 64) // absent or malformed: no hold
		t := time.Now()
		time.Sleep(time.Duration(hold))
		w.Header().Set(serviceHeader, strconv.FormatInt(int64(time.Since(t)), 10))
		_, _ = w.Write(reply)
	})}
	go func() {
		<-ctx.Done()
		_ = srv.Close() // exiting anyway
	}()
	fmt.Fprintf(os.Stderr, "hdcbench nullserver: listening on %s\n", ln.Addr())
	if err := srv.Serve(ln); err != http.ErrServerClosed {
		fmt.Fprintln(os.Stderr, "hdcbench nullserver:", err)
		return 1
	}
	return 0
}
