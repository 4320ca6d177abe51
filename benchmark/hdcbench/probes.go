package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/classmem"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dist"
	"repro/internal/hdc"
	"repro/internal/infer"
	"repro/internal/nn"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// The layer probes time one public function of one layer at a fixed
// geometry, one caller, warm. They fill the ledger lines a workload's
// own request stream does not exercise, so the ledger has the same keys
// on every workload; where the stream does exercise a line, the
// replay's figure replaces the probe's (see runTraced).

// ledger is the per-layer output of a traced run.
type ledger map[string]metric

func (l ledger) us(name string, d time.Duration)            { l[name] = metric{us(d), "us"} }
func (l ledger) ms(name string, d time.Duration)            { l[name] = metric{ms(d), "ms"} }
func (l ledger) count(name string, v float64)               { l[name] = metric{v, "count"} }
func (l ledger) frac(name string, v float64)                { l[name] = metric{v, "frac"} }
func medianDur(ds []time.Duration) time.Duration            { return time.Duration(median(durationsNS(ds))) }
func timeMedian(box time.Duration, fn func()) time.Duration { return medianDur(untilElapsed(box, fn)) }

func durationsNS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d)
	}
	return out
}

// allocsPerOp is the mean heap allocation count of fn, measured warm on
// this goroutine (the same reading testing.AllocsPerRun takes).
func allocsPerOp(fn func()) float64 {
	const runs = 50
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / runs
}

// runProbes times every probe, giving each the same share of budget.
func runProbes(budget time.Duration, seed int64, global infer.Backend) (ledger, error) {
	l := ledger{}
	box := budget / 40 // about forty timed loops below
	for _, probe := range []func() error{
		func() error { return probeTensor(l, box, seed) },
		func() error { return probeInferHDC(l, box, seed, global) },
		func() error { return probeClassmem(l, box, seed) },
		func() error { return probeServingNet(l, box, seed) },
		func() error { return probeDist(l, box, seed, global) },
		func() error { return probePaperPath(l, box, seed) },
	} {
		if err := probe(); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// probeTensor times the canonical GEMM shapes the embedder's plans are
// made of, f32 and int8, exactly as the root BenchmarkGEMM/Gemm8 do.
func probeTensor(l ledger, box time.Duration, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	for _, sh := range tensor.GemmBenchShapes {
		var short string
		switch sh.Name {
		case "conv3x3-mid":
			short = "conv3x3_mid"
		case "proj-linear":
			short = "proj"
		default:
			continue
		}
		x := tensor.Randn(rng, 1, sh.M, sh.K)
		y := tensor.Randn(rng, 1, sh.K, sh.N)
		dst := tensor.New(sh.M, sh.N)
		var buf tensor.GemmBuf
		l.us("tensor.gemm_f32_"+short+"_us", timeMedian(box, func() {
			tensor.GemmInto(dst, x, y, tensor.GemmOpts{Buf: &buf})
		}))

		wq := make([]int8, sh.M*sh.K)
		for i := range wq {
			wq[i] = int8(rng.Intn(2*tensor.Gemm8WMax+1) - tensor.Gemm8WMax)
		}
		pw := tensor.PackB8(wq, sh.M, sh.K)
		xq := make([]int8, sh.K*sh.N)
		for i := range xq {
			xq[i] = int8(rng.Intn(2*tensor.Gemm8AMax+1) - tensor.Gemm8AMax)
		}
		scale := make([]float32, sh.M)
		for i := range scale {
			scale[i] = 1 / float32(sh.K)
		}
		dq := make([]int8, sh.M*sh.N)
		opts := tensor.Gemm8Opts{RowScale: scale, ReLU: true, InvOutScale: 16, Buf: &buf}
		l.us("tensor.gemm8_"+short+"_us", timeMedian(box, func() {
			tensor.Gemm8QInto(dq, pw, xq, sh.N, opts)
		}))
	}
	embed, _ := findWorkload("embed_classify")
	l.count("tensor.flops_per_embed", embedFlops(embed.embedImg, embed.embedWidth, probeDim))
	return nil
}

// embedFlops is computed, not measured: 2·MACs of every convolution of
// the micro ResNet50 topology (nn.NewResNet: stride-1 3×3 stem, four
// bottleneck stages of one block, stride 2 from the second on, each with
// a 1×1 projection shortcut) plus the FC projection, for one image.
func embedFlops(img, width, dim int) float64 {
	conv := func(inC, outC, k, side int) float64 { return 2 * float64(inC*outC*k*k*side*side) }
	side := img
	total := conv(3, width, 3, side)
	inC := width
	for stage := range 4 {
		w := width << stage
		outSide := side
		if stage > 0 {
			outSide = (side + 1) / 2
		}
		total += conv(inC, w, 1, side) + conv(w, w, 3, outSide) + conv(w, 4*w, 1, outSide) + conv(inC, 4*w, 1, outSide)
		inC, side = 4*w, outSide
	}
	return total + 2*float64(inC*dim)
}

// probeInferHDC times the readout: engine queries at the serving
// geometries, sign-packing, the engine build an enrollment pays, and
// the item memory's own scan and sort-based top-k.
func probeInferHDC(l ledger, box time.Duration, seed int64, global infer.Backend) error {
	rng := rand.New(rand.NewSource(seed))
	one := tensor.FromSlice(randVec(rng, probeDim), 1, probeDim)
	many := tensor.New(32, probeDim)
	copy(many.Data, randVec(rng, 32*probeDim))

	store := classmem.NewVersioned(200, probeDim, serverSeed)
	var bin *infer.Engine
	var err error
	l.us("infer.engine_build_us", timeMedian(box, func() {
		var be infer.Backend
		if be, err = store.Backend("binary"); err == nil {
			bin, err = infer.NewChecked(be)
		}
	}))
	if err != nil {
		return err
	}
	var packed []*hdc.Binary
	l.us("infer.pack_sign_us", timeMedian(box, func() { packed = infer.PackSign(one) }))
	var rb infer.ResultBuf
	packedBatch := infer.PackedBatch(packed)
	query := func() { bin.QueryInto(packedBatch, topK, &rb) }
	l.us("infer.query_binary_b1_us", timeMedian(box, query))
	l.count("infer.query_allocs_per_op", allocsPerOp(query))

	flt, err := infer.NewChecked(infer.NewRangeBackend(global, 0, global.Classes()/2))
	if err != nil {
		return err
	}
	b1, b32 := infer.DenseBatch(one), infer.DenseBatch(many)
	l.us("infer.query_float_b1_us", timeMedian(box, func() { flt.QueryInto(b1, topK, &rb) }))
	l.us("infer.query_float_b32_us", timeMedian(box, func() { flt.QueryInto(b32, topK, &rb) }))

	items := store.Snapshot().Mem.Items
	l.us("hdc.nearest_d1536_us", timeMedian(box, func() { items.NearestInRange(packed[0], 0, items.Len()) }))
	l.us("hdc.topk_sort_us", timeMedian(box, func() { items.QueryTopK(packed[0], topK) }))
	return nil
}

// probeClassmem times the class memory's life cycle: build, enroll with
// and without the WAL (the difference is the fsync), replay, compact.
func probeClassmem(l ledger, box time.Duration, seed int64) error {
	l.ms("classmem.build_200_ms", timeMedian(box, func() { classmem.NewVersioned(200, probeDim, serverSeed) }))
	l.ms("classmem.build_1000_ms", timeMedian(box, func() { classmem.NewVersioned(1000, probeDim, serverSeed) }))

	rng := rand.New(rand.NewSource(seed))
	protos := make([]*hdc.Binary, poolSize)
	for i := range protos {
		protos[i] = signPack(randVec(rng, probeDim))
	}
	var err error
	enrollInto := func(store *classmem.Versioned) time.Duration {
		n := 0
		return timeMedian(box, func() {
			if _, e := store.Enroll(fmt.Sprintf("probe-%06d", n), protos[n%poolSize]); e != nil {
				err = e
			}
			n++
		})
	}
	l.us("classmem.enroll_nowal_us", enrollInto(classmem.NewVersioned(200, probeDim, serverSeed)))

	dir, err2 := os.MkdirTemp("", "hdcbench-wal-")
	if err2 != nil {
		return err2
	}
	defer os.RemoveAll(dir)
	walDir := filepath.Join(dir, "wal")
	// snapshot-every 0: the log is never compacted, so replay below reads
	// every enrollment back.
	durable, err2 := classmem.OpenVersioned(walDir, 200, probeDim, serverSeed, 0)
	if err2 != nil {
		return err2
	}
	l.us("classmem.enroll_us", enrollInto(durable))
	enrolled := float64(durable.EnrolledTotal())
	l.count("classmem.wal_bytes_per_enroll", float64(durable.WALBytes())/enrolled)
	if err2 := durable.Close(); err2 != nil {
		return err2
	}
	if err != nil {
		return err
	}

	replay := timeMedian(box, func() {
		var s *classmem.Versioned
		if s, err = classmem.OpenVersioned(walDir, 200, probeDim, serverSeed, 0); err == nil {
			err = s.Close()
		}
	})
	if err != nil {
		return err
	}
	l.ms("classmem.replay_ms_per_1k", time.Duration(float64(replay)*1000/enrolled))

	reopened, err := classmem.OpenVersioned(walDir, 200, probeDim, serverSeed, 0)
	if err != nil {
		return err
	}
	defer reopened.Close()
	t := time.Now()
	if err := reopened.Compact(); err != nil {
		return err
	}
	l.ms("classmem.compact_ms", time.Since(t))
	return nil
}

// probeServingNet times the embedder at the embed_classify geometry:
// compile, calibrate, and batch-1 inference through both plans, plus
// the two serve-layer calls around a plan and an engine.
func probeServingNet(l ledger, box time.Duration, seed int64) error {
	w, _ := findWorkload("embed_classify")
	fresh := func() *core.ImageEncoder {
		return core.NewImageEncoder(rand.New(rand.NewSource(serverSeed+0x5eed)), nn.MicroResNet50Config(w.embedWidth), probeDim)
	}
	var err error
	var compile, calibrate []time.Duration
	calib := calibrationBatch(w.embedImg)
	var enc *core.ImageEncoder
	for start := time.Now(); len(compile) < 2 || time.Since(start) < 2*box; {
		enc = fresh()
		t := time.Now()
		if err = enc.Compiled().Precompile(3, w.embedImg, w.embedImg); err != nil {
			return err
		}
		compile = append(compile, time.Since(t))
		t = time.Now()
		if _, err = enc.CompiledInt8(calib); err != nil {
			return err
		}
		calibrate = append(calibrate, time.Since(t))
	}
	l.ms("nn.compile_ms", medianDur(compile))
	l.ms("nn.calibrate_int8_ms", medianDur(calibrate))

	x := tensor.FromSlice(synthImages(seed, w.embedImg, 1)[0], 1, 3, w.embedImg, w.embedImg)
	f32 := enc.Compiled()
	i8, err := enc.CompiledInt8(calib)
	if err != nil {
		return err
	}
	sc := nn.NewScratch()
	inferInt8 := func() { sc.Reset(); i8.Infer(x, sc) }
	l.us("nn.infer_f32_b1_us", timeMedian(box, func() { sc.Reset(); f32.Infer(x, sc) }))
	l.us("nn.infer_int8_b1_us", timeMedian(box, inferInt8))
	l.count("nn.infer_allocs_per_op", allocsPerOp(inferInt8))

	emb := serve.NewNetEmbedder(w.embedder, i8, []int{3, w.embedImg, w.embedImg}, probeDim)
	l.us("serve.embed_us", timeMedian(box, func() { _, err = emb.Embed(x) }))
	if err != nil {
		return err
	}

	store := classmem.NewVersioned(200, probeDim, serverSeed)
	eng, err := storeEngine(store, "binary")
	if err != nil {
		return err
	}
	co := serve.NewCoalescer(eng, coalescerConfig())
	defer co.Close()
	l.us("serve.swap_us", timeMedian(box, func() { err = co.SwapQuerier(eng) }))
	return err
}

// probeDist times scatter-gather over two loopback shard servers at the
// routed_classify geometry, batch 1 and batch 32.
func probeDist(l ledger, box time.Duration, seed int64, global infer.Backend) error {
	tr := newTracer()
	layout, closeShards, err := loopbackShards(global, tr)
	defer closeShards()
	if err != nil {
		return err
	}
	router, err := dist.NewRouter(layout, dist.RouterConfig{})
	if err != nil {
		return err
	}
	defer router.Close()
	q := tracedQuerier{router, tr, spanRouter}

	rng := rand.New(rand.NewSource(seed))
	one := tensor.FromSlice(randVec(rng, probeDim), 1, probeDim)
	many := tensor.New(32, probeDim)
	copy(many.Data, randVec(rng, 32*probeDim))
	b1, b32 := infer.DenseBatch(one), infer.DenseBatch(many)
	timeMedian(box, func() { _, _, err = q.TryQueryEpoch(b1, topK) })
	if err != nil {
		return err
	}
	rq, score, wire := routerSplit(tr.spans, func(span) bool { return true })
	l.us("dist.router_query_b1_us", rq)
	l.us("dist.shard_score_us", score)
	l.us("dist.wire_us", wire)
	l.us("dist.shard_rtt_p50_us", time.Duration(router.LatencySnapshots()["shard_rtt"].P50*float64(time.Millisecond)))
	l.us("dist.router_query_b32_us", timeMedian(box, func() { _, err = router.TryQuery(b32, topK) }))
	l.count("dist.bytes_per_query", wireBytes(len(layout.Shards), 1, probeDim, topK))
	return err
}

// routerSplit reduces router-query spans (those keep admits) to the
// median query time, the median of each query's slowest shard score, and
// the median remainder — frame encode, loopback round trip, decode and
// merge.
func routerSplit(spans []span, keep func(span) bool) (query, score, wire time.Duration) {
	slowest := map[int]time.Duration{}
	for _, s := range spans {
		if s.Name == spanShardScore {
			slowest[s.Parent] = max(slowest[s.Parent], s.dur())
		}
	}
	var queries, scores, wires []time.Duration
	for _, s := range spans {
		if s.Name == spanRouter && keep(s) {
			queries = append(queries, s.dur())
			scores = append(scores, slowest[s.ID])
			wires = append(wires, s.dur()-slowest[s.ID])
		}
	}
	return medianDur(queries), medianDur(scores), medianDur(wires)
}

// wireBytes is computed from the frame layout in internal/dist's
// protocol comment: per shard, a query frame (4 length + 5 header + 21
// fixed + the dense probe rows) and a results frame (4 + 5 + 2 + per
// probe 2 + k·12).
func wireBytes(shards, n, dim, k int) float64 {
	query := 4 + 5 + 21 + 4*n*dim
	results := 4 + 5 + 2 + n*(2+k*12)
	return float64(shards * (query + results))
}

// probePaperPath times the training path's pieces at the train_eval
// geometry: one phase-III epoch, one evaluation, class encoding, batch
// assembly, and batch-32 inference through both plans.
func probePaperPath(l ledger, box time.Duration, seed int64) error {
	pm, err := buildPaperModel(seed, false)
	if err != nil {
		return err
	}
	oneEpoch := pm.cfg.PhaseIII
	oneEpoch.Epochs = 1
	l.ms("core.train_epoch_ms", timeMedian(box, func() { core.TrainZSC(pm.model, pm.data, pm.split, oneEpoch) }))
	l.ms("core.eval_zsc_ms", timeMedian(box, func() { core.EvalZSC(pm.model, pm.data, pm.split) }))
	l.us("attrenc.encode_classes_us", timeMedian(box, func() { core.ClassEmbeddings(pm.model, pm.data, pm.split.TestClasses) }))

	labelOf := dataset.ClassIndexMap(pm.split.TestClasses)
	ids := pm.split.Test[:paperEvalBatch]
	var batch dataset.Batch
	l.us("dataset.make_batch_us", timeMedian(box, func() { batch = pm.data.MakeBatch(ids, labelOf, nil, nil) }))

	sc := nn.NewScratch()
	f32 := pm.model.Image.Compiled()
	l.us("nn.infer_f32_b32_us", timeMedian(box, func() { sc.Reset(); f32.Infer(batch.Images, sc) }))
	if err := pm.installInt8(); err != nil {
		return err
	}
	i8 := pm.model.Image.EvalNet()
	l.us("nn.infer_int8_b32_us", timeMedian(box, func() { sc.Reset(); i8.Infer(batch.Images, sc) }))
	return nil
}
