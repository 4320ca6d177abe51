// Command hdcserve runs the HTTP serving layer over the batched
// inference engine: one process, one frozen HDC-ZSC class memory, two
// backends served side by side behind micro-batching coalescers.
//
//	hdcserve [flags]
//
// The class memory is built at startup the way the paper's edge
// deployment would ship it: bundled class prototypes from the
// stationary HDC attribute encoder over a SynthCUB class set
// (internal/classmem), realized as float embeddings (reference cosine
// path) and a packed binary item memory (XOR+popcount edge path). Each
// backend gets its own live view of the class memory (classmem.Live)
// behind its own coalescer, registered under its backend name ("float",
// "binary"). The analog crossbar backend is not served: its per-query
// read noise breaks the byte-identical ranking contract, so -backends
// refuses "imc" and `hdczsc -backend imc` evaluates it offline.
//
// With -router shards.json the process serves a DISTRIBUTED class
// memory instead: no local engines — the registered model is a
// dist.Router that routes every coalesced probe batch to the
// cmd/hdcshard processes in the routing table, merges their
// candidate lists with the engine's own comparator, and fails over
// between replicas. The HTTP surface is unchanged; /v1/classify and
// /v1/embed-classify transparently serve from N shard processes, with
// rankings byte-identical to a single-process deployment of the same
// memory (float/binary backends).
//
// The process also serves end to end: a frozen ResNet image encoder
// (the paper's γ at laptop scale) is registered as an embedder and run
// through its compiled frozen-graph plan (nn.CompiledNet), so POST
// /v1/embed-classify accepts raw image tensors and classifies them
// against any backend — no client-side embedding required. One shared
// plan serves every in-flight request concurrently. The encoder is
// served twice: as "resnet" through its f32 plan, and as "resnet-int8"
// through its quantized int8 compiled plan — same frozen weights,
// per-channel symmetric int8 GEMMs, activations int8 between plan steps
// (see nn.CompileQuantized), the software twin of the paper's
// low-bit deployment story.
//
// Live enrollment: POST /v1/enroll appends a class to the serving
// memory without a restart. Locally the class memory is an
// RCU-versioned store (internal/classmem.Versioned): the enrollment
// appends past the published prefix and publishes the next epoch, and
// nothing else. Each live view reads the published epoch once per batch
// and builds that epoch's engine on the first batch there, so in-flight
// rankings finish on their epoch while later probes see the new class,
// and only a backend that is queried builds an engine. With -wal DIR every
// enrollment is WAL-durable (fsync before publish) and replayed on
// restart; -snapshot-every bounds replay length by compacting the log
// into a snapshot. In -router mode the enrollment is forwarded to the
// router's two-phase epoch flip across the growing range's replicas; a
// flip no replica could take answers 503 with Retry-After.
// Every classify response carries the epoch it was served at.
//
// Batching: each coalescer runs at most -max-inflight batches at once
// and dispatches work-conservingly — a probe is scored the moment an
// execution slot is free, and probes coalesce (up to -max-batch) only
// while every slot is busy. There is no flush timer: an idle server adds
// no queueing delay, a saturated one runs full batches.
//
// Overload: the coalescers shed requests past the -watermark queue
// depth (HTTP 429 + Retry-After) instead of queuing without bound, so
// the latency of accepted requests stays bounded at any offered load;
// -watermark 0 restores blocking backpressure. benchmark/run.sh drives
// it with open-loop traffic.
//
// The process serves the state it starts with until shutdown: the
// embedder plans are frozen, and the class memory changes only through
// enrollment, whose epochs the live views already serve.
//
// Shutdown: SIGINT or SIGTERM flips /readyz to 503, stops accepting new
// HTTP requests, drains in-flight requests and pending coalescer
// batches within -drain, then exits; a second signal aborts
// immediately.
//
// API:
//
//	POST /v1/classify        {"model":"binary","k":5,"embedding":[...]}
//	POST /v1/embed-classify  {"model":"float","embedder":"resnet","k":3,"input":[...3·H·W floats...]}
//	POST /v1/enroll          {"label":"night-heron","vector":[...]} or {"label":...,"examples":[[...],...],"seed":7}
//	GET  /healthz
//	GET  /readyz
//	GET  /stats
//
// Example:
//
//	hdcserve -classes 50 -d 1536 -addr :8080 &
//	curl -s localhost:8080/healthz
//	curl -s -X POST localhost:8080/v1/classify -H 'Content-Type: application/json' \
//	  -d '{"model":"binary","k":3,"embedding":[0.12,-0.7,...]}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
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

// defaultBackends is the -backends default: every backend the server
// serves.
const defaultBackends = "float,binary"

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address (0 port resolves at bind)")
		classes      = flag.Int("classes", 50, "number of classes in the frozen memory")
		dim          = flag.Int("d", 1536, "hypervector dimensionality")
		seed         = flag.Int64("seed", 1, "master seed for the synthetic class memory")
		workers      = flag.Int("workers", 0, "engine shard workers per backend (0 = NumCPU)")
		maxBatch     = flag.Int("max-batch", 32, "coalescer: most probes in one engine batch")
		watermark    = flag.Int("watermark", -1, "coalescer: shed (429) once this many requests are queued (-1 = 4×max-batch, 0 = block instead of shedding)")
		maxInFlight  = flag.Int("max-inflight", 0, "coalescer: execution slots, the cap on concurrently executing engine batches; probes batch only while all are busy (0 = 2×GOMAXPROCS)")
		backends     = flag.String("backends", defaultBackends, "comma-separated backends to register (float, binary)")
		embedder     = flag.Bool("embedder", true, "register the frozen ResNet image embedder for /v1/embed-classify")
		embedImg     = flag.Int("embed-img", 16, "embedder input image size (pixels, square)")
		embedWidth   = flag.Int("embed-width", 8, "embedder ResNet base width")
		routerPath   = flag.String("router", "", "serve a distributed class memory from this shards.json instead of local engines")
		shardTimeout = flag.Duration("shard-timeout", 2*time.Second, "router: per-replica attempt timeout")
		walDir       = flag.String("wal", "", "durable enrollment: WAL+snapshot directory (empty = enrollments are in-memory only)")
		snapEvery    = flag.Int("snapshot-every", 64, "compact the enrollment WAL into a snapshot every N enrollments (0 = never)")
		drain        = flag.Duration("drain", 5*time.Second, "shutdown: deadline for draining in-flight requests")
	)
	flag.Parse()

	cfg := serve.Config{MaxBatch: *maxBatch, Watermark: *watermark, MaxInFlight: *maxInFlight}
	var (
		reg    *serve.Registry
		router *dist.Router
		store  *classmem.Versioned
		err    error
	)
	if *routerPath != "" {
		if *walDir != "" {
			err = fmt.Errorf("hdcserve: -wal is a shard-side concern in -router mode (pass it to the growing hdcshard)")
		} else {
			reg, router, err = buildRouterRegistry(*routerPath, *shardTimeout, cfg)
		}
		if err == nil {
			*dim = router.Dim() // the embedder must produce shard-dim probes
		}
	} else {
		store, err = classmem.OpenVersioned(*walDir, *classes, *dim, *seed, *snapEvery)
		if err == nil {
			reg, err = buildRegistry(store, *workers, *backends, cfg)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *embedder {
		embs, err := buildEmbedders(*dim, *seed, *embedImg, *embedWidth)
		for name, e := range embs {
			if err == nil {
				err = reg.RegisterEmbedder(name, e)
			}
		}
		if err != nil {
			reg.Close()
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	if router != nil {
		log.Printf("hdcserve: routing %d classes at d=%d over %d shard ranges, models %v, embedders %v",
			router.Classes(), router.Dim(), router.Shards(), reg.Names(), reg.EmbedderNames())
	} else {
		co, _ := reg.Get(reg.Names()[0])
		log.Printf("hdcserve: %d classes at d=%d (epoch %d, %d enrolled), models %v, embedders %v, coalescer max-batch=%d watermark=%d",
			*classes, *dim, store.Epoch(), store.EnrolledTotal(), reg.Names(), reg.EmbedderNames(), co.Config().MaxBatch, co.Config().Watermark)
	}

	// Live enrollment: convert the request into a packed prototype, then
	// either drive the router's two-phase epoch flip (distributed) or
	// enroll into the local versioned store, whose live views serve the
	// new epoch from the next query on.
	enroll := func(_ context.Context, req serve.EnrollRequest) (uint64, error) {
		proto, err := enrollProto(req, *dim)
		if err != nil {
			return 0, err
		}
		if router != nil {
			epoch, err := router.Enroll(req.Label, proto)
			if errors.Is(err, dist.ErrShardDown) || errors.Is(err, dist.ErrClosed) {
				err = fmt.Errorf("%w: %w", serve.ErrUnavailable, err)
			}
			return epoch, err
		}
		return store.Enroll(req.Label, proto)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		reg.Close()
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	var ready atomic.Bool
	srv := &http.Server{Handler: serve.NewHandler(reg, serve.Hooks{
		Ready:  ready.Load,
		Enroll: enroll,
	})}

	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 2)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		// Readiness drops first so load balancers stop routing here while
		// in-flight requests drain.
		ready.Store(false)
		log.Printf("hdcserve: shutting down (drain %v; second signal aborts)", *drain)
		go func() {
			<-sig
			log.Print("hdcserve: aborted")
			os.Exit(1)
		}()
		// Ordered drain: stop accepting and wait out in-flight HTTP
		// requests, then flush the coalescers' pending batches, then tear
		// down the shard connections those batches needed.
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("hdcserve: drain deadline exceeded: %v", err)
		}
		reg.Close()
		if router != nil {
			router.Close()
		}
		if store != nil {
			store.Close()
		}
	}()

	log.Printf("hdcserve: listening on %s", ln.Addr())
	ready.Store(true)
	if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
		log.Fatal(err)
	}
	<-done
}

// buildRegistry registers one live view of the versioned class memory
// per requested backend, each behind its own coalescer. The store starts
// at the seed-derived base memory plus whatever its WAL replayed; each
// view builds the engine for a new epoch on its first query there.
func buildRegistry(store *classmem.Versioned, workers int, backendList string, cfg serve.Config) (*serve.Registry, error) {
	reg := serve.NewRegistry()
	for _, name := range strings.Split(backendList, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if name == "imc" {
			reg.Close()
			return nil, fmt.Errorf("hdcserve: backend imc is not served: its per-query analog noise breaks the byte-identical ranking contract (evaluate it offline with hdczsc -backend imc)")
		}
		var opts []infer.Option
		if workers > 0 {
			opts = append(opts, infer.WithWorkers(workers))
		}
		live, err := store.Live(name, 0, opts...)
		if err != nil {
			reg.Close()
			return nil, err
		}
		if err := reg.Register(live.Name(), serve.NewCoalescer(live, cfg)); err != nil {
			reg.Close()
			return nil, err
		}
	}
	if len(reg.Names()) == 0 {
		return nil, fmt.Errorf("no backends registered (-backends %q)", backendList)
	}
	return reg, nil
}

// enrollProto converts one enroll request into the packed class
// prototype the class memory stores: a single dense vector is
// sign-packed directly; example vectors are sign-packed then bundled
// by majority rule with the request seed breaking ties (the paper's
// bundling operator). The HTTP layer already enforced exactly one of
// the two forms.
func enrollProto(req serve.EnrollRequest, dim int) (*hdc.Binary, error) {
	if len(req.Vector) > 0 {
		bp, err := signBipolar(req.Vector, dim)
		if err != nil {
			return nil, err
		}
		return hdc.FromBipolar(bp), nil
	}
	examples := make([]hdc.Bipolar, len(req.Examples))
	for i, ex := range req.Examples {
		bp, err := signBipolar(ex, dim)
		if err != nil {
			return nil, err
		}
		examples[i] = bp
	}
	proto, err := classmem.BundleExamples(req.Seed, examples...)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", serve.ErrBadInput, err)
	}
	return proto, nil
}

func signBipolar(vec []float32, dim int) (hdc.Bipolar, error) {
	if len(vec) != dim {
		return nil, fmt.Errorf("%w: enroll vector has %d components, the class memory expects %d",
			serve.ErrBadInput, len(vec), dim)
	}
	bp := make(hdc.Bipolar, len(vec))
	for i, v := range vec {
		if v < 0 {
			bp[i] = -1
		} else {
			bp[i] = 1
		}
	}
	return bp, nil
}

// buildRouterRegistry connects to the shard processes in the routing
// table and registers the scatter-gather router as the served model,
// behind the same micro-batching coalescer local engines get (the
// serve.Querier seam): probes coalesce into batches, batches fan out to
// shards as single multi-probe frames.
func buildRouterRegistry(path string, shardTimeout time.Duration, cfg serve.Config) (*serve.Registry, *dist.Router, error) {
	layout, err := dist.LoadLayout(path)
	if err != nil {
		return nil, nil, err
	}
	router, err := dist.NewRouter(layout, dist.RouterConfig{ShardTimeout: shardTimeout})
	if err != nil {
		return nil, nil, err
	}
	reg := serve.NewRegistry()
	if err := reg.Register(router.Name(), serve.NewCoalescer(router, cfg)); err != nil {
		router.Close()
		reg.Close()
		return nil, nil, err
	}
	return reg, router, nil
}

// buildEmbedders freezes a seed-deterministic ResNet image encoder
// (micro ResNet50 topology, FC projection to the class-memory d) and
// compiles it into frozen-graph inference plans (BatchNorms folded into
// conv weights, bias/ReLU/residual adds fused into the GEMM write-back,
// activation buffers pre-scheduled — see nn.CompiledNet). The network
// is never trained and nothing ever calls its mutating Forward, so one
// compiled plan is shared read-only by every in-flight
// /v1/embed-classify request.
//
// Two plans serve side by side, so clients pick per request: "resnet",
// the f32 plan, and "resnet-int8", the quantized plan of
// nn.CompileQuantized, calibrated on a seed-deterministic synthetic
// image batch at the serving geometry, one image per pass on all cores,
// with scales bitwise those of a whole-batch pass.
func buildEmbedders(dim int, seed int64, img, width int) (map[string]serve.Embedder, error) {
	if img < 8 || width < 1 {
		return nil, fmt.Errorf("bad embedder geometry: -embed-img %d -embed-width %d", img, width)
	}
	rng := rand.New(rand.NewSource(seed + 0x5eed))
	enc := core.NewImageEncoder(rng, nn.MicroResNet50Config(width), dim)
	compiled := enc.Compiled()
	// Build the plan for the serving geometry now, so the first request
	// pays no compile latency and a lowering problem fails startup.
	if err := compiled.Precompile(3, img, img); err != nil {
		return nil, err
	}
	quantized, err := enc.CompiledInt8(calibrationBatch(seed, img))
	if err != nil {
		return nil, err
	}
	return map[string]serve.Embedder{
		"resnet":      serve.NewNetEmbedder("resnet", compiled, []int{3, img, img}, dim),
		"resnet-int8": serve.NewNetEmbedder("resnet-int8", quantized, []int{3, img, img}, dim),
	}, nil
}

// calibrationBatch generates the representative image batch the int8
// lowering calibrates activation scales on: one small seed-derived
// SynthCUB at the serving geometry, so the scales see image-statistics
// activations (not noise) and a given seed always quantizes to the same
// plan.
func calibrationBatch(seed int64, img int) *tensor.Tensor {
	dcfg := dataset.DefaultConfig()
	dcfg.NumClasses = 8
	dcfg.ImagesPerClass = 4
	dcfg.Height, dcfg.Width = img, img
	dcfg.Seed = seed + 0xca11b
	data := dataset.Generate(dcfg)
	ids := make([]int, len(data.Instances))
	classes := make([]int, dcfg.NumClasses)
	for i := range ids {
		ids[i] = i
	}
	for c := range classes {
		classes[c] = c
	}
	return data.MakeBatch(ids, dataset.ClassIndexMap(classes), nil, nil).Images
}
