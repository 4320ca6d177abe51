// Command hdcshard serves one or more contiguous class-range slabs of a
// frozen HDC-ZSC class memory over the compact binary shard protocol
// (internal/dist) — the worker half of the distributed serving story,
// with `hdcserve -router` as the scatter-gather front.
//
// The class memory is never shipped: it is a pure function of
// (-classes, -d, -seed), so every shard process rebuilds the identical
// memory from the shared seed and serves only its assigned ranges
// through ordinary infer engines over range views (infer.NewRangeBackend).
// Rankings merged by the router are byte-identical to a single process
// serving the whole memory. Only the deterministic backends (float,
// binary) are served: -backend refuses "imc", whose per-query analog
// noise breaks that contract (`hdczsc -backend imc` evaluates it
// offline).
//
// Usage:
//
//	hdcshard -addr 127.0.0.1:7071 -range 0:25[,25:50] [flags]
//
// -range names the contiguous class ranges to serve (comma-separated
// lo:hi pairs). The routing table (shards.json) is written beside the
// fleet and read by `hdcserve -router`; a shard never reads it.
//
// The tail range (the one ending at the global class count) is served
// from an RCU-versioned store and accepts live enrollment through the
// router's two-phase epoch flip. That store is the enrollment history:
// the router reads missed epochs out of one replica's store to catch up
// another, and shards never dial each other. -wal DIR makes enrollments
// crash-durable (fsync before ack) and replays them on restart, and
// -snapshot-every bounds replay length by compacting the log.
//
// On startup the server prints `hdcshard: listening on ADDR` — with the
// bound port resolved, so `-addr 127.0.0.1:0` works for tests — then
// serves until SIGINT/SIGTERM, draining in-flight queries before exit.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"repro/internal/classmem"
	"repro/internal/dist"
	"repro/internal/infer"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:7070", "listen address (0 port resolves at bind)")
		classes   = flag.Int("classes", 50, "global class count of the frozen memory")
		dim       = flag.Int("d", 1536, "hypervector dimensionality")
		seed      = flag.Int64("seed", 1, "master seed for the synthetic class memory (must match every shard and the router's oracle)")
		backend   = flag.String("backend", "float", "backend to serve: float or binary")
		workers   = flag.Int("workers", 0, "engine shard workers per slab (0 = NumCPU)")
		ranges    = flag.String("range", "", "comma-separated lo:hi class ranges to serve")
		walDir    = flag.String("wal", "", "durable enrollment: WAL+snapshot directory for the growing tail range (empty = in-memory)")
		snapEvery = flag.Int("snapshot-every", 64, "compact the enrollment WAL into a snapshot every N enrollments (0 = never)")
	)
	flag.Parse()

	slabRanges, err := parseRanges(*ranges, *classes)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	srv, store, err := buildServer(*backend, *classes, *dim, *seed, *workers, slabRanges, *walDir, *snapEvery)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		log.Print("hdcshard: shutting down")
		srv.Close() // stop accepting, drain in-flight queries
		if store != nil {
			store.Close()
		}
	}()

	if store != nil {
		log.Printf("hdcshard: %s backend, %d classes at d=%d, ranges %v (tail grows: epoch %d, %d enrolled)",
			*backend, *classes, *dim, slabRanges, store.Epoch(), store.EnrolledTotal())
	} else {
		log.Printf("hdcshard: %s backend, %d classes at d=%d, ranges %v", *backend, *classes, *dim, slabRanges)
	}
	log.Printf("hdcshard: listening on %s", ln.Addr())
	if err := srv.Serve(ln); err != nil {
		log.Fatal(err)
	}
}

// parseRanges turns the -range flag into the slab ranges to serve.
func parseRanges(rangeList string, classes int) ([][2]int, error) {
	if rangeList == "" {
		return nil, fmt.Errorf("hdcshard: need -range")
	}
	var out [][2]int
	for _, spec := range strings.Split(rangeList, ",") {
		lo, hi, ok := strings.Cut(strings.TrimSpace(spec), ":")
		if !ok {
			return nil, fmt.Errorf("hdcshard: bad -range element %q (want lo:hi)", spec)
		}
		l, err1 := strconv.Atoi(lo)
		h, err2 := strconv.Atoi(hi)
		if err1 != nil || err2 != nil || l < 0 || h <= l || h > classes {
			return nil, fmt.Errorf("hdcshard: bad -range element %q for %d classes", spec, classes)
		}
		out = append(out, [2]int{l, h})
	}
	return out, nil
}

// buildServer freezes the seed-derived class memory and wraps one
// engine per assigned range, each over a range view of the shared
// global backend. The tail range (the one ending at the global class
// count) is served by a live view (classmem.Live) of an RCU-versioned
// store instead of a frozen engine: it builds the engine for each epoch
// a query names, and the range is enrollable through the router's
// two-phase epoch flip; with -wal the enrollments are crash-durable and
// replayed here on restart. At epoch 0 the growing range serves bytes
// identical to a frozen slab, so deployments that never enroll are
// unchanged.
func buildServer(backend string, classes, dim int, seed int64, workers int, ranges [][2]int, walDir string, snapEvery int) (*dist.ShardServer, *classmem.Versioned, error) {
	if backend == "imc" {
		return nil, nil, fmt.Errorf("hdcshard: backend imc is not served: its per-query analog noise breaks the byte-identical ranking contract (evaluate it offline with hdczsc -backend imc)")
	}
	var opts []infer.Option
	if workers > 0 {
		opts = append(opts, infer.WithWorkers(workers))
	}
	var store *classmem.Versioned
	var growing *classmem.Live
	var frozen [][2]int
	for _, r := range ranges {
		if r[1] != classes {
			frozen = append(frozen, r)
			continue
		}
		var err error
		store, err = classmem.OpenVersioned(walDir, classes, dim, seed, snapEvery)
		if err == nil {
			growing, err = store.Live(backend, r[0], opts...)
		}
		if err != nil {
			return nil, nil, err
		}
	}
	if store == nil && walDir != "" {
		return nil, nil, fmt.Errorf("hdcshard: -wal set but no assigned range ends at class %d (only the tail range grows)", classes)
	}
	// The store already holds the frozen memory: rows below its base are
	// immutable at every epoch, so build the memory only once.
	var mem *classmem.Memory
	if store != nil {
		mem = store.Snapshot().Mem
	} else {
		mem = classmem.Build(classes, dim, seed)
	}
	global, err := mem.Backend(backend)
	if err != nil {
		return nil, nil, err
	}
	slabs := make([]dist.Slab, 0, len(frozen))
	for _, r := range frozen {
		eng, err := infer.NewChecked(infer.NewRangeBackend(global, r[0], r[1]), opts...)
		if err != nil {
			return nil, nil, err
		}
		slabs = append(slabs, dist.Slab{Base: r[0], Engine: eng})
	}
	srv, err := dist.NewShardServer(slabs, growing)
	return srv, store, err
}
