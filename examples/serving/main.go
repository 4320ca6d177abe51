// Serving: the production posture of the inference engine. PR 1 made
// the readout batched; this example shows the layer above it
// (internal/serve): many independent clients each bring ONE probe, a
// micro-batching coalescer merges them into engine batches — a probe is
// scored the moment an execution slot is free, and probes coalesce (up
// to MaxBatch) only while every slot is busy — and one concurrency-safe
// engine serves all of them. It measures the recovered throughput
// against the raw batched path and the naive engine-per-request pattern.
package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/attrenc"
	"repro/internal/dataset"
	"repro/internal/hdc"
	"repro/internal/infer"
	"repro/internal/serve"
)

func main() {
	const (
		d       = 1536
		nClass  = 50
		clients = 64
		perCli  = 64
	)
	rng := rand.New(rand.NewSource(7))
	schema := dataset.NewCUBSchema()
	enc := attrenc.NewHDCEncoder(rng, schema, d)
	cfg := dataset.DefaultConfig()
	cfg.NumClasses = nClass
	data := dataset.Generate(cfg)

	im := hdc.NewItemMemory(d)
	for c := 0; c < nClass; c++ {
		im.Store(data.ClassNames[c], enc.ClassPrototype(rng, data.ClassAttr.Row(c)))
	}
	fmt.Printf("frozen class memory: %d prototypes at d=%d (%.1f KB packed)\n\n",
		im.Len(), d, float64(im.Bytes())/1024)

	// One shared engine — safe for concurrent callers since the sync.Pool
	// scratch refactor — behind one coalescer.
	eng := infer.New(infer.NewBinaryBackend(im))
	co := serve.NewCoalescer(eng, serve.Config{MaxBatch: 32})
	defer co.Close()

	// Each client probes with noisy copies of random prototypes.
	probes := make([][]*hdc.Binary, clients)
	for i := range probes {
		probes[i] = make([]*hdc.Binary, perCli)
		crng := rand.New(rand.NewSource(int64(100 + i)))
		for j := range probes[i] {
			v := im.Vector(crng.Intn(nClass)).Clone()
			for f := 0; f < d/10; f++ {
				p := crng.Intn(d)
				v.SetBit(p, 1-v.Bit(p))
			}
			probes[i][j] = v
		}
	}
	total := clients * perCli

	// Baseline 1: the raw batched path — all probes in one big Query.
	flat := make([]*hdc.Binary, 0, total)
	for _, ps := range probes {
		flat = append(flat, ps...)
	}
	start := time.Now()
	ref := eng.Query(infer.PackedBatch(flat), 1)
	rawDur := time.Since(start)

	// Baseline 2: the pre-serving pattern — every request its own
	// sequential single-probe Query.
	start = time.Now()
	for _, p := range flat {
		eng.Query(infer.PackedBatch([]*hdc.Binary{p}), 1)
	}
	naiveDur := time.Since(start)

	// The serving path: independent clients, one probe per request, the
	// coalescer rebuilding batches underneath them.
	start = time.Now()
	var wg sync.WaitGroup
	preds := make([][]int, clients)
	for i := range probes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			preds[i] = make([]int, perCli)
			for j, p := range probes[i] {
				res, err := co.Classify(context.Background(), serve.Probe{Packed: p}, 1)
				if err != nil {
					panic(err)
				}
				preds[i][j] = res.TopK[0].Class
			}
		}(i)
	}
	wg.Wait()
	serveDur := time.Since(start)

	// Every coalesced answer must match the raw batched reference.
	for i := range probes {
		for j := range probes[i] {
			if preds[i][j] != ref[i*perCli+j].TopK[0].Class {
				panic("coalesced result diverged from the batched reference")
			}
		}
	}

	s := co.Stats()
	fmt.Printf("%d clients × %d single-probe requests over %d classes:\n", clients, perCli, nClass)
	fmt.Printf("  raw batched Query (one %d-probe batch) : %8.2f ms  (%.0fk probes/s)\n",
		total, rawDur.Seconds()*1000, float64(total)/rawDur.Seconds()/1e3)
	fmt.Printf("  naive per-request Query                : %8.2f ms  (%.0fk probes/s)\n",
		naiveDur.Seconds()*1000, float64(total)/naiveDur.Seconds()/1e3)
	fmt.Printf("  coalesced serving layer                : %8.2f ms  (%.0fk probes/s, identical answers)\n\n",
		serveDur.Seconds()*1000, float64(total)/serveDur.Seconds()/1e3)
	fmt.Printf("coalescer: %d requests → %d engine batches (mean %.1f probes/batch, largest %d; %d full, %d free-slot flushes)\n",
		s.Requests, s.Batches, s.MeanBatch, s.LargestBatch, s.FullFlushes, s.SlotFlushes)
	fmt.Println("\n→ single-probe clients keep batched-engine throughput without ever seeing a batch; cmd/hdcserve exposes this over HTTP")
}
