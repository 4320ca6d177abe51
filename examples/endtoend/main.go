// End-to-end serving: the compiled frozen-graph inference path. A frozen
// graph compiles into an execution plan — BatchNorms folded into conv
// weights, bias/ReLU/residual adds fused into the GEMM write-back,
// activation buffers pre-scheduled into one arena reservation
// (nn.CompiledNet) — that any number of goroutines can share, each with
// its own nn.Scratch. This example runs RAW images
// through one compiled encoder shared by many concurrent workers (each
// with its own nn.Scratch), feeds the embeddings to the engine readout,
// and verifies the concurrent predictions match the serial eval-Forward
// reference (the compiled path is tolerance-equal to Forward under BN
// folding, and bitwise deterministic across worker counts).
package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/infer"
	"repro/internal/nn"
	"repro/internal/tensor"
)

func main() {
	const (
		d       = 1536
		nClass  = 50
		img     = 16
		samples = 128
		batch   = 32
	)
	rng := rand.New(rand.NewSource(7))

	// One frozen image encoder (micro ResNet50 + FC projection to d) and
	// one float readout engine over a random frozen class memory.
	enc := core.NewImageEncoder(rng, nn.MicroResNet50Config(8), d)
	phi := tensor.Rademacher(rng, nClass, d)
	eng := infer.New(infer.NewFloatBackend(phi, nil, 0.05))
	images := tensor.Randn(rng, 1, samples, 3, img, img)

	sample := func(lo, hi int) *tensor.Tensor {
		sz := 3 * img * img
		return tensor.FromSlice(images.Data[lo*sz:hi*sz], hi-lo, 3, img, img)
	}

	// Serial reference: the legacy eval path, one batch at a time.
	start := time.Now()
	ref := make([]int, 0, samples)
	for at := 0; at < samples; at += batch {
		end := min(at+batch, samples)
		emb := enc.Forward(sample(at, end), false)
		ref = append(ref, eng.Predict(infer.DenseBatch(emb))...)
	}
	serial := time.Since(start)

	// Concurrent pipeline: workers share the ONE compiled plan, each
	// embedding and querying its own batches.
	compiled := enc.Compiled()
	workers := runtime.GOMAXPROCS(0)
	start = time.Now()
	got := make([]int, samples)
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := nn.GetScratch()
			defer nn.PutScratch(sc)
			for at := range jobs {
				end := min(at+batch, samples)
				sc.Reset()
				emb := compiled.Infer(sample(at, end), sc)
				copy(got[at:end], eng.Predict(infer.DenseBatch(emb)))
			}
		}()
	}
	for at := 0; at < samples; at += batch {
		jobs <- at
	}
	close(jobs)
	wg.Wait()
	parallel := time.Since(start)

	// BN folding makes the compiled path tolerance-equal (≤1e-4 relative),
	// not bitwise-equal, to eval Forward, and the rounding is machine-
	// dependent (AVX2 vs portable kernel); a prediction may legitimately
	// flip only where two class scores are nearly tied. Demand agreement
	// everywhere but a sliver of near-ties rather than exact equality.
	diverged := 0
	for i := range ref {
		if got[i] != ref[i] {
			diverged++
		}
	}
	if diverged > samples/100 {
		panic(fmt.Sprintf("compiled end-to-end path diverged from the serial reference on %d/%d samples", diverged, samples))
	}

	fmt.Printf("%d raw %dx%d images → shared frozen ResNet (d'=%d → d=%d) → engine readout over %d classes\n\n",
		samples, img, img, enc.Backbone.OutDim(), d, nClass)
	fmt.Printf("  serial eval Forward + Query      : %8.2f ms\n", serial.Seconds()*1000)
	fmt.Printf("  %d-worker compiled-plan pipeline  : %8.2f ms  (%.2fx, matching predictions)\n\n",
		workers, parallel.Seconds()*1000, serial.Seconds()/parallel.Seconds())
	fmt.Println("→ the embedding stage is no longer the serial wall-clock floor; cmd/hdcserve exposes the same path over HTTP as POST /v1/embed-classify")
}
