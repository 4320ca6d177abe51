package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/dataset"
	"repro/internal/infer"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// This file is the bridge between the trained model and the batched
// inference engine (internal/infer): evaluation builds a Backend from the
// model's frozen attribute embeddings and streams image embeddings
// through the engine's sharded readout. EvalZSC uses the float
// reference backend; EvalZSCWithEngine accepts any engine (the packed
// XOR+popcount edge path, the analog crossbar), which is how cmd/hdczsc
// exposes backend selection.

// inferEngine builds a sharded float-backend engine over the model's
// frozen attribute embeddings for the given candidate classes — the
// evaluation-time readout path.
func inferEngine(m *Model, d *dataset.SynthCUB, classes []int) *infer.Engine {
	return infer.New(infer.NewFloatBackend(
		ClassEmbeddings(m, d, classes), ClassLabels(d, classes), m.Kernel.Temperature()))
}

// ClassEmbeddings returns the frozen attribute embeddings ϕ(A) [C, d]
// for the given candidate classes: the class memory every inference
// backend is built from.
func ClassEmbeddings(m *Model, d *dataset.SynthCUB, classes []int) *tensor.Tensor {
	return m.Attr.Encode(d.ClassAttrRows(classes), false)
}

// ClassLabels returns the display labels of the given classes.
func ClassLabels(d *dataset.SynthCUB, classes []int) []string {
	labels := make([]string, len(classes))
	for i, c := range classes {
		labels[i] = d.ClassNames[c]
	}
	return labels
}

// EvalZSCWithEngine evaluates like EvalZSC but routes the readout
// through the supplied engine — over the packed-binary edge path or the
// analog crossbar instead of the float reference. The caller builds the
// engine's backend from this model's frozen class embeddings (see
// ClassEmbeddings); backend class indices are positions in
// split.TestClasses.
func EvalZSCWithEngine(m *Model, d *dataset.SynthCUB, split dataset.Split, eng *infer.Engine) ZSCResult {
	k := 5
	if n := len(split.TestClasses); n < k {
		k = n
	}
	top1, topk := engineAccuracy(m, d, eng, split.Test, dataset.ClassIndexMap(split.TestClasses), k)
	return ZSCResult{Top1: top1, Top5: topk}
}

// EmbedInstances runs a compiled frozen plan over the given instances
// in batches of 32 and returns their [len(ids), out] embedding rows
// with each instance's label under labelOf. It is the one frozen-
// feature pass: phase III's backbone cache, attribute scoring and the
// baselines' frozen encoders all embed through it, with the arithmetic
// evaluation uses. Batches fan out across GOMAXPROCS workers, each with
// its own pooled nn.Scratch, and every batch is embedded by exactly one
// worker into its own disjoint rows; the plan is bitwise deterministic,
// so the result is identical at any core count. feats is nil when ids
// is empty.
func EmbedInstances(plan *nn.CompiledNet, d *dataset.SynthCUB, ids []int, labelOf map[int]int) (feats *tensor.Tensor, labels []int) {
	const batchSize = 32
	n := len(ids)
	labels = make([]int, n)
	nBatches := (n + batchSize - 1) / batchSize
	workers := min(runtime.GOMAXPROCS(0), nBatches)

	// The output width is known once the first batch is embedded; the
	// first worker to get there allocates feats, and Once publishes it
	// to the rest before any of them writes a row.
	var alloc sync.Once
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := nn.GetScratch()
			defer nn.PutScratch(sc)
			for bi := range jobs {
				sc.Reset()
				at := bi * batchSize
				end := min(at+batchSize, n)
				batch := d.MakeBatch(ids[at:end], labelOf, nil, nil)
				emb := plan.Infer(batch.Images, sc)
				alloc.Do(func() { feats = tensor.New(n, emb.Dim(1)) })
				copy(feats.Data[at*emb.Dim(1):end*emb.Dim(1)], emb.Data)
				copy(labels[at:end], batch.Labels)
			}
		}()
	}
	for bi := 0; bi < nBatches; bi++ {
		jobs <- bi
	}
	close(jobs)
	wg.Wait()
	return feats, labels
}

// engineAccuracy embeds the given instances in batches, queries the
// engine for top-k, and returns top-1 and top-k accuracy. Probes are
// offered dense; binary backends sign-pack them lazily via
// Batch.SignPacked, so the float/crossbar paths never pay the packing
// cost.
//
// The whole path is a bounded embed→readout pipeline on one shared
// frozen model: embedding batches fan out across worker goroutines that
// run the compiled frozen-graph plan (per-worker nn.Scratch, zero
// steady-state allocation), and each worker queries the one shared
// engine as soon as its batch is embedded. Accuracies are byte-identical
// at any GOMAXPROCS: the compiled plan is bitwise deterministic for any
// worker budget, each batch is embedded by exactly one worker, and the
// hit counters are order-independent sums.
//
// Backends whose scores depend on query order (the noisy crossbar
// consumes a per-tile read-noise stream) keep concurrent embedding but
// hand embedded batches to a single readout goroutine that consumes
// them strictly in batch order, so a seeded run prints the same
// accuracies on every machine and at any core count. In both modes the
// number of embedded batches pinned in memory is bounded by the worker
// budget regardless of the evaluation set size.
func engineAccuracy(m *Model, d *dataset.SynthCUB, eng *infer.Engine,
	idx []int, labelOf map[int]int, k int) (top1, topk float64) {

	if len(idx) == 0 {
		return 0, 0
	}
	const batchSize = 32
	nBatches := (len(idx) + batchSize - 1) / batchSize
	workers := runtime.GOMAXPROCS(0)
	if workers > nBatches {
		workers = nBatches
	}

	var hit1, hitK atomic.Int64
	count := func(results []infer.Result, labels []int) {
		var h1, hK int64
		for i, r := range results {
			want := labels[i]
			if r.TopK[0].Class == want {
				h1++
			}
			for _, h := range r.TopK {
				if h.Class == want {
					hK++
					break
				}
			}
		}
		hit1.Add(h1)
		hitK.Add(hK)
	}
	// embed assembles and embeds batch bi on the caller's scratch through
	// the compiled frozen-graph plan (BN folded, epilogues fused — see
	// ImageEncoder.Compiled), or through the quantized int8 plan when one
	// has been installed (ImageEncoder.CompiledInt8); the returned
	// embedding lives in that scratch until its next Reset. Both plans
	// are bitwise deterministic across GOMAXPROCS, which keeps seeded
	// accuracies byte-identical at any core count.
	compiled := m.Image.EvalNet()
	embed := func(sc *nn.Scratch, bi int) (*tensor.Tensor, []int) {
		at := bi * batchSize
		end := min(at+batchSize, len(idx))
		batch := d.MakeBatch(idx[at:end], labelOf, nil, nil)
		return compiled.Infer(batch.Images, sc), batch.Labels
	}

	stochastic := false
	if sb, ok := eng.Backend().(interface{ Stochastic() bool }); ok && sb.Stochastic() {
		stochastic = true
	}

	jobs := make(chan int)
	var wg sync.WaitGroup
	if !stochastic {
		// Fused pipeline: each worker embeds and immediately queries the
		// shared engine (Engine.Query is safe for concurrent callers).
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sc := nn.GetScratch()
				defer nn.PutScratch(sc)
				// Per-worker result buffer: count consumes results before the
				// next query reuses it, so result/TopK storage is reused
				// across the loop (the per-batch Batch wrapper and its lazy
				// norms still allocate once per query).
				var rb infer.ResultBuf
				for bi := range jobs {
					sc.Reset()
					emb, labels := embed(sc, bi)
					count(eng.QueryInto(infer.DenseBatch(emb), k, &rb), labels)
				}
			}()
		}
		for bi := 0; bi < nBatches; bi++ {
			jobs <- bi
		}
		close(jobs)
		wg.Wait()
	} else {
		// Ordered readout: embedding still fans out, but batches are
		// queried strictly in index order to keep the backend's noise
		// stream deterministic. slots bounds the embedded batches pinned
		// while they wait for their turn. The feeder acquires the slot
		// BEFORE handing out a job, so slot holders are always the lowest
		// outstanding batch indices — the batch the readout is waiting on
		// always owns a slot and can finish, which rules out the deadlock
		// where later batches exhaust every slot first.
		type embedded struct {
			emb    *tensor.Tensor
			labels []int
		}
		ready := make([]chan embedded, nBatches)
		for i := range ready {
			ready[i] = make(chan embedded, 1)
		}
		slots := make(chan struct{}, workers+1)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sc := nn.GetScratch()
				defer nn.PutScratch(sc)
				for bi := range jobs {
					sc.Reset()
					emb, labels := embed(sc, bi)
					// Clone out of the scratch: the worker moves on to its
					// next batch before the readout consumes this one.
					ready[bi] <- embedded{emb.Clone(), labels}
				}
			}()
		}
		go func() {
			for bi := 0; bi < nBatches; bi++ {
				slots <- struct{}{} // released by the readout after batch bi is consumed
				jobs <- bi
			}
			close(jobs)
		}()
		for bi := 0; bi < nBatches; bi++ {
			eb := <-ready[bi]
			count(eng.Query(infer.DenseBatch(eb.emb), k), eb.labels)
			<-slots
		}
		wg.Wait()
	}
	return float64(hit1.Load()) / float64(len(idx)), float64(hitK.Load()) / float64(len(idx))
}
