package core

import (
	"runtime"
	"sync"

	"repro/internal/dataset"
	"repro/internal/infer"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// This file is the bridge between the trained model and the batched
// inference engine (internal/infer): evaluation builds a Backend from the
// model's frozen attribute embeddings, embeds the test images in one
// frozen-feature pass (EmbedInstances) and scores them in one query of
// the engine's sharded readout. EvalZSC uses the float
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
// feature pass: evaluation, phase III's backbone cache, attribute
// scoring and the baselines' frozen encoders all embed through it.
// Batches fan out across GOMAXPROCS workers, each with its own pooled
// nn.Scratch, and every batch is embedded by exactly one worker into
// its own disjoint rows; the plan is bitwise deterministic, so the
// result is identical at any core count. feats is nil when ids is
// empty.
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

// engineAccuracy embeds the given instances in one frozen-feature pass
// (EmbedInstances over the model's evaluation plan), queries the engine
// once for the top-k of every probe, and returns top-1 and top-k
// accuracy. Probes are offered dense; binary backends sign-pack them
// lazily via Batch.SignPacked, so the float/crossbar paths never pay the
// packing cost.
//
// Seeded accuracies are byte-identical at any GOMAXPROCS and equal to an
// in-order per-batch readout: EmbedInstances is bitwise deterministic, a
// probe's ranking does not depend on the batch it rides in, and the
// noisy crossbar draws read noise one probe row at a time in row order
// (see imc.Crossbar.MatMulTInto), so one query in instance order draws
// exactly what batch-by-batch queries in order would.
func engineAccuracy(m *Model, d *dataset.SynthCUB, eng *infer.Engine,
	idx []int, labelOf map[int]int, k int) (top1, topk float64) {

	if len(idx) == 0 {
		return 0, 0
	}
	feats, labels := EmbedInstances(m.Image.EvalNet(), d, idx, labelOf)
	var hit1, hitK int
	for i, r := range eng.Query(infer.DenseBatch(feats), k) {
		if r.TopK[0].Class == labels[i] {
			hit1++
		}
		for _, h := range r.TopK {
			if h.Class == labels[i] {
				hitK++
				break
			}
		}
	}
	return float64(hit1) / float64(len(idx)), float64(hitK) / float64(len(idx))
}
