package core

import (
	"fmt"
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// TrainConfig carries the hyperparameters the paper tunes in Fig. 5:
// epochs, batch size, learning rate, temperature scale, and weight decay,
// plus the reproduction's practical knobs.
type TrainConfig struct {
	Epochs      int
	Batch       int
	LR          float32
	LRMin       float32 // cosine-annealing floor
	WeightDecay float32
	// TempScale is the initial similarity-kernel temperature K.
	TempScale float32
	// ClipNorm bounds the global gradient norm (0 disables).
	ClipNorm float32
	// Augment enables the paper's rotation/crop/flip pipeline.
	Augment bool
	// MaxPosWeight caps the weighted-BCE positive weights (phase II).
	MaxPosWeight float32
	// Seed drives batch order, augmentation, and any stochastic layers.
	Seed int64
}

// DefaultTrainConfig returns the hyperparameter set used by the
// experiment harness (the laptop-scale analogue of the paper's best
// configuration: ≈10 epochs, small batch, AdamW defaults).
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{
		Epochs: 8, Batch: 8, LR: 3e-3, LRMin: 1e-5,
		WeightDecay: 1e-4, TempScale: 0.05, ClipNorm: 5,
		Augment: false, MaxPosWeight: 20, Seed: 1,
	}
}

// Fit owns the step policy every training loop of the paper and its
// baselines shares: cfg.Epochs epochs of perEpoch steps, each one
// ZeroGrads → step(b) (forward, loss and backward of the epoch's b-th
// batch) → global-norm clipping when cfg.ClipNorm > 0 → the cosine-
// annealed learning rate → one AdamW step → the temperature clamp when
// kernel is not nil. It returns the last epoch's mean step value.
// step owns every RNG draw, so an epoch-start shuffle goes in step(0).
func Fit(params []*nn.Param, cfg TrainConfig, perEpoch int, kernel *SimilarityKernel, step func(b int) float64) float32 {
	opt := nn.NewAdamW(cfg.LR, cfg.WeightDecay)
	sched := nn.NewCosineAnnealingLR(cfg.LR, cfg.LRMin, max(cfg.Epochs*perEpoch, 1))
	var last float32
	t := 0
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		var sum float64
		for b := 0; b < perEpoch; b++ {
			nn.ZeroGrads(params)
			sum += step(b)
			if cfg.ClipNorm > 0 {
				nn.ClipGradNorm(params, cfg.ClipNorm)
			}
			sched.Apply(opt, t)
			opt.Step(params)
			if kernel != nil {
				kernel.ClampTemperature(1e-3, 100)
			}
			t++
		}
		last = float32(sum / float64(perEpoch))
	}
	return last
}

// PretrainClassification is phase I (Fig. 2a): supervised classification
// pre-training of the backbone through a temporary FC′ softmax head,
// playing the role of ImageNet1K pre-training. The head is discarded;
// the matured backbone weights are retained. Returns the final-epoch
// training accuracy.
func PretrainClassification(img *ImageEncoder, data *dataset.SynthImageNet, cfg TrainConfig) float64 {
	rng := rand.New(rand.NewSource(cfg.Seed))
	head := nn.NewLinear(rng, "fcprime", img.Backbone.OutDim(), data.NumClasses, true)
	params := append(append([]*nn.Param{}, img.Backbone.Params()...), head.Params()...)
	order := rng.Perm(data.Len())
	var hits, total int
	Fit(params, cfg, (len(order)+cfg.Batch-1)/cfg.Batch, nil, func(b int) float64 {
		if b == 0 {
			rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			hits, total = 0, 0
		}
		at := b * cfg.Batch
		images, labels := data.Batch(order[at:min(at+cfg.Batch, len(order))])
		logits := head.Forward(img.Backbone.Forward(images, true), true)
		_, dlogits := nn.SoftmaxCrossEntropy(logits, labels)
		img.Backbone.Backward(head.Backward(dlogits))
		for i, p := range tensor.ArgMax(logits) {
			if p == labels[i] {
				hits++
			}
		}
		total += len(labels)
		return 0
	})
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

// TrainAttributeExtraction is phase II (Fig. 2b): the image encoder
// (backbone + FC) learns to score the α attribute codevectors of the HDC
// dictionary B so that cosine similarities match the instance's
// ground-truth attributes, under a weighted binary cross-entropy that
// compensates the inactive-attribute imbalance. The attribute dictionary
// stays fixed. Returns the final-epoch training loss.
func TrainAttributeExtraction(img *ImageEncoder, kernel *SimilarityKernel, dict *tensor.Tensor,
	d *dataset.SynthCUB, split dataset.Split, cfg TrainConfig) float32 {

	it := dataset.NewBatchIterator(d, split.Train, split.TrainClasses, cfg.Batch,
		augmentor(cfg), rand.New(rand.NewSource(cfg.Seed+1)))

	// Positive weights from the training targets (#neg/#pos per attribute).
	all := d.MakeBatch(split.Train, dataset.ClassIndexMap(split.TrainClasses), nil, nil)
	posW := nn.PosWeights(all.Attrs, cfg.MaxPosWeight)

	params := append(append([]*nn.Param{}, img.Params()...), kernel.Params()...)
	return Fit(params, cfg, it.BatchesPerEpoch(), kernel, func(int) float64 {
		batch := it.Next()
		q := kernel.Forward(img.Forward(batch.Images, true), dict)
		loss, dq := nn.BCEWithLogits(q, batch.Attrs, posW)
		dx, _ := kernel.Backward(dq) // dictionary is stationary
		img.Backward(dx)
		return float64(loss)
	})
}

// augmentor returns the paper's augmentation pipeline when cfg enables it.
func augmentor(cfg TrainConfig) *dataset.Augmentor {
	if !cfg.Augment {
		return nil
	}
	a := dataset.DefaultAugmentor()
	return &a
}

// TrainZSC is phase III (Fig. 2c): the FC projection (and the attribute
// encoder, when trainable) fine-tunes so image embeddings align with the
// attribute embeddings of the *training* classes under cross-entropy over
// the similarity logits, while the matured backbone remains stationary.
//
// With a projection layer present, the frozen backbone's features are
// computed once through its compiled inference plan (BN folded — the
// arithmetic EvalZSC embeds with; see EmbedInstances) and cached, and
// the epochs train only the projection/kernel on the cache —
// mathematically the stationary-backbone training of Fig. 2c at a
// fraction of the cost. Without a projection layer there is nothing
// else to train, so the backbone itself fine-tunes end-to-end (the
// "pre-train I,III" rows of Table II).
// Returns the final-epoch training loss.
func TrainZSC(m *Model, d *dataset.SynthCUB, split dataset.Split, cfg TrainConfig) float32 {
	if m.Image.Proj != nil {
		return trainZSCCached(m, d, split, cfg)
	}
	return trainZSCEndToEnd(m, d, split, cfg)
}

// trainZSCEndToEnd trains all image-encoder parameters (used when no
// projection FC exists).
func trainZSCEndToEnd(m *Model, d *dataset.SynthCUB, split dataset.Split, cfg TrainConfig) float32 {
	it := dataset.NewBatchIterator(d, split.Train, split.TrainClasses, cfg.Batch,
		augmentor(cfg), rand.New(rand.NewSource(cfg.Seed+2)))
	trainAttr := d.ClassAttrRows(split.TrainClasses)
	return Fit(m.Params(), cfg, it.BatchesPerEpoch(), m.Kernel, func(int) float64 {
		batch := it.Next()
		loss, dlogits := nn.SoftmaxCrossEntropy(m.Logits(batch.Images, trainAttr, true), batch.Labels)
		m.Backward(dlogits)
		return float64(loss)
	})
}

// trainZSCCached freezes the backbone, caches its compiled-plan features
// for the training instances, and trains the projection, kernel, and any
// trainable attribute encoder over the cache.
func trainZSCCached(m *Model, d *dataset.SynthCUB, split dataset.Split, cfg TrainConfig) float32 {
	rng := rand.New(rand.NewSource(cfg.Seed + 2))
	m.Image.FreezeBackbone()
	defer m.Image.UnfreezeBackbone()

	feats, labels := EmbedInstances(nn.MustCompile(m.Image.Backbone), d, split.Train,
		dataset.ClassIndexMap(split.TrainClasses))
	n := len(split.Train)

	trainAttr := d.ClassAttrRows(split.TrainClasses)
	params := append(append([]*nn.Param{}, m.Image.Proj.Params()...), m.Attr.Params()...)
	params = append(params, m.Kernel.Params()...)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return Fit(params, cfg, (n+cfg.Batch-1)/cfg.Batch, m.Kernel, func(b int) float64 {
		if b == 0 {
			rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		}
		ids := order[b*cfg.Batch : min(b*cfg.Batch+cfg.Batch, n)]
		bf := tensor.New(len(ids), feats.Dim(1))
		bl := make([]int, len(ids))
		for i, id := range ids {
			copy(bf.Row(i), feats.Row(id))
			bl[i] = labels[id]
		}
		emb := m.Image.Proj.Forward(bf, true)
		phi := m.Attr.Encode(trainAttr, true)
		loss, dlogits := nn.SoftmaxCrossEntropy(m.Kernel.Forward(emb, phi), bl)
		dx, dp := m.Kernel.Backward(dlogits)
		m.Image.Proj.Backward(dx)
		m.Attr.Backward(dp)
		return float64(loss)
	})
}

// ZSCResult holds the zero-shot evaluation metrics of §IV-A-b.
type ZSCResult struct {
	Top1, Top5 float64
}

// EvalZSC evaluates the model on the split's *unseen* test classes:
// top-1/top-5 accuracy against test labels with all weights stationary
// (Fig. 3). The readout routes through the batched inference engine
// (internal/infer): the frozen class embeddings ϕ(A_test) become a float
// backend sharded across workers, and every test image, embedded by
// EmbedInstances, is scored in one query (see EvalZSCWithEngine).
func EvalZSC(m *Model, d *dataset.SynthCUB, split dataset.Split) ZSCResult {
	if len(split.TestClasses) == 0 {
		// Degenerate split: no candidate classes, nothing to score.
		return ZSCResult{}
	}
	return EvalZSCWithEngine(m, d, split, inferEngine(m, d, split.TestClasses))
}

// AttributeScores runs the image encoder's compiled plan over the given
// instances and returns the [N, α] similarity scores against the
// attribute dictionary together with the [N, α] ground-truth targets —
// the inputs to WMAP and per-group top-1 metrics (Table I).
func AttributeScores(img *ImageEncoder, kernel *SimilarityKernel, dict *tensor.Tensor,
	d *dataset.SynthCUB, instanceIdx []int) (scores, targets *tensor.Tensor) {

	feats, targets := AttributeFeatures(img, d, instanceIdx)
	return kernel.Forward(feats, dict), targets
}

// AttributeFeatures embeds the given instances through the encoder's
// compiled plan (EmbedInstances) and returns their [N, d′] features
// with the [N, α] ground-truth attribute targets: the frozen-feature
// pass behind every Table I attribute readout — AttributeScores and the
// Finetag and A3M baselines' heads.
func AttributeFeatures(img *ImageEncoder, d *dataset.SynthCUB, instanceIdx []int) (feats, targets *tensor.Tensor) {
	targets = tensor.New(len(instanceIdx), d.Schema.Alpha())
	// Any-class label map: attribute evaluation is label-space free.
	labelOf := map[int]int{}
	for r, i := range instanceIdx {
		labelOf[d.Instances[i].Class] = 0
		copy(targets.Row(r), d.Instances[i].Attr)
	}
	feats, _ = EmbedInstances(img.Compiled(), d, instanceIdx, labelOf)
	return feats, targets
}

// FormatMuSigma renders a µ±σ pair the way the paper reports results.
func FormatMuSigma(mean, std float64) string {
	return fmt.Sprintf("%.1f ± %.1f", mean*100, std*100)
}
