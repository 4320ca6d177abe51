package baselines

import (
	"math/rand"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Finetag is the reproduction's stand-in for the Finetag multi-attribute
// classifier [34] of Table I: the same backbone as HDC-ZSC, a direct
// per-attribute sigmoid head (no HDC codebook targets), and *unweighted*
// binary cross entropy. The contrast against phase II of HDC-ZSC
// therefore isolates the paper's two ingredients — codebook-structured
// targets and imbalance-weighted BCE.
type Finetag struct {
	Image *core.ImageEncoder
	Head  *nn.Linear // d′ → α logits
}

// NewFinetag builds the baseline on the given backbone config.
func NewFinetag(rng *rand.Rand, backbone nn.ResNetConfig, alpha int) *Finetag {
	img := core.NewImageEncoder(rng, backbone, 0)
	return &Finetag{
		Image: img,
		Head:  nn.NewLinear(rng, "finetag.head", img.OutDim(), alpha, true),
	}
}

// Params returns all trainable parameters.
func (f *Finetag) Params() []*nn.Param {
	return append(append([]*nn.Param{}, f.Image.Params()...), f.Head.Params()...)
}

// Train fits the baseline with plain BCE on the split's training
// instances and returns the final epoch loss.
func (f *Finetag) Train(d *dataset.SynthCUB, split dataset.Split, cfg core.TrainConfig) float32 {
	it := dataset.NewBatchIterator(d, split.Train, split.TrainClasses, cfg.Batch, nil,
		rand.New(rand.NewSource(cfg.Seed+11)))
	return core.Fit(f.Params(), cfg, it.BatchesPerEpoch(), nil, func(int) float64 {
		batch := it.Next()
		logits := f.Head.Forward(f.Image.Forward(batch.Images, true), true)
		loss, dl := nn.BCEWithLogits(logits, batch.Attrs, nil) // unweighted: the Finetag contrast
		f.Image.Backward(f.Head.Backward(dl))
		return float64(loss)
	})
}

// Scores returns [N, α] attribute logits and targets over the given
// instances: the backbone embeds them in one frozen-feature pass
// (core.AttributeFeatures) and the head reads every feature row at once.
func (f *Finetag) Scores(d *dataset.SynthCUB, idx []int) (scores, targets *tensor.Tensor) {
	feats, targets := core.AttributeFeatures(f.Image, d, idx)
	return f.Head.Forward(feats, false), targets
}

// A3M is the reproduction's stand-in for the attribute-aware attention
// model [35] of Table I. The original attends over spatial features per
// attribute; at this scale we reduce it to its position-blind core —
// global average pooling followed by per-group softmax heads — which is
// what attention degenerates to when the attended maps are a few pixels.
// Its weakness against HDC-ZSC's position-preserving pipeline mirrors
// the Table I gap.
type A3M struct {
	Image  *core.ImageEncoder
	Schema *dataset.Schema
	Heads  []*nn.Linear // one per attribute group
}

// NewA3M builds the baseline. The backbone uses global average pooling
// regardless of cfg's flatten setting (that *is* the simplification).
func NewA3M(rng *rand.Rand, backbone nn.ResNetConfig, schema *dataset.Schema) *A3M {
	backbone.FlattenPool = false
	backbone.FlattenH, backbone.FlattenW = 0, 0
	img := core.NewImageEncoder(rng, backbone, 0)
	a := &A3M{Image: img, Schema: schema}
	for g, grp := range schema.Groups {
		a.Heads = append(a.Heads,
			nn.NewLinear(rng, "a3m.head"+schema.Groups[g].Name, img.OutDim(), len(grp.Values), true))
	}
	return a
}

// Params returns all trainable parameters.
func (a *A3M) Params() []*nn.Param {
	ps := append([]*nn.Param{}, a.Image.Params()...)
	for _, h := range a.Heads {
		ps = append(ps, h.Params()...)
	}
	return ps
}

// Train fits per-group softmax classification on the training instances.
func (a *A3M) Train(d *dataset.SynthCUB, split dataset.Split, cfg core.TrainConfig) float32 {
	it := dataset.NewBatchIterator(d, split.Train, split.TrainClasses, cfg.Batch, nil,
		rand.New(rand.NewSource(cfg.Seed+13)))
	return core.Fit(a.Params(), cfg, it.BatchesPerEpoch(), nil, func(int) float64 {
		batch := it.Next()
		emb := a.Image.Forward(batch.Images, true)
		dEmb := tensor.New(emb.Shape()...)
		var lossSum float32
		for g, head := range a.Heads {
			off := a.Schema.GroupAttrOffset[g]
			size := len(a.Schema.Groups[g].Values)
			// Ground-truth value slot per sample for this group.
			labels := make([]int, batch.Attrs.Dim(0))
			for i := range labels {
				row := batch.Attrs.Row(i)[off : off+size]
				for vi, v := range row {
					if v == 1 {
						labels[i] = vi
						break
					}
				}
			}
			logits := head.Forward(emb, true)
			loss, dl := nn.SoftmaxCrossEntropy(logits, labels)
			lossSum += loss
			tensor.AddInPlace(dEmb, head.Backward(dl))
		}
		a.Image.Backward(dEmb)
		return float64(lossSum) / float64(len(a.Heads))
	})
}

// Scores returns [N, α] per-attribute scores (group-wise softmax
// probabilities) and targets over the given instances: the backbone
// embeds them in one frozen-feature pass (core.AttributeFeatures) and
// each group head reads every feature row at once.
func (a *A3M) Scores(d *dataset.SynthCUB, idx []int) (scores, targets *tensor.Tensor) {
	feats, targets := core.AttributeFeatures(a.Image, d, idx)
	scores = tensor.New(len(idx), a.Schema.Alpha())
	for g, head := range a.Heads {
		off := a.Schema.GroupAttrOffset[g]
		probs := tensor.SoftmaxRows(head.Forward(feats, false))
		for i := range idx {
			copy(scores.Row(i)[off:off+probs.Dim(1)], probs.Row(i))
		}
	}
	return scores, targets
}
