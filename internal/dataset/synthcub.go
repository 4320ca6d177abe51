package dataset

import (
	"fmt"
	"math/rand"

	"repro/internal/tensor"
)

// Config controls SynthCUB generation. The defaults used by the
// experiment harness are intentionally small, so every table and figure
// regenerates on a CPU: the shape of the paper's results is reproduced
// at laptop scale.
type Config struct {
	// NumClasses is the number of bird species to synthesize (CUB has 200).
	NumClasses int
	// ImagesPerClass is the number of instances rendered per class
	// (CUB-200 averages ≈59).
	ImagesPerClass int
	// Height and Width are the rendered image size in pixels.
	Height, Width int
	// AttrNoise is the probability that an instance deviates from its
	// class's primary value in a group (intra-class attribute variation).
	AttrNoise float64
	// PixelNoise is the standard deviation of additive Gaussian pixel
	// noise applied after rendering.
	PixelNoise float64
	// Seed drives all generation; identical configs generate identical
	// datasets.
	Seed int64
}

// DefaultConfig returns the laptop-scale configuration used by tests and
// quick experiment runs.
func DefaultConfig() Config {
	return Config{
		NumClasses:     40,
		ImagesPerClass: 10,
		Height:         16,
		Width:          16,
		AttrNoise:      0.1,
		PixelNoise:     0.05,
		Seed:           1,
	}
}

// Instance is one rendered image with its class label and instance-level
// binary attribute vector (the phase-II attribute-extraction target).
type Instance struct {
	Class int
	// Attr is the α-length {0,1} instance attribute vector: exactly one
	// active value per group, sampled from the class distribution.
	Attr []float32
	// Image is the rendered [3, H, W] image.
	Image *tensor.Tensor
}

// SynthCUB is the generated dataset: a class-attribute matrix A ∈
// [0,1]^{C×α} of continuous certainties plus rendered instances.
type SynthCUB struct {
	Cfg        Config
	Schema     *Schema
	ClassAttr  *tensor.Tensor // [C, α]
	ClassNames []string
	Instances  []Instance
	renderer   *renderer
}

// Generate builds a SynthCUB dataset from cfg. Class attribute profiles
// are sampled first (see GenerateClasses); each instance then samples one
// concrete value per group from its class profile and renders the result
// to pixels.
func Generate(cfg Config) *SynthCUB {
	if cfg.NumClasses <= 1 || cfg.ImagesPerClass <= 0 || cfg.Height <= 0 || cfg.Width <= 0 {
		panic(fmt.Sprintf("dataset.Generate: bad config %+v", cfg))
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	schema := NewCUBSchema()
	d := &SynthCUB{
		Cfg:      cfg,
		Schema:   schema,
		renderer: newRenderer(schema, cfg.Height, cfg.Width, rand.New(rand.NewSource(cfg.Seed+7919))),
	}
	d.ClassNames, d.ClassAttr = generateClasses(rng, schema, cfg.NumClasses)
	for c := 0; c < cfg.NumClasses; c++ {
		for k := 0; k < cfg.ImagesPerClass; k++ {
			d.Instances = append(d.Instances, d.sampleInstance(rng, c))
		}
	}
	return d
}

// GenerateClasses returns the class names and [C, α] class-attribute
// matrix of Generate(cfg), bit for bit, without rendering any instance:
// the part of the dataset a class memory is built from. Only
// cfg.NumClasses and cfg.Seed are read.
func GenerateClasses(cfg Config) ([]string, *tensor.Tensor) {
	if cfg.NumClasses <= 1 {
		panic(fmt.Sprintf("dataset.GenerateClasses: bad class count %d", cfg.NumClasses))
	}
	return generateClasses(rand.New(rand.NewSource(cfg.Seed)), NewCUBSchema(), cfg.NumClasses)
}

// generateClasses samples n class attribute profiles from rng: one
// dominant value per group with certainty in [0.7,1], occasionally a
// secondary value, small background certainty elsewhere, mirroring CUB's
// continuous class-level attribute certainties.
func generateClasses(rng *rand.Rand, schema *Schema, n int) ([]string, *tensor.Tensor) {
	names := make([]string, n)
	attr := tensor.New(n, schema.Alpha())
	for c := range n {
		names[c] = fmt.Sprintf("species-%03d", c)
		row := attr.Row(c)
		for g, grp := range schema.Groups {
			primary := rng.Intn(len(grp.Values))
			off := schema.GroupAttrOffset[g]
			for vi := range grp.Values {
				// Small background certainty for inactive values.
				row[off+vi] = rng.Float32() * 0.05
			}
			row[off+primary] = 0.7 + rng.Float32()*0.3
			if rng.Float64() < 0.3 && len(grp.Values) > 1 {
				// Secondary value: a weaker but real alternative, as in
				// CUB's soft class attributes.
				secondary := rng.Intn(len(grp.Values) - 1)
				if secondary >= primary {
					secondary++
				}
				row[off+secondary] = 0.1 + rng.Float32()*0.3
			}
		}
	}
	return names, attr
}

// sampleInstance draws instance-level attributes from the class profile
// and renders the image.
func (d *SynthCUB) sampleInstance(rng *rand.Rand, class int) Instance {
	schema := d.Schema
	attr := make([]float32, schema.Alpha())
	active := make([]int, schema.NumGroups()) // chosen value slot per group
	classRow := d.ClassAttr.Row(class)
	for g, grp := range schema.Groups {
		off := schema.GroupAttrOffset[g]
		// Sample one value per group proportional to class certainty
		// (exactly one active attribute per group, the imbalance structure
		// §III-A's weighted BCE addresses).
		var total float64
		for vi := range grp.Values {
			total += float64(classRow[off+vi])
		}
		var pick int
		if rng.Float64() < d.Cfg.AttrNoise {
			pick = rng.Intn(len(grp.Values)) // label-noise deviation
		} else {
			r := rng.Float64() * total
			for vi := range grp.Values {
				r -= float64(classRow[off+vi])
				if r <= 0 {
					pick = vi
					break
				}
			}
		}
		attr[off+pick] = 1
		active[g] = pick
	}
	img := d.renderer.render(rng, active, d.Cfg.PixelNoise)
	return Instance{Class: class, Attr: attr, Image: img}
}

// NumInstances returns the number of rendered instances.
func (d *SynthCUB) NumInstances() int { return len(d.Instances) }

// ClassAttrRows returns the class-attribute matrix restricted to the
// given class ids, as a new [len(ids), α] tensor. This is the A matrix
// handed to the attribute encoder for a train or test split.
func (d *SynthCUB) ClassAttrRows(ids []int) *tensor.Tensor {
	out := tensor.New(len(ids), d.Schema.Alpha())
	for i, c := range ids {
		copy(out.Row(i), d.ClassAttr.Row(c))
	}
	return out
}
