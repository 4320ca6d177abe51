package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/serve"
)

// pools is everything a serving stream sends, generated from the
// workload seed alone: the same seed yields byte-identical bodies, and
// the servers see nothing of the seed but these bodies.
type pools struct {
	w    workload
	seed int64
	// classify/embed request bodies, pre-marshalled, and the dense
	// vectors inside them (probe embeddings, or flattened images) for
	// the oracle.
	bodies [][]byte
	inputs [][]float32
	// enrollment prototypes; request i uses vector i%poolSize under a
	// fresh label, so the body is assembled, not marshalled, per send.
	enrollVecs  [][]float32
	enrollTails [][]byte // `,"vector":[...]}` per prototype
}

func genPools(w workload, seed int64) *pools {
	p := &pools{w: w, seed: seed}
	rng := rand.New(rand.NewSource(seed))
	p.bodies = make([][]byte, poolSize)
	p.inputs = make([][]float32, poolSize)
	if w.embedder != "" {
		for i, img := range synthImages(seed, w.embedImg, poolSize) {
			p.inputs[i] = img
			p.bodies[i] = mustJSON(serve.EmbedClassifyRequest{
				Model: w.model, Embedder: w.embedder, K: topK, Input: img,
			})
		}
	} else {
		for i := range p.bodies {
			p.inputs[i] = randVec(rng, probeDim)
			p.bodies[i] = mustJSON(serve.ClassifyRequest{Model: w.model, K: topK, Embedding: p.inputs[i]})
		}
	}
	p.enrollVecs = make([][]float32, poolSize)
	p.enrollTails = make([][]byte, poolSize)
	for i := range p.enrollVecs {
		p.enrollVecs[i] = randVec(rng, probeDim)
		vec := mustJSON(p.enrollVecs[i])
		p.enrollTails[i] = append(append([]byte(`,"vector":`), vec...), '}')
	}
	return p
}

// enrollLabel is unique per (seed, sequence number): every enrollment of
// a run appends a fresh class.
func (p *pools) enrollLabel(seq int) string {
	return fmt.Sprintf("bench-s%d-%06d", p.seed, seq)
}

func (p *pools) enrollBody(seq int) []byte {
	var b bytes.Buffer
	b.WriteString(`{"label":"`)
	b.WriteString(p.enrollLabel(seq))
	b.WriteByte('"')
	b.Write(p.enrollTails[seq%poolSize])
	return b.Bytes()
}

func randVec(rng *rand.Rand, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = rng.Float32()*2 - 1
	}
	return v
}

// synthImages renders n SynthCUB birds at img×img and returns them
// flattened [3·img·img] — image statistics, not noise, so the int8
// plan's calibrated activation scales see what they were calibrated on.
func synthImages(seed int64, img, n int) [][]float32 {
	cfg := dataset.DefaultConfig()
	cfg.NumClasses = 8
	cfg.ImagesPerClass = (n + cfg.NumClasses - 1) / cfg.NumClasses
	cfg.Height, cfg.Width = img, img
	cfg.Seed = seed
	data := dataset.Generate(cfg)
	out := make([][]float32, n)
	for i := range out {
		out[i] = data.Instances[i].Image.Data
	}
	return out
}

// splitmix64 is the stateless hash the stream uses to decide request i's
// kind and body, so concurrent closed-loop workers need no shared rng.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// pick decides what request number i of the stream is: an enrollment
// with probability enrollFrac, else a classify over a hashed pool slot.
func (p *pools) pick(i int) (kind, slot int) {
	h := splitmix64(uint64(p.seed)<<32 ^ uint64(i))
	if p.w.enrollFrac > 0 && float64(h>>11)/(1<<53) < p.w.enrollFrac {
		return kindEnroll, 0
	}
	kind = kindClassify
	if p.w.embedder != "" {
		kind = kindEmbed
	}
	return kind, int(h % poolSize)
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only ever marshals the harness's own request structs
	}
	return b
}
