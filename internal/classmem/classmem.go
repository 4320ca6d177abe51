// Package classmem builds the frozen synthetic class memory the serving
// commands ship: bundled class prototypes from the stationary HDC
// attribute encoder over a SynthCUB class set, realized simultaneously
// as float embeddings (reference cosine path), a packed binary item
// memory (XOR+popcount edge path), and — derived on demand — an analog
// crossbar backend.
//
// The construction is a pure function of (classes, dim, seed). That
// purity is what the distributed path leans on: cmd/hdcshard processes
// and the `hdcserve -router` front never exchange the class memory —
// each rebuilds the identical one from the shared seed and serves its
// assigned range of it, and the byte-identical parity contract of
// internal/dist only holds because class c's prototype is the same
// bits in every process.
package classmem

import (
	"fmt"
	"math/rand"

	"repro/internal/attrenc"
	"repro/internal/dataset"
	"repro/internal/hdc"
	"repro/internal/imc"
	"repro/internal/infer"
	"repro/internal/tensor"
)

// Temp is the similarity temperature the serving commands fix for the
// float and crossbar backends (the evaluation-time K of the paper's
// similarity kernel is folded in here).
const Temp = 1.0

// Memory is one frozen class memory in both realizations.
type Memory struct {
	Labels []string
	// Phi is the [classes, dim] bipolar float class-embedding matrix.
	Phi *tensor.Tensor
	// Items is the packed binary item memory over the same prototypes.
	Items *hdc.ItemMemory
}

// Build freezes the class memory for (classes, dim, seed). The same
// triple always produces the same bits, in any process.
func Build(classes, dim int, seed int64) *Memory {
	rng := rand.New(rand.NewSource(seed))
	schema := dataset.NewCUBSchema()
	enc := attrenc.NewHDCEncoder(rng, schema, dim)
	names, attr := dataset.GenerateClasses(dataset.Config{NumClasses: classes, Seed: seed})

	m := &Memory{
		Labels: names,
		Phi:    tensor.New(classes, dim),
		Items:  hdc.NewItemMemory(dim),
	}
	for c := 0; c < classes; c++ {
		proto := enc.ClassPrototype(rng, attr.Row(c))
		m.Items.Store(m.Labels[c], proto)
		copy(m.Phi.Row(c), proto.ToBipolar().Float32())
	}
	return m
}

// Backend realizes the named serving backend over the memory: "float"
// (reference cosine), "binary" (packed Hamming), or "imc" (analog
// crossbar with typical PCM non-idealities). Unknown names error.
//
// Note for distributed serving: "imc" draws per-query analog noise, so
// only the deterministic backends ("float", "binary") uphold the
// cross-process byte-identical parity contract; an imc shard serves,
// but its rankings are stochastic by design.
func (m *Memory) Backend(name string) (infer.Backend, error) {
	switch name {
	case "float":
		return infer.NewFloatBackend(m.Phi, m.Labels, Temp), nil
	case "binary":
		return infer.NewBinaryBackend(m.Items), nil
	case "imc":
		return infer.NewCrossbarBackend(m.Phi, m.Labels, Temp, imc.TypicalPCM()), nil
	default:
		return nil, fmt.Errorf("classmem: unknown backend %q (want float, binary, or imc)", name)
	}
}
