// Package classmem builds the frozen synthetic class memory the serving
// commands ship: bundled class prototypes from the stationary HDC
// attribute encoder over a SynthCUB class set, stored once, as the
// packed sign words of an item memory. The binary backend
// (XOR+popcount edge path) scans those words directly; the float
// backend (reference cosine path) and the analog crossbar backend
// expand them to their exact ±1 values per shard tile, on first use.
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
)

// Temp is the similarity temperature the serving commands fix for the
// float and crossbar backends (the evaluation-time K of the paper's
// similarity kernel is folded in here).
const Temp = 1.0

// Memory is one frozen class memory.
type Memory struct {
	Labels []string
	// Items holds the packed prototypes, one row of sign words per class.
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
		Items:  hdc.NewItemMemory(dim),
	}
	for c := 0; c < classes; c++ {
		m.Items.Store(m.Labels[c], enc.ClassPrototype(rng, attr.Row(c)))
	}
	return m
}

// Backend realizes the named serving backend over the memory: "float"
// (reference cosine), "binary" (packed Hamming), or "imc" (analog
// crossbar with typical PCM non-idealities). Unknown names error.
//
// "imc" draws per-query analog noise, so only the deterministic
// backends ("float", "binary") uphold the byte-identical ranking
// contract; cmd/hdcserve and cmd/hdcshard refuse to serve imc, and it
// is evaluated offline (cmd/hdczsc -backend imc).
func (m *Memory) Backend(name string) (infer.Backend, error) {
	switch name {
	case "float":
		return infer.NewItemFloatBackend(m.Items, Temp), nil
	case "binary":
		return infer.NewBinaryBackend(m.Items), nil
	case "imc":
		return infer.NewItemCrossbarBackend(m.Items, Temp, imc.TypicalPCM()), nil
	default:
		return nil, fmt.Errorf("classmem: unknown backend %q (want float, binary, or imc)", name)
	}
}
