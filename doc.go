// Package repro is a from-scratch Go reproduction of "Zero-shot
// Classification using Hyperdimensional Computing" (Ruffino et al., DATE
// 2024): the HDC-ZSC model, every substrate it depends on (tensor engine,
// neural-network stack, HDC core, synthetic CUB-200 data), the compared
// baselines, and a benchmark harness regenerating every table and figure
// of the paper's evaluation — grown into a serving system: a sharded
// batched inference engine (internal/infer), a micro-batching HTTP layer
// (internal/serve, cmd/hdcserve), and a frozen-graph inference compiler
// (nn.CompiledNet — BatchNorm folding, fused GEMM epilogues, plan-level
// buffer scheduling), which is the one way a frozen net runs: every
// served embedding and every evaluation readout goes through a compiled
// plan, while layer Forward stays the training path and the parity
// oracle the plans are tested against. The compiler also lowers frozen
// nets to calibrated int8 plans (nn.CompileQuantized — per-channel
// symmetric scales, packed
// int8 GEMM with fused dequant/requant epilogues, int8 activations
// between steps), which hdcserve serves as embedder resnet-int8 beside
// the f32 resnet.
//
// The class memory learns while serving: internal/classmem.Versioned
// is an RCU epoch store — POST /v1/enroll adds a class under live
// traffic, published epochs are immutable and every classify response
// is tagged with the epoch it was answered at, a CRC-framed WAL plus
// snapshot compaction (-wal, -snapshot-every) make enrollments
// crash-safe with bit-identical replay, and the distributed tail
// shard grows through a two-phase epoch flip; the replicas' stores are
// the only enrollment history, from which the router catches up a
// lagging replica and finishes a flip a failed router left staged. See
// README.md ("Live enrollment").
//
// The serving path's performance contracts are enforced statically by
// the in-tree analyzer suite in internal/analysis (driven by
// cmd/hdclint, standalone or via go vet -vettool): //hdc:hotpath marks
// allocation-free functions, //hdc:coldpath marks deliberate slow
// branches, //hdc:allow <analyzer> <reason> suppresses a finding with a
// mandatory justification. See README.md ("Correctness tooling") for
// the contract list and README.md for a tour.
package repro
