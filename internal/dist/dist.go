// Package dist lifts the engine's scatter-gather readout across
// processes: the horizontal-scale seam that takes "one box, one class
// memory" to class capacity spread over N shard servers.
//
// The design is deliberately the same one internal/infer runs inside a
// process, promoted one level:
//
//   - A ShardServer owns one or more contiguous class-range slabs —
//     each an ordinary infer.Engine over an infer.NewRangeBackend view
//     of the frozen class memory (float, packed-binary, and crossbar
//     backends all serve unchanged) — behind a compact length-prefixed
//     binary protocol over TCP (protocol.go): raw little-endian probe
//     slabs, batched multi-probe frames, pipelined request IDs so one
//     connection carries many in-flight batches. No JSON on the hot
//     path.
//   - A Router owns the class-space Layout (shards.json): contiguous
//     class ranges, each listing the shard processes that serve a
//     replica of it. Each query batch fans out to every shard
//     concurrently over pooled, pipelined connections, per-shard
//     candidate lists come back with global class indices and raw
//     IEEE-754 score bits, and the router merges them with the engine's
//     own exported comparator (infer.HitSorter) — so merged rankings
//     are byte-identical to the single-process engine at any shard
//     count and any replica layout.
//   - Failover: every shard range lists replica addresses in preference
//     order. A per-shard timeout bounds each attempt, a failed replica
//     is retried on the next one (bounded by the replica list), and
//     broken connections are discarded and redialed lazily.
//
// cmd/hdcshard runs a shard server; `hdcserve -router shards.json`
// serves /v1/classify and /v1/embed-classify from N shard processes
// through the same coalescer front as the local engines (the
// serve.Querier seam).
package dist

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
)

// Typed errors of the distributed path.
var (
	// ErrProtocol: a malformed, truncated, or oversized frame; the
	// connection carrying it is dropped.
	ErrProtocol = errors.New("dist: protocol error")
	// ErrRemote: the shard rejected the request and said why (dimension
	// mismatch, unknown slab, engine validation failure).
	ErrRemote = errors.New("dist: shard error")
	// ErrShardDown: every replica of a shard range failed within the
	// retry budget, so the query cannot produce a complete ranking.
	ErrShardDown = errors.New("dist: shard unavailable on every replica")
	// ErrLayout: the layout does not contiguously cover the class space,
	// or a shard's handshake contradicts it.
	ErrLayout = errors.New("dist: bad shard layout")
	// ErrClosed: the router has been closed.
	ErrClosed = errors.New("dist: router closed")
)

// ShardSpec is one contiguous class-range slab and the addresses of the
// shard servers that own a replica of it, in failover preference order.
type ShardSpec struct {
	Range    [2]int   `json:"range"`
	Replicas []string `json:"replicas"`
}

// Layout is the routing table of a distributed class memory: which
// contiguous class ranges exist, and which shard processes serve each.
// It is the shards.json file cmd/hdcshard and `hdcserve -router` share.
type Layout struct {
	// Model names the served model (defaults to the backend name
	// reported by the shards when empty).
	Model string `json:"model,omitempty"`
	// Classes is the global class count; the shard ranges must cover
	// [0, Classes) contiguously.
	Classes int `json:"classes"`
	// Dim is the probe dimensionality every shard must agree on.
	Dim int `json:"dim"`
	// Shards lists the class-range slabs in ascending range order.
	Shards []ShardSpec `json:"shards"`
}

// Validate checks the structural contract: at least one shard, ranges
// contiguously covering [0, Classes) in order, and every range carrying
// at least one replica address.
func (l *Layout) Validate() error {
	if l.Classes <= 0 || l.Dim <= 0 {
		return fmt.Errorf("%w: classes=%d dim=%d", ErrLayout, l.Classes, l.Dim)
	}
	if len(l.Shards) == 0 {
		return fmt.Errorf("%w: no shards", ErrLayout)
	}
	lo := 0
	for i, s := range l.Shards {
		if s.Range[0] != lo || s.Range[1] <= s.Range[0] {
			return fmt.Errorf("%w: shard %d range %v does not continue cover at %d", ErrLayout, i, s.Range, lo)
		}
		if len(s.Replicas) == 0 {
			return fmt.Errorf("%w: shard %d range %v has no replicas", ErrLayout, i, s.Range)
		}
		for _, a := range s.Replicas {
			if a == "" {
				return fmt.Errorf("%w: shard %d range %v has an empty replica address", ErrLayout, i, s.Range)
			}
		}
		lo = s.Range[1]
	}
	if lo != l.Classes {
		return fmt.Errorf("%w: shard ranges cover [0, %d), want [0, %d)", ErrLayout, lo, l.Classes)
	}
	return nil
}

// LoadLayout reads and validates a shards.json file.
func LoadLayout(path string) (Layout, error) {
	var l Layout
	data, err := os.ReadFile(path)
	if err != nil {
		return l, err
	}
	if err := json.Unmarshal(data, &l); err != nil {
		return l, fmt.Errorf("%w: %s: %v", ErrLayout, path, err)
	}
	if err := l.Validate(); err != nil {
		return l, fmt.Errorf("%s: %w", path, err)
	}
	return l, nil
}

// WriteLayout writes a layout as indented JSON.
func WriteLayout(path string, l Layout) error {
	if err := l.Validate(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(l, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
