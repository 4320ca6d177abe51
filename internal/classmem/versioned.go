package classmem

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/hdc"
	"repro/internal/infer"
)

// Live-enrollment errors. ErrEpochConflict and ErrEpochGap are the
// two-phase flip's safety rails: an epoch number can never be reused
// for different content, and commits can never skip a prepare.
var (
	// ErrEpochConflict: a prepare carried an epoch that is already
	// bound (published or staged) to different content. The epoch
	// number is the idempotent enroll request ID — retries of the same
	// enrollment ack cleanly, anything else is a split-brain bug
	// surfaced loudly.
	ErrEpochConflict = errors.New("classmem: epoch already bound to different enrollment")
	// ErrEpochGap: a prepare or commit skipped ahead of published+1.
	ErrEpochGap = errors.New("classmem: epoch gap")
	// ErrNotPrepared: a commit arrived with nothing staged.
	ErrNotPrepared = errors.New("classmem: commit without a prepared enrollment")
)

// Snapshot is one published epoch of a Versioned store: immutable
// prefix views over the store's shared backing. Epoch e is by
// construction the base memory plus the first e enrollments — that
// arithmetic, not any copied state, is what lets every process
// (server, shard, oracle test) agree on exactly which classes epoch e
// contains.
type Snapshot struct {
	Epoch uint64
	// Mem is the class memory at this epoch. Its Items slab is a
	// zero-copy view into backing shared with later epochs; the viewed
	// prefix is immutable.
	Mem *Memory
}

// memorySlab is the growable backing a Versioned store appends to. The
// published prefix (rows rows) is immutable — appends only ever write
// past it, and a published Snapshot only ever views it — which is the
// entire RCU contract: readers on any epoch keep scanning exactly the
// bytes they started with, with zero added synchronization.
//
// The `slab` field grouping is load-bearing for hdclint: writes rooted
// at `.slab` must appear in a function that also calls PublishEpoch
// (the versionkeyed analyzer's epoch-store rule), so a helper that
// grows the memory but forgets the flip is a compile-time finding, not
// a stale-epoch bug in production.
type memorySlab struct {
	labels []string
	words  []uint64 // rows × wpv
	rows   int
}

// pendingEnroll is the staged (prepared, WAL-durable, unpublished)
// enrollment of the two-phase flip. At most one exists, always for
// epoch published+1.
type pendingEnroll struct {
	epoch uint64
	label string
	words []uint64
}

// Versioned is the RCU-versioned class memory behind live enrollment:
// writers stage and append new class prototypes off to the side while
// readers keep querying the published snapshot lock-free, then an
// atomic pointer store flips all new probes to the next epoch — the
// same version-keyed invalidation discipline Param.Version applies to
// packed weight panels, applied to the readout side.
//
// Concurrency: any number of readers call Snapshot/Backend-derived
// queries without locks; writers (Enroll, Prepare, Commit, Compact)
// serialize on an internal mutex. Durability, when opened with a WAL
// directory, is fsync-before-publish: an enrollment is never visible
// to queries unless its WAL record is already on disk, so a crash at
// any instant restarts into exactly the pre-crash published epoch.
type Versioned struct {
	dim  int
	wpv  int
	seed int64
	base int

	cur atomic.Pointer[Snapshot]

	mu      sync.Mutex
	slab    memorySlab
	pending *pendingEnroll
	wal     *walFile // nil → in-memory only

	snapshotEvery int
	sinceSnap     int

	walBytes atomic.Int64
}

// NewVersioned builds an in-memory-only versioned store seeded with
// the frozen Build(classes, dim, seed) memory at epoch 0. Enrollments
// publish but do not survive a restart; OpenVersioned is the durable
// variant.
func NewVersioned(classes, dim int, seed int64) *Versioned {
	v := &Versioned{
		dim:  dim,
		wpv:  (dim + 63) / 64,
		seed: seed,
		base: classes,
	}
	v.seedBase(classes, dim, seed)
	return v
}

// seedBase adopts the frozen base memory's slices as the initial
// growable backing (appends past the frozen prefix never disturb it)
// and publishes epoch 0.
func (v *Versioned) seedBase(classes, dim int, seed int64) {
	m := Build(classes, dim, seed)
	v.mu.Lock()
	defer v.mu.Unlock()
	v.slab.labels = m.Labels
	v.slab.words = m.Items.Slab()
	v.slab.rows = classes
	v.PublishEpoch()
}

// PublishEpoch publishes the slab's current row prefix as the live
// snapshot. Callers hold v.mu; every slab write in this package pairs
// with a PublishEpoch call in the same function (or carries an
// explicit //hdc:allow), which hdclint's versionkeyed analyzer
// enforces.
func (v *Versioned) PublishEpoch() {
	n := v.slab.rows
	labels := v.slab.labels[:n:n]
	v.cur.Store(&Snapshot{
		Epoch: uint64(n - v.base),
		Mem: &Memory{
			Labels: labels,
			Items:  hdc.ItemMemoryFromSlab(v.dim, labels, v.slab.words[:n*v.wpv]),
		},
	})
}

// Snapshot returns the live published epoch. Lock-free; safe from any
// goroutine.
func (v *Versioned) Snapshot() *Snapshot { return v.cur.Load() }

// Epoch returns the published epoch (the number of enrollments
// visible to queries).
func (v *Versioned) Epoch() uint64 { return v.cur.Load().Epoch }

// EnrolledTotal returns the number of classes enrolled beyond the
// frozen base — identical to Epoch by construction, named for the
// operator-facing /stats field.
func (v *Versioned) EnrolledTotal() uint64 { return v.Epoch() }

// WALBytes returns the current size of the enrollment WAL on disk (0
// for an in-memory store): the operator's compaction gauge.
func (v *Versioned) WALBytes() int64 { return v.walBytes.Load() }

// Dim returns the hypervector dimensionality.
func (v *Versioned) Dim() int { return v.dim }

// EnrolledRecord returns the label and packed words of the enrollment
// that produced epoch (1-based: epoch e is the e'th enrollment), if it
// is published or staged as published+1. It is what a distributed
// router reads to catch a lagging replica up from a peer, and to finish
// a flip a previous router left staged. The words slice is a read-only
// view into the store.
func (v *Versioned) EnrolledRecord(epoch uint64) (string, []uint64, bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	switch published := uint64(v.slab.rows - v.base); {
	case epoch >= 1 && epoch <= published:
		row := v.base + int(epoch) - 1
		return v.slab.labels[row], v.slab.words[row*v.wpv : (row+1)*v.wpv : (row+1)*v.wpv], true
	case v.pending != nil && v.pending.epoch == epoch:
		return v.pending.label, v.pending.words, true
	}
	return "", nil, false
}

// Enroll appends one class prototype and publishes the next epoch in a
// single durable step (both WAL records, one fsync, then the pointer
// flip). It returns the new published epoch. This is the
// single-process path; distributed flips use Prepare/Commit.
func (v *Versioned) Enroll(label string, proto *hdc.Binary) (uint64, error) {
	if proto.Dim() != v.dim {
		return 0, fmt.Errorf("classmem: enroll dim %d, memory dim %d", proto.Dim(), v.dim)
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.pending != nil {
		return 0, fmt.Errorf("%w: epoch %d staged but uncommitted", ErrEpochConflict, v.pending.epoch)
	}
	epoch := uint64(v.slab.rows-v.base) + 1
	words := append([]uint64(nil), proto.Words()...)
	if v.wal != nil {
		if err := v.wal.append(enrollRecord(epoch, label, words), commitRecord(epoch)); err != nil {
			return 0, err
		}
		v.walBytes.Store(v.wal.size)
	}
	v.applyLocked(label, words)
	return epoch, v.maybeCompactLocked()
}

// BundleExamples bundles example bipolar vectors into a packed class
// prototype — majority rule, ties broken from a generator seeded with
// seed — for deployments that forward the bundled prototype to a remote
// class memory (the router's two-phase flip) instead of enrolling into
// a local store.
func BundleExamples(seed int64, examples ...hdc.Bipolar) (*hdc.Binary, error) {
	if len(examples) == 0 {
		return nil, fmt.Errorf("bundle with no examples")
	}
	rng := rand.New(rand.NewSource(seed))
	return hdc.FromBipolar(hdc.Bundle(rng, examples...)), nil
}

// Prepare stages enrollment `epoch` (which must be published+1):
// the record is WAL-appended and fsync'd before Prepare returns, so an
// acked prepare survives any crash. Prepares are idempotent — the
// epoch number is the enroll request ID, and re-preparing an epoch
// already staged or published with identical content acks cleanly
// (failover retries never double-enroll) while different content is
// ErrEpochConflict.
func (v *Versioned) Prepare(epoch uint64, label string, proto *hdc.Binary) error {
	if proto.Dim() != v.dim {
		return fmt.Errorf("classmem: prepare dim %d, memory dim %d", proto.Dim(), v.dim)
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	published := uint64(v.slab.rows - v.base)
	switch {
	case epoch == 0:
		return fmt.Errorf("%w: prepare epoch 0", ErrEpochGap)
	case epoch <= published:
		row := v.base + int(epoch) - 1
		if v.slab.labels[row] != label || !slices.Equal(v.slab.words[row*v.wpv:(row+1)*v.wpv], proto.Words()) {
			return fmt.Errorf("%w: epoch %d already published", ErrEpochConflict, epoch)
		}
		return nil
	case epoch == published+1:
		if v.pending != nil {
			if v.pending.label != label || !slices.Equal(v.pending.words, proto.Words()) {
				return fmt.Errorf("%w: epoch %d already staged", ErrEpochConflict, epoch)
			}
			return nil
		}
		words := append([]uint64(nil), proto.Words()...)
		if v.wal != nil {
			if err := v.wal.append(enrollRecord(epoch, label, words)); err != nil {
				return err
			}
			v.walBytes.Store(v.wal.size)
		}
		v.pending = &pendingEnroll{epoch: epoch, label: label, words: words}
		return nil
	default:
		return fmt.Errorf("%w: prepare epoch %d with %d published", ErrEpochGap, epoch, published)
	}
}

// Commit publishes the staged enrollment for `epoch`. Committing an
// already-published epoch is a no-op ack (idempotent, like Prepare).
func (v *Versioned) Commit(epoch uint64) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	published := uint64(v.slab.rows - v.base)
	switch {
	case epoch <= published:
		return nil
	case epoch == published+1 && v.pending != nil:
		if v.wal != nil {
			if err := v.wal.append(commitRecord(epoch)); err != nil {
				return err
			}
			v.walBytes.Store(v.wal.size)
		}
		v.applyLocked(v.pending.label, v.pending.words)
		v.pending = nil
		return v.maybeCompactLocked()
	case epoch == published+1:
		return fmt.Errorf("%w: epoch %d", ErrNotPrepared, epoch)
	default:
		return fmt.Errorf("%w: commit epoch %d with %d published", ErrEpochGap, epoch, published)
	}
}

// applyLocked appends one enrolled row (label and packed words) and
// publishes the next epoch. The words are the whole class row: float
// and crossbar tiles expand them on demand, so a replayed or forwarded
// enrollment is bit-identical to a locally constructed one.
func (v *Versioned) applyLocked(label string, words []uint64) {
	v.slab.labels = append(v.slab.labels, label)
	v.slab.words = append(v.slab.words, words...)
	v.slab.rows++
	v.sinceSnap++
	v.PublishEpoch()
}

// Backend realizes the named backend over the live snapshot, as
// Memory.Backend does.
func (v *Versioned) Backend(name string) (infer.Backend, error) {
	return v.Snapshot().Mem.Backend(name)
}

// Close releases the WAL file handle (the store stays queryable).
func (v *Versioned) Close() error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.wal == nil {
		return nil
	}
	err := v.wal.close()
	v.wal = nil
	return err
}
