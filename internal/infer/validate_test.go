package infer

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/hdc"
	"repro/internal/imc"
	"repro/internal/tensor"
)

func validateFixture(classes, d int) (*FloatBackend, *BinaryBackend, *CrossbarBackend) {
	rng := rand.New(rand.NewSource(3))
	phi := tensor.Rademacher(rng, classes, d)
	im := hdc.NewItemMemory(d)
	for c := 0; c < classes; c++ {
		im.Store(fmt.Sprintf("class%d", c), hdc.NewRandomBinary(rng, d))
	}
	return NewFloatBackend(phi, nil, 1), NewBinaryBackend(im),
		NewCrossbarBackend(phi, nil, 1, imc.Ideal())
}

// A batch populating both representations with disagreeing probe counts
// must fail fast at validation and at the query boundary, not silently
// mis-index probes mid-shard.
func TestBatchDensePackedCountMismatch(t *testing.T) {
	const classes, d = 7, 128
	rng := rand.New(rand.NewSource(4))
	dense := tensor.Randn(rng, 1, 5, d)
	packed := make([]*hdc.Binary, 3) // 3 != 5
	for i := range packed {
		packed[i] = hdc.NewRandomBinary(rng, d)
	}

	bad := &Batch{Dense: dense, Packed: packed}
	if err := bad.Validate(); !errors.Is(err, ErrBatchMismatch) {
		t.Fatalf("Validate error = %v, want ErrBatchMismatch", err)
	}

	fb, _, _ := validateFixture(classes, d)
	eng := New(fb)
	if _, err := eng.TryQuery(bad, 1); !errors.Is(err, ErrBatchMismatch) {
		t.Fatalf("TryQuery error = %v, want ErrBatchMismatch", err)
	}
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("Query accepted a mismatched batch")
			}
			if !strings.Contains(fmt.Sprint(r), "mismatch") {
				t.Fatalf("panic message %q does not name the mismatch", r)
			}
		}()
		eng.Query(bad, 1)
	}()
}

func TestBatchValidateRejectsNilAndRaggedPacked(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	if err := (&Batch{Packed: []*hdc.Binary{hdc.NewRandomBinary(rng, 64), nil}}).Validate(); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("nil packed entry: err = %v, want ErrBadQuery", err)
	}
	ragged := []*hdc.Binary{hdc.NewRandomBinary(rng, 64), hdc.NewRandomBinary(rng, 128)}
	if err := (&Batch{Packed: ragged}).Validate(); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("ragged packed dims: err = %v, want ErrBadQuery", err)
	}
	var nilBatch *Batch
	if err := nilBatch.Validate(); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("nil batch: err = %v, want ErrBadQuery", err)
	}
}

// A batch lacking the representation a backend consumes must fail at the
// engine boundary with a message naming the missing representation,
// instead of panicking deep inside the backend.
func TestQueryMissingRepresentation(t *testing.T) {
	const classes, d = 7, 128
	rng := rand.New(rand.NewSource(6))
	fb, bb, xb := validateFixture(classes, d)
	packedOnly := PackedBatch([]*hdc.Binary{hdc.NewRandomBinary(rng, d)})
	denseOnly := DenseBatch(tensor.Randn(rng, 1, 2, d))

	for _, be := range []Backend{fb, xb} {
		eng := New(be)
		_, err := eng.TryQuery(packedOnly, 1)
		if !errors.Is(err, ErrMissingRepresentation) {
			t.Fatalf("backend %q: err = %v, want ErrMissingRepresentation", be.Name(), err)
		}
		if !strings.Contains(err.Error(), "dense") {
			t.Fatalf("backend %q: error %q does not name the missing dense representation", be.Name(), err)
		}
	}

	// The binary backend accepts either representation: dense-only batches
	// sign-pack lazily, packed-only batches pass through.
	eng := New(bb)
	if _, err := eng.TryQuery(denseOnly, 1); err != nil {
		t.Fatalf("binary backend rejected a dense-only batch: %v", err)
	}
	if _, err := eng.TryQuery(packedOnly, 1); err != nil {
		t.Fatalf("binary backend rejected a packed-only batch: %v", err)
	}
}

// A probe dimensionality that disagrees with the backend's class memory
// must fail as a typed error at the query boundary — a panic would fire
// inside a shard worker goroutine, where it is unrecoverable.
func TestQueryProbeDimMismatch(t *testing.T) {
	const classes, d = 7, 128
	rng := rand.New(rand.NewSource(8))
	fb, bb, xb := validateFixture(classes, d)
	wrongDense := DenseBatch(tensor.Randn(rng, 1, 2, d/2))
	wrongPacked := PackedBatch([]*hdc.Binary{hdc.NewRandomBinary(rng, d/2)})
	for _, be := range []Backend{fb, bb, xb} {
		eng := New(be, WithWorkers(3))
		if _, err := eng.TryQuery(wrongDense, 1); !errors.Is(err, ErrBadQuery) {
			t.Fatalf("backend %q dense dim mismatch: err = %v, want ErrBadQuery", be.Name(), err)
		}
	}
	if _, err := New(bb).TryQuery(wrongPacked, 1); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("packed dim mismatch: err = %v, want ErrBadQuery", err)
	}
	// Both representations present but with disagreeing dims: malformed
	// batch regardless of backend.
	mixed := &Batch{
		Dense:  tensor.Randn(rng, 1, 1, d),
		Packed: []*hdc.Binary{hdc.NewRandomBinary(rng, d/2)},
	}
	if err := mixed.Validate(); !errors.Is(err, ErrBatchMismatch) {
		t.Fatalf("cross-representation dim mismatch: err = %v, want ErrBatchMismatch", err)
	}
}

// An empty class set must surface as the typed ErrNoClasses from
// NewChecked (New keeps the fail-fast panic for code paths that should
// never see one).
func TestNewCheckedEmptyClassSet(t *testing.T) {
	empty := &fakeBackend{dim: 4}
	if _, err := NewChecked(empty); !errors.Is(err, ErrNoClasses) {
		t.Fatalf("NewChecked error = %v, want ErrNoClasses", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted an empty class set")
		}
	}()
	New(empty)
}

// TryQuery on a valid batch must agree exactly with Query.
func TestTryQueryMatchesQuery(t *testing.T) {
	const classes, d = 11, 64
	rng := rand.New(rand.NewSource(7))
	fb, _, _ := validateFixture(classes, d)
	eng := New(fb, WithWorkers(3))
	batch := DenseBatch(tensor.Randn(rng, 1, 6, d))
	want := eng.Query(batch, 4)
	got, err := eng.TryQuery(batch, 4)
	if err != nil {
		t.Fatalf("TryQuery: %v", err)
	}
	for p := range want {
		for i := range want[p].TopK {
			if got[p].TopK[i] != want[p].TopK[i] {
				t.Fatalf("probe %d rank %d: TryQuery %+v != Query %+v", p, i, got[p].TopK[i], want[p].TopK[i])
			}
		}
	}
	if _, err := eng.TryQuery(batch, 0); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("k=0: err = %v, want ErrBadQuery", err)
	}
}
