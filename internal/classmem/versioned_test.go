package classmem

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/hdc"
	"repro/internal/infer"
)

const (
	vtClasses = 12
	vtDim     = 256
	vtSeed    = int64(11)
)

// vtProto generates the i'th deterministic enrollment prototype — the
// same construction every test (and the chaos test's oracle) uses.
func vtProto(i int) *hdc.Binary {
	rng := rand.New(rand.NewSource(vtSeed + 1000 + int64(i)))
	bp := make(hdc.Bipolar, vtDim)
	for j := range bp {
		if rng.Intn(2) == 0 {
			bp[j] = 1
		} else {
			bp[j] = -1
		}
	}
	return hdc.FromBipolar(bp)
}

// assertBitIdentical compares two stores' published memories bit for
// bit: labels, packed words, epoch. The words are the whole memory;
// every backend derives its rows from them.
func assertBitIdentical(t *testing.T, got, want *Versioned) {
	t.Helper()
	gs, ws := got.Snapshot(), want.Snapshot()
	if gs.Epoch != ws.Epoch {
		t.Fatalf("epoch %d, want %d", gs.Epoch, ws.Epoch)
	}
	if len(gs.Mem.Labels) != len(ws.Mem.Labels) {
		t.Fatalf("%d labels, want %d", len(gs.Mem.Labels), len(ws.Mem.Labels))
	}
	for i := range gs.Mem.Labels {
		if gs.Mem.Labels[i] != ws.Mem.Labels[i] {
			t.Fatalf("label %d: %q, want %q", i, gs.Mem.Labels[i], ws.Mem.Labels[i])
		}
	}
	gw, ww := gs.Mem.Items.Slab(), ws.Mem.Items.Slab()
	if len(gw) != len(ww) {
		t.Fatalf("%d slab words, want %d", len(gw), len(ww))
	}
	for i := range gw {
		if gw[i] != ww[i] {
			t.Fatalf("slab word %d: %#x, want %#x", i, gw[i], ww[i])
		}
	}
}

// The satellite property test: a durable store that enrolled k classes
// (crossing a compaction boundary on the way), crashed, and replayed
// its snapshot + WAL is bit-identical to direct construction — the
// same base Build with the same k prototypes enrolled in-memory.
func TestVersionedWALReplayBitIdentical(t *testing.T) {
	const k = 7
	dir := t.TempDir()
	// snapshotEvery=3 so enrollments land on both sides of a compaction.
	v, err := OpenVersioned(dir, vtClasses, vtDim, vtSeed, 3)
	if err != nil {
		t.Fatal(err)
	}
	direct := NewVersioned(vtClasses, vtDim, vtSeed)
	for i := 0; i < k; i++ {
		label := "enrolled-" + string(rune('a'+i))
		ep, err := v.Enroll(label, vtProto(i))
		if err != nil {
			t.Fatal(err)
		}
		if ep != uint64(i+1) {
			t.Fatalf("enroll %d returned epoch %d", i, ep)
		}
		if _, err := direct.Enroll(label, vtProto(i)); err != nil {
			t.Fatal(err)
		}
	}
	// "Crash": drop the handle without any orderly shutdown.
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenVersioned(dir, vtClasses, vtDim, vtSeed, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	assertBitIdentical(t, re, direct)
	if re.Epoch() != k {
		t.Fatalf("replayed epoch %d, want %d", re.Epoch(), k)
	}

	// The replayed store keeps enrolling from where it left off.
	if ep, err := re.Enroll("post-replay", vtProto(k)); err != nil || ep != k+1 {
		t.Fatalf("post-replay enroll: epoch %d, err %v", ep, err)
	}
}

// An empty dir opens the in-memory store: it enrolls without touching
// disk, reports no WAL, closes cleanly, and publishes the same memory
// as NewVersioned at every epoch.
func TestOpenVersionedInMemory(t *testing.T) {
	v, err := OpenVersioned("", vtClasses, vtDim, vtSeed, 3)
	if err != nil {
		t.Fatal(err)
	}
	direct := NewVersioned(vtClasses, vtDim, vtSeed)
	assertBitIdentical(t, v, direct)
	for i := 0; i < 4; i++ {
		label := fmt.Sprintf("mem-%d", i)
		ep, err := v.Enroll(label, vtProto(i))
		if err != nil || ep != uint64(i+1) {
			t.Fatalf("enroll %d: epoch %d, err %v", i, ep, err)
		}
		if _, err := direct.Enroll(label, vtProto(i)); err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, v, direct)
		if b := v.WALBytes(); b != 0 {
			t.Fatalf("in-memory store reports %d WAL bytes", b)
		}
	}
	if err := v.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// Torn-write recovery: a WAL whose tail record is cut mid-frame must
// replay cleanly to the last complete record, and a lost commit frame
// must come back as a staged (prepared, unpublished) enrollment.
func TestVersionedWALTornTail(t *testing.T) {
	const k = 4
	dir := t.TempDir()
	v, err := OpenVersioned(dir, vtClasses, vtDim, vtSeed, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		if _, err := v.Enroll("torn-"+string(rune('a'+i)), vtProto(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}

	walPath := filepath.Join(dir, walName)
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// Cut into the final frame (the commit of epoch k): the enrollment
	// was prepared and fsync'd but its publish never hit the disk.
	if err := os.WriteFile(walPath, raw[:len(raw)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := OpenVersioned(dir, vtClasses, vtDim, vtSeed, 0)
	if err != nil {
		t.Fatal(err)
	}
	if re.Epoch() != k-1 {
		t.Fatalf("epoch after torn commit: %d, want %d", re.Epoch(), k-1)
	}
	if re.pending == nil || re.pending.epoch != k {
		t.Fatalf("pending after torn commit: %+v, want epoch %d staged", re.pending, k)
	}
	// Committing the restored stage completes the interrupted flip.
	if err := re.Commit(k); err != nil {
		t.Fatal(err)
	}
	if re.Epoch() != k {
		t.Fatalf("epoch after commit: %d, want %d", re.Epoch(), k)
	}
	re.Close()

	// Now cut mid-way into an enroll frame: replay must stop before it
	// and the torn bytes must be gone so appends resume cleanly.
	raw, err = os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	re2, err := OpenVersioned(dir, vtClasses, vtDim, vtSeed, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	if re2.Epoch() >= k {
		t.Fatalf("epoch after mid-file truncation: %d, want < %d", re2.Epoch(), k)
	}
	if _, err := re2.Enroll("resume", vtProto(9)); err != nil {
		t.Fatal(err)
	}
}

// TestDurableFormatDigest pins the bytes of both durable formats at the
// CUB-200 geometry: the WAL after 16 fixed enrollments, then the
// HDCMSNP1 snapshot that compacts them. Either digest moving means a
// store written by one build no longer replays under another.
func TestDurableFormatDigest(t *testing.T) {
	const (
		wantWAL  = "470721ce3e70e363598f2c96685128e7bba3eaa12be86bed82f3495aabf29024"
		wantSnap = "f27fa96cce45bad764268997f27688da465058802451e9f111859a79b8e93960"
	)
	dir := t.TempDir()
	v, err := OpenVersioned(dir, 200, 1536, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 16; i++ {
		if _, err := v.Enroll(fmt.Sprintf("golden-%02d", i), hdc.NewRandomBinary(rng, 1536)); err != nil {
			t.Fatal(err)
		}
	}
	fileDigest := func(name string) string {
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return sha256Hex(raw)
	}
	if got := fileDigest(walName); got != wantWAL {
		t.Errorf("%s digest %s, want %s", walName, got, wantWAL)
	}
	if err := v.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := fileDigest(snapName); got != wantSnap {
		t.Errorf("%s digest %s, want %s", snapName, got, wantSnap)
	}
}

// TestVersionedEnrollFootprint bounds what one enrollment keeps alive:
// the packed sign words, the label and amortized slab growth. The three
// serving backends are rebuilt after every enrollment, as live views
// queried at every epoch do, so a backend constructor that
// materializes per-row state shows up here too. No backend is queried,
// so the float/crossbar tiles a first query after each flip expands are
// in neither figure. Each prototype is drawn inside the loop: one that
// outlived the loop would be freed by the final GC and offset the
// live-heap figure.
func TestVersionedEnrollFootprint(t *testing.T) {
	const n = 1000
	v := NewVersioned(200, 1536, 1)
	rng := rand.New(rand.NewSource(7))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		p := hdc.NewRandomBinary(rng, 1536)
		if _, err := v.Enroll(fmt.Sprintf("enrolled-%04d", i), p); err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"float", "binary", "imc"} {
			if _, err := v.Backend(name); err != nil {
				t.Fatal(err)
			}
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	live := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / n
	t.Logf("per enrollment: %d B live heap, %d B allocated", live, (after.TotalAlloc-before.TotalAlloc)/n)
	if live > 1024 {
		t.Fatalf("each enrollment keeps %d B of live heap, want <= 1024", live)
	}
	runtime.KeepAlive(v)
}

// The two-phase primitives: epoch numbers are idempotent request IDs —
// duplicate prepares/commits ack, conflicting content errors, gaps
// error.
func TestVersionedPrepareCommit(t *testing.T) {
	v := NewVersioned(vtClasses, vtDim, vtSeed)
	p0, p1 := vtProto(0), vtProto(1)

	if err := v.Prepare(1, "x", p0); err != nil {
		t.Fatal(err)
	}
	if err := v.Prepare(1, "x", p0); err != nil {
		t.Fatalf("duplicate prepare: %v", err)
	}
	if err := v.Prepare(1, "y", p1); !errors.Is(err, ErrEpochConflict) {
		t.Fatalf("conflicting prepare: %v", err)
	}
	if err := v.Prepare(3, "z", p1); !errors.Is(err, ErrEpochGap) {
		t.Fatalf("gapped prepare: %v", err)
	}
	if err := v.Commit(2); !errors.Is(err, ErrEpochGap) {
		t.Fatalf("gapped commit: %v", err)
	}
	if v.Epoch() != 0 {
		t.Fatalf("published before commit: epoch %d", v.Epoch())
	}
	if err := v.Commit(1); err != nil {
		t.Fatal(err)
	}
	if err := v.Commit(1); err != nil {
		t.Fatalf("duplicate commit: %v", err)
	}
	if v.Epoch() != 1 {
		t.Fatalf("epoch %d after commit", v.Epoch())
	}
	// Re-prepare of a published epoch: same content acks, different errors.
	if err := v.Prepare(1, "x", p0); err != nil {
		t.Fatalf("re-prepare published: %v", err)
	}
	if err := v.Prepare(1, "x", p1); !errors.Is(err, ErrEpochConflict) {
		t.Fatalf("re-prepare published with different proto: %v", err)
	}
	if err := v.Commit(2); !errors.Is(err, ErrNotPrepared) {
		t.Fatalf("commit without prepare: %v", err)
	}
}

// The RCU contract: a snapshot taken before enrollments keeps serving
// its exact pre-enrollment bytes, and the store's float backend at each
// epoch ranks exactly as a fresh store's at that epoch.
func TestVersionedSnapshotImmutable(t *testing.T) {
	const grow = 5
	v := NewVersioned(vtClasses, vtDim, vtSeed)
	old := v.Snapshot()
	oldWords := append([]uint64(nil), old.Mem.Items.Slab()...)

	oldBe, err := old.Mem.Backend("float")
	if err != nil {
		t.Fatal(err)
	}
	oldEng := infer.New(oldBe, infer.WithWorkers(2), infer.WithEpoch(old.Epoch))
	probes := liveProbes(grow)
	wantOld, err := oldEng.TryQuery(probes, liveK)
	if err != nil {
		t.Fatal(err)
	}

	// Backend("float") at every epoch, each queried (so its tiles are
	// built) before the next enrollment, against engines over a second
	// store enrolled in lockstep.
	want := liveOracle(t, "float", 0, grow, probes)
	for e := 0; e <= grow; e++ {
		if e > 0 {
			liveEnroll(t, v, e-1)
		}
		be, err := v.Backend("float")
		if err != nil {
			t.Fatal(err)
		}
		got, err := infer.New(be, infer.WithWorkers(2)).TryQuery(probes, liveK)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameRanking(got, want[e]); err != nil {
			t.Fatalf("epoch %d: %v", e, err)
		}
	}

	if old.Mem.Items.Len() != vtClasses || len(old.Mem.Labels) != vtClasses {
		t.Fatalf("old snapshot grew: %d items", old.Mem.Items.Len())
	}
	for i, w := range old.Mem.Items.Slab() {
		if w != oldWords[i] {
			t.Fatalf("old snapshot word %d changed", i)
		}
	}
	// Old engine still serves the old ranking, byte-identical.
	again, err := oldEng.TryQuery(probes, liveK)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameRanking(again, wantOld); err != nil {
		t.Fatalf("old engine ranking changed: %v", err)
	}
	if s := v.Snapshot(); s.Epoch != grow || s.Mem.Items.Len() != vtClasses+grow {
		t.Fatalf("new snapshot: epoch %d, %d items", s.Epoch, s.Mem.Items.Len())
	}
}
