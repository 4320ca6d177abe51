package dist

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"testing"
	"time"

	"repro/internal/classmem"
	"repro/internal/hdc"
	"repro/internal/infer"
	"repro/internal/tensor"
)

// startGrowingServer serves one growing tail range from a versioned
// store on a loopback listener. The caller owns server shutdown (the
// tests kill and restart replicas deliberately).
func startGrowingServer(t *testing.T, store *classmem.Versioned, base int, addr string) (*ShardServer, string) {
	t.Helper()
	live, err := store.Live("float", base)
	if err != nil {
		t.Fatalf("Live: %v", err)
	}
	s, err := NewShardServer(nil, live)
	if err != nil {
		t.Fatalf("NewShardServer(growing): %v", err)
	}
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("listen %s: %v", addr, err)
	}
	go s.Serve(ln)
	return s, ln.Addr().String()
}

// TestRouterEnrollTwoPhaseParity drives live enrollment through the
// router's two-phase epoch flip and holds every ranking to the
// byte-parity oracle: a single-process engine over a versioned store
// enrolled in lockstep. It also exercises the failure legs the 2PC
// exists for — a replica that is down during a flip stays cleanly
// behind, keeps getting served around, and is caught up by enroll-log
// replay the next time the router prepares on it.
func TestRouterEnrollTwoPhaseParity(t *testing.T) {
	const classes, d, split = 12, 128, 6
	const seed = 21
	// Three independent stores built from the same seed are bit-identical
	// at epoch 0: two shard replicas plus the single-process oracle.
	storeA := classmem.NewVersioned(classes, d, seed)
	storeB := classmem.NewVersioned(classes, d, seed)
	oracle := classmem.NewVersioned(classes, d, seed)

	frozen, err := oracle.Backend("float")
	if err != nil {
		t.Fatal(err)
	}
	frozenAddr := startServer(t, []Slab{slabFor(t, frozen, [2]int{0, split})})
	srvA, addrA := startGrowingServer(t, storeA, split, "")
	t.Cleanup(func() { srvA.Close() })
	srvB, addrB := startGrowingServer(t, storeB, split, "")
	t.Cleanup(func() { srvB.Close() })

	router := newTestRouter(t, Layout{Classes: classes, Dim: d, Shards: []ShardSpec{
		{Range: [2]int{0, split}, Replicas: []string{frozenAddr}},
		{Range: [2]int{split, classes}, Replicas: []string{addrA, addrB}},
	}})

	rng := rand.New(rand.NewSource(22))
	x := tensor.New(4, d)
	for i := range x.Data {
		x.Data[i] = rng.Float32()*2 - 1
	}
	batch := infer.DenseBatch(x)

	// check compares the router's ranking (and its epoch tag) against a
	// fresh oracle engine over the lockstep-enrolled store.
	check := func(wantEpoch uint64) {
		t.Helper()
		ob, err := oracle.Backend("float")
		if err != nil {
			t.Fatal(err)
		}
		want, err := infer.New(ob).TryQuery(batch, 5)
		if err != nil {
			t.Fatal(err)
		}
		got, epoch, err := router.TryQueryEpoch(batch, 5)
		if err != nil {
			t.Fatalf("router at epoch %d: %v", wantEpoch, err)
		}
		if epoch != wantEpoch {
			t.Fatalf("ranking tagged epoch %d, want %d", epoch, wantEpoch)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("epoch %d: distributed ranking diverges from the single-process oracle\n got: %+v\nwant: %+v",
				wantEpoch, got, want)
		}
	}
	check(0)

	enroll := func(n int) *hdc.Binary {
		t.Helper()
		proto := hdc.NewRandomBinary(rng, d)
		label := fmt.Sprintf("fresh-%03d", n)
		ep, err := router.Enroll(label, proto)
		if err != nil {
			t.Fatalf("enroll %s: %v", label, err)
		}
		if ep != uint64(n) {
			t.Fatalf("enroll %s flipped epoch %d, want %d", label, ep, n)
		}
		if oep, err := oracle.Enroll(label, proto); err != nil || oep != uint64(n) {
			t.Fatalf("oracle enroll %s: epoch %d err %v", label, oep, err)
		}
		return proto
	}

	// Epoch 1: both replicas healthy — both must commit.
	enroll(1)
	if storeA.Epoch() != 1 || storeB.Epoch() != 1 {
		t.Fatalf("after flip 1: replica epochs A=%d B=%d, want 1/1", storeA.Epoch(), storeB.Epoch())
	}
	if router.Classes() != classes+1 || router.Label(classes) != "fresh-001" {
		t.Fatalf("router state after flip 1: classes=%d label=%q", router.Classes(), router.Label(classes))
	}
	check(1)

	// Epoch 2: replica B is down. The flip must still complete (quorum of
	// one live replica) and queries keep their parity on A.
	srvB.Close()
	enroll(2)
	if storeA.Epoch() != 2 {
		t.Fatalf("after flip 2: replica A epoch %d, want 2", storeA.Epoch())
	}
	if storeB.Epoch() != 1 {
		t.Fatalf("after flip 2: dead replica B advanced to %d", storeB.Epoch())
	}
	check(2)

	// Restart B on the same address, still at epoch 1. The next flip
	// prepares epoch 3 on it, gets the clean gap refusal carrying
	// committed=1, replays epoch 2 from the router's enroll log, and only
	// then flips 3 — so B lands fully caught up, no restart-from-WAL
	// needed for flips the router itself drove.
	srvB2, addrB2 := startGrowingServer(t, storeB, split, addrB)
	t.Cleanup(func() { srvB2.Close() })
	if addrB2 != addrB {
		t.Fatalf("replica B rebound to %s, want %s", addrB2, addrB)
	}
	enroll(3)
	if storeA.Epoch() != 3 || storeB.Epoch() != 3 {
		t.Fatalf("after catch-up flip 3: replica epochs A=%d B=%d, want 3/3", storeA.Epoch(), storeB.Epoch())
	}
	gotLabel, gotWords, ok := storeB.EnrolledRecord(2)
	wantLabel, wantWords, _ := storeA.EnrolledRecord(2)
	if !ok || gotLabel != wantLabel || !reflect.DeepEqual(gotWords, wantWords) {
		t.Fatalf("replayed epoch 2 on B: label=%q ok=%v, want %q (words equal: %v)",
			gotLabel, ok, wantLabel, reflect.DeepEqual(gotWords, wantWords))
	}
	check(3)

	if s := router.Stats(); s.Enrolls != 3 {
		t.Fatalf("stats enrolls = %d, want 3", s.Enrolls)
	}

	// Bad input is rejected before any replica sees a frame.
	if _, err := router.Enroll("bad", hdc.NewRandomBinary(rng, d+1)); !errors.Is(err, infer.ErrBadQuery) {
		t.Fatalf("dim-mismatched enroll: err=%v, want ErrBadQuery", err)
	}
}

// TestRouterEnrollAllReplicasDown pins the no-quorum behavior: with
// every replica of the growing range dead, the flip fails with
// ErrShardDown and the published epoch does not advance.
func TestRouterEnrollAllReplicasDown(t *testing.T) {
	const classes, d, split = 8, 64, 4
	store := classmem.NewVersioned(classes, d, 23)
	frozen, err := store.Backend("float")
	if err != nil {
		t.Fatal(err)
	}
	frozenAddr := startServer(t, []Slab{slabFor(t, frozen, [2]int{0, split})})
	srv, addr := startGrowingServer(t, store, split, "")
	t.Cleanup(func() { srv.Close() })
	router, err := NewRouter(Layout{Classes: classes, Dim: d, Shards: []ShardSpec{
		{Range: [2]int{0, split}, Replicas: []string{frozenAddr}},
		{Range: [2]int{split, classes}, Replicas: []string{addr}},
	}}, RouterConfig{ShardTimeout: time.Second, DialTimeout: time.Second, BreakerThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	srv.Close()
	if _, err := router.Enroll("orphan", hdc.NewRandomBinary(rand.New(rand.NewSource(1)), d)); !errors.Is(err, ErrShardDown) {
		t.Fatalf("enroll with growing range down: err=%v, want ErrShardDown", err)
	}
	if router.Epoch() != 0 {
		t.Fatalf("epoch advanced to %d with no replica committed", router.Epoch())
	}
}
