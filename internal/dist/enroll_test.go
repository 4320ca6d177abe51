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
// behind, keeps getting served around, and is caught up from its peer's
// store the next time the router prepares on it.
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
	// committed=1, reads epoch 2 from A's store, prepares and commits it
	// on B, and only then flips 3 — so B lands fully caught up.
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

// growingFleet is one frozen range on its own server and a growing tail
// range on two replicas, A before B in preference order, plus the
// single-process oracle store the tests enroll in lockstep.
type growingFleet struct {
	classes        int
	dim            int
	storeA, storeB *classmem.Versioned
	oracle         *classmem.Versioned
	srvA, srvB     *ShardServer
	layout         Layout
	batch          *infer.Batch
}

func newGrowingFleet(t *testing.T, seed int64) *growingFleet {
	t.Helper()
	const classes, d, split = 12, 128, 6
	f := &growingFleet{
		classes: classes,
		dim:     d,
		storeA:  classmem.NewVersioned(classes, d, seed),
		storeB:  classmem.NewVersioned(classes, d, seed),
		oracle:  classmem.NewVersioned(classes, d, seed),
	}
	frozen, err := f.oracle.Backend("float")
	if err != nil {
		t.Fatal(err)
	}
	frozenAddr := startServer(t, []Slab{slabFor(t, frozen, [2]int{0, split})})
	var addrA, addrB string
	f.srvA, addrA = startGrowingServer(t, f.storeA, split, "")
	f.srvB, addrB = startGrowingServer(t, f.storeB, split, "")
	t.Cleanup(func() { f.srvA.Close(); f.srvB.Close() })
	f.layout = Layout{Classes: classes, Dim: d, Shards: []ShardSpec{
		{Range: [2]int{0, split}, Replicas: []string{frozenAddr}},
		{Range: [2]int{split, classes}, Replicas: []string{addrA, addrB}},
	}}
	rng := rand.New(rand.NewSource(seed + 1))
	x := tensor.New(4, d)
	for i := range x.Data {
		x.Data[i] = rng.Float32()*2 - 1
	}
	f.batch = infer.DenseBatch(x)
	return f
}

// check holds the router's ranking and epoch tag to a fresh engine over
// the oracle store.
func (f *growingFleet) check(t *testing.T, router *Router, wantEpoch uint64) {
	t.Helper()
	ob, err := f.oracle.Backend("float")
	if err != nil {
		t.Fatal(err)
	}
	want, err := infer.New(ob).TryQuery(f.batch, 5)
	if err != nil {
		t.Fatal(err)
	}
	got, epoch, err := router.TryQueryEpoch(f.batch, 5)
	if err != nil {
		t.Fatalf("router at epoch %d: %v", wantEpoch, err)
	}
	if epoch != wantEpoch || !reflect.DeepEqual(got, want) {
		t.Fatalf("ranking at epoch %d (want %d) diverges from the oracle\n got: %+v\nwant: %+v", epoch, wantEpoch, got, want)
	}
}

// sameRecord fails unless both stores hold the same enrollment at epoch.
func sameRecord(t *testing.T, a, b *classmem.Versioned, epoch uint64) {
	t.Helper()
	la, wa, oka := a.EnrolledRecord(epoch)
	lb, wb, okb := b.EnrolledRecord(epoch)
	if !oka || !okb || la != lb || !reflect.DeepEqual(wa, wb) {
		t.Fatalf("epoch %d: records differ: %q (held %v) vs %q (held %v), words equal %v",
			epoch, la, oka, lb, okb, reflect.DeepEqual(wa, wb))
	}
}

// TestRouterEnrollCatchUpAfterRouterRestart: replica B misses epoch 2,
// then the router restarts. The new router holds no record of epoch 2,
// so its next flip must catch B up from A's store: B ends at epoch 3
// with A's record 2, and rankings stay byte-identical to the oracle.
func TestRouterEnrollCatchUpAfterRouterRestart(t *testing.T) {
	f := newGrowingFleet(t, 31)
	rng := rand.New(rand.NewSource(32))
	enroll := func(router *Router, label string, want uint64) {
		t.Helper()
		proto := hdc.NewRandomBinary(rng, f.dim)
		if ep, err := router.Enroll(label, proto); err != nil || ep != want {
			t.Fatalf("enroll %s: epoch %d err %v, want epoch %d", label, ep, err, want)
		}
		if _, err := f.oracle.Enroll(label, proto); err != nil {
			t.Fatal(err)
		}
	}

	first, err := NewRouter(f.layout, RouterConfig{ShardTimeout: 5 * time.Second, DialTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	enroll(first, "one", 1)
	addrB := f.layout.Shards[1].Replicas[1]
	f.srvB.Close()
	enroll(first, "two", 2)
	first.Close()
	if f.storeA.Epoch() != 2 || f.storeB.Epoch() != 1 {
		t.Fatalf("before the restart: A=%d B=%d, want 2/1", f.storeA.Epoch(), f.storeB.Epoch())
	}

	srvB, _ := startGrowingServer(t, f.storeB, f.layout.Shards[1].Range[0], addrB)
	t.Cleanup(func() { srvB.Close() })
	second := newTestRouter(t, f.layout)
	if second.Epoch() != 2 {
		t.Fatalf("restarted router adopted epoch %d, want 2", second.Epoch())
	}
	enroll(second, "three", 3)
	if f.storeA.Epoch() != 3 || f.storeB.Epoch() != 3 {
		t.Fatalf("after the new router's flip 3: A=%d B=%d, want 3/3", f.storeA.Epoch(), f.storeB.Epoch())
	}
	for e := uint64(1); e <= 3; e++ {
		sameRecord(t, f.storeB, f.storeA, e)
	}
	f.check(t, second, 3)

	// B alone now serves epoch 3.
	f.srvA.Close()
	f.check(t, second, 3)
}

// TestRouterEnrollFinishesStagedFlip: an enrollment staged but never
// committed — a router died between prepare and commit — is finished by
// the next router's flip, wherever it was left. Enrolling "fresh" then
// lands at epoch 2 behind "ghost" at epoch 1 on every replica, no
// replica is condemned, and the growing range keeps serving. A leftover
// that is the request itself lands once, at its own epoch.
func TestRouterEnrollFinishesStagedFlip(t *testing.T) {
	for _, tc := range []struct {
		name   string
		stageA bool
		stageB bool
	}{
		{"both", true, true},
		{"first-only", true, false},
		{"second-only", false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newGrowingFleet(t, 41)
			rng := rand.New(rand.NewSource(42))
			ghost := hdc.NewRandomBinary(rng, f.dim)
			for _, st := range []struct {
				on    bool
				store *classmem.Versioned
			}{{tc.stageA, f.storeA}, {tc.stageB, f.storeB}} {
				if st.on {
					if err := st.store.Prepare(1, "ghost", ghost); err != nil {
						t.Fatal(err)
					}
				}
			}
			router := newTestRouter(t, f.layout)

			fresh := hdc.NewRandomBinary(rng, f.dim)
			ep, err := router.Enroll("fresh", fresh)
			if err != nil || ep != 2 {
				t.Fatalf("enroll fresh: epoch %d err %v, want epoch 2", ep, err)
			}
			for _, proto := range []struct {
				label string
				v     *hdc.Binary
			}{{"ghost", ghost}, {"fresh", fresh}} {
				if _, err := f.oracle.Enroll(proto.label, proto.v); err != nil {
					t.Fatal(err)
				}
			}
			for name, store := range map[string]*classmem.Versioned{"A": f.storeA, "B": f.storeB} {
				if store.Epoch() != 2 {
					t.Fatalf("replica %s at epoch %d, want 2", name, store.Epoch())
				}
				sameRecord(t, store, f.oracle, 1)
				sameRecord(t, store, f.oracle, 2)
			}
			if got := router.Label(f.classes); got != "ghost" {
				t.Fatalf("router label of epoch 1's class = %q, want ghost", got)
			}
			f.check(t, router, 2)
			if s := router.Stats(); s.BreakerSkips != 0 {
				t.Fatalf("breaker skips = %d, want 0: a clean refusal condemned a replica", s.BreakerSkips)
			}
		})
	}

	t.Run("retry", func(t *testing.T) {
		f := newGrowingFleet(t, 43)
		proto := hdc.NewRandomBinary(rand.New(rand.NewSource(44)), f.dim)
		if err := f.storeB.Prepare(1, "fresh", proto); err != nil {
			t.Fatal(err)
		}
		router := newTestRouter(t, f.layout)
		if ep, err := router.Enroll("fresh", proto); err != nil || ep != 1 {
			t.Fatalf("retried enroll: epoch %d err %v, want epoch 1", ep, err)
		}
		if _, err := f.oracle.Enroll("fresh", proto); err != nil {
			t.Fatal(err)
		}
		if f.storeA.Epoch() != 1 || f.storeB.Epoch() != 1 {
			t.Fatalf("after the retry: A=%d B=%d, want 1/1", f.storeA.Epoch(), f.storeB.Epoch())
		}
		f.check(t, router, 1)
	})
}
