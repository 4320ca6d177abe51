package dist

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/hdc"
	"repro/internal/infer"
	"repro/internal/tensor"
)

// --- loopback fixtures ----------------------------------------------------

func testLabels(classes int) []string {
	labels := make([]string, classes)
	for c := range labels {
		labels[c] = fmt.Sprintf("class-%03d", c)
	}
	return labels
}

// newFloatMemory builds a labeled float backend over a random class
// memory with score collisions forced in (duplicated rows), so the
// merge's tie-break is exercised, not just its happy path.
func newFloatMemory(rng *rand.Rand, classes, d int) *infer.FloatBackend {
	phi := tensor.New(classes, d)
	for i := range phi.Data {
		phi.Data[i] = rng.Float32()*2 - 1
	}
	for c := 3; c < classes; c += 7 {
		copy(phi.Row(c), phi.Row(c-3)) // exact duplicate → exact score tie
	}
	return infer.NewFloatBackend(phi, testLabels(classes), 0.05)
}

// newBinaryMemory builds a labeled packed-binary backend, again with
// duplicated rows for exact Hamming ties.
func newBinaryMemory(rng *rand.Rand, classes, d int) *infer.BinaryBackend {
	mem := hdc.NewItemMemory(d)
	labels := testLabels(classes)
	var prev *hdc.Binary
	for c := 0; c < classes; c++ {
		v := hdc.NewRandomBinary(rng, d)
		if c%5 == 4 && prev != nil {
			v = prev
		}
		mem.Store(labels[c], v)
		prev = v
	}
	return infer.NewBinaryBackend(mem)
}

// startServer serves the slabs on a loopback listener and returns its
// address. Cleanup closes the server.
func startServer(t *testing.T, slabs []Slab) string {
	t.Helper()
	s, err := NewShardServer(slabs)
	if err != nil {
		t.Fatalf("NewShardServer: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go s.Serve(ln)
	t.Cleanup(func() { s.Close() })
	return ln.Addr().String()
}

// slabFor builds the slab a shard process would serve for one class
// range: an engine over a range view of the global backend.
func slabFor(t *testing.T, global infer.Backend, r [2]int) Slab {
	t.Helper()
	eng, err := infer.NewChecked(infer.NewRangeBackend(global, r[0], r[1]))
	if err != nil {
		t.Fatalf("engine for range %v: %v", r, err)
	}
	return Slab{Base: r[0], Engine: eng}
}

// startCluster spins up one single-slab loopback server per range and
// returns the layout routing to them.
func startCluster(t *testing.T, global infer.Backend, classes, dim, shards int) Layout {
	t.Helper()
	l := Layout{Classes: classes, Dim: dim}
	for _, r := range infer.SplitRanges(classes, shards) {
		addr := startServer(t, []Slab{slabFor(t, global, r)})
		l.Shards = append(l.Shards, ShardSpec{Range: r, Replicas: []string{addr}})
	}
	return l
}

func newTestRouter(t *testing.T, l Layout) *Router {
	t.Helper()
	r, err := NewRouter(l, RouterConfig{ShardTimeout: 5 * time.Second, DialTimeout: 5 * time.Second})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	t.Cleanup(r.Close)
	return r
}

// --- the parity contract --------------------------------------------------

// TestRouterParityFloat is the tentpole acceptance: merged rankings from
// the distributed scatter-gather are byte-identical to the
// single-process engine at every shard count — scores, classes, labels,
// and tie order, compared with DeepEqual over the full top-k.
func TestRouterParityFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const classes, d, probes = 97, 64, 9
	backend := newFloatMemory(rng, classes, d)
	oracle := infer.New(backend)
	x := tensor.New(probes, d)
	for i := range x.Data {
		x.Data[i] = rng.Float32()*2 - 1
	}
	batch := infer.DenseBatch(x)
	for _, shards := range []int{1, 2, 4, 8} {
		router := newTestRouter(t, startCluster(t, backend, classes, d, shards))
		for _, k := range []int{1, 3, 10, classes + 5} {
			want, err := oracle.TryQuery(batch, k)
			if err != nil {
				t.Fatalf("oracle k=%d: %v", k, err)
			}
			got, err := router.TryQuery(batch, k)
			if err != nil {
				t.Fatalf("router shards=%d k=%d: %v", shards, k, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("shards=%d k=%d: distributed ranking diverges from the single-process engine\n got: %+v\nwant: %+v",
					shards, k, got, want)
			}
		}
	}
}

// TestRouterParityBinary covers the packed Hamming path: exact integer
// distances, probes shipped as raw words.
func TestRouterParityBinary(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const classes, d, probes = 60, 256, 7
	backend := newBinaryMemory(rng, classes, d)
	oracle := infer.New(backend)
	vs := make([]*hdc.Binary, probes)
	for i := range vs {
		vs[i] = hdc.NewRandomBinary(rng, d)
	}
	batch := infer.PackedBatch(vs)
	for _, shards := range []int{1, 3, 6} {
		router := newTestRouter(t, startCluster(t, backend, classes, d, shards))
		for _, k := range []int{1, 5, classes} {
			want, _ := oracle.TryQuery(batch, k)
			got, err := router.TryQuery(batch, k)
			if err != nil {
				t.Fatalf("router shards=%d k=%d: %v", shards, k, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("shards=%d k=%d: packed ranking diverges from the single-process engine", shards, k)
			}
		}
	}
}

// TestRouterParityMultiSlabServers interleaves four ranges across two
// server processes (even ranges on one, odd on the other), so query
// frames must address slabs by base and replies must offset correctly.
func TestRouterParityMultiSlabServers(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const classes, d = 50, 48
	backend := newFloatMemory(rng, classes, d)
	oracle := infer.New(backend)
	ranges := infer.SplitRanges(classes, 4)
	var even, odd []Slab
	for i, r := range ranges {
		if i%2 == 0 {
			even = append(even, slabFor(t, backend, r))
		} else {
			odd = append(odd, slabFor(t, backend, r))
		}
	}
	addrEven, addrOdd := startServer(t, even), startServer(t, odd)
	l := Layout{Classes: classes, Dim: d}
	for i, r := range ranges {
		addr := addrEven
		if i%2 == 1 {
			addr = addrOdd
		}
		l.Shards = append(l.Shards, ShardSpec{Range: r, Replicas: []string{addr}})
	}
	router := newTestRouter(t, l)
	x := tensor.New(5, d)
	for i := range x.Data {
		x.Data[i] = rng.Float32()*2 - 1
	}
	batch := infer.DenseBatch(x)
	want, _ := oracle.TryQuery(batch, 7)
	got, err := router.TryQuery(batch, 7)
	if err != nil {
		t.Fatalf("router: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("multi-slab routing diverges from the single-process engine")
	}
}

// TestRouterParityConcurrent hammers one router from many goroutines —
// the pooled scratch and pipelined connections must keep every caller's
// results isolated and correct.
func TestRouterParityConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	const classes, d = 64, 32
	backend := newFloatMemory(rng, classes, d)
	oracle := infer.New(backend)
	router := newTestRouter(t, startCluster(t, backend, classes, d, 4))
	const callers, rounds = 8, 25
	batches := make([]*infer.Batch, callers)
	wants := make([][]infer.Result, callers)
	for c := range batches {
		x := tensor.New(3, d)
		for i := range x.Data {
			x.Data[i] = rng.Float32()*2 - 1
		}
		batches[c] = infer.DenseBatch(x)
		wants[c], _ = oracle.TryQuery(batches[c], 5)
	}
	var wg sync.WaitGroup
	errc := make(chan error, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				got, err := router.TryQuery(batches[c], 5)
				if err != nil {
					errc <- err
					return
				}
				if !reflect.DeepEqual(got, wants[c]) {
					errc <- fmt.Errorf("caller %d round %d: result diverged", c, r)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errc)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

// --- failover --------------------------------------------------------------

// TestRouterFailoverMidStream runs two full replicas of every range,
// kills the preferred one mid-stream, and requires every query — before,
// during, and after the kill — to succeed with results identical to the
// single-process engine.
func TestRouterFailoverMidStream(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	const classes, d = 40, 32
	backend := newFloatMemory(rng, classes, d)
	oracle := infer.New(backend)
	ranges := infer.SplitRanges(classes, 2)

	serverOf := func() (*ShardServer, string) {
		var slabs []Slab
		for _, r := range ranges {
			slabs = append(slabs, slabFor(t, backend, r))
		}
		s, err := NewShardServer(slabs)
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go s.Serve(ln)
		t.Cleanup(func() { s.Close() })
		return s, ln.Addr().String()
	}
	primary, addrA := serverOf()
	_, addrB := serverOf()

	l := Layout{Classes: classes, Dim: d}
	for _, r := range ranges {
		l.Shards = append(l.Shards, ShardSpec{Range: r, Replicas: []string{addrA, addrB}})
	}
	router, err := NewRouter(l, RouterConfig{ShardTimeout: 2 * time.Second, DialTimeout: 2 * time.Second})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	defer router.Close()

	x := tensor.New(4, d)
	for i := range x.Data {
		x.Data[i] = rng.Float32()*2 - 1
	}
	batch := infer.DenseBatch(x)
	want, _ := oracle.TryQuery(batch, 6)

	const rounds = 30
	for r := 0; r < rounds; r++ {
		if r == rounds/3 {
			primary.Close() // mid-stream kill of the preferred replica
		}
		got, err := router.TryQuery(batch, 6)
		if err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: ranking diverged after failover", r)
		}
	}
	if s := router.Stats(); s.Failovers == 0 {
		t.Fatalf("stats=%+v: expected failovers after killing the preferred replica", s)
	}
}

// TestRouterAllReplicasDown verifies the completeness guarantee: a shard
// range with no live replica fails the query with ErrShardDown rather
// than returning a silently truncated ranking.
func TestRouterAllReplicasDown(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	const classes, d = 20, 16
	backend := newFloatMemory(rng, classes, d)
	ranges := infer.SplitRanges(classes, 2)
	servers := make([]*ShardServer, 0, 2)
	l := Layout{Classes: classes, Dim: d}
	for _, r := range ranges {
		s, err := NewShardServer([]Slab{slabFor(t, backend, r)})
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go s.Serve(ln)
		t.Cleanup(func() { s.Close() })
		servers = append(servers, s)
		l.Shards = append(l.Shards, ShardSpec{Range: r, Replicas: []string{ln.Addr().String()}})
	}
	router, err := NewRouter(l, RouterConfig{ShardTimeout: time.Second, DialTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	servers[1].Close()

	x := tensor.New(1, d)
	batch := infer.DenseBatch(x)
	if _, err := router.TryQuery(batch, 3); !errors.Is(err, ErrShardDown) {
		t.Fatalf("query with a dead shard: err=%v, want ErrShardDown", err)
	}
}

// TestRouterRejectsBadQueries pins the validation boundary.
func TestRouterRejectsBadQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const classes, d = 16, 8
	backend := newFloatMemory(rng, classes, d)
	router := newTestRouter(t, startCluster(t, backend, classes, d, 2))
	good := infer.DenseBatch(tensor.New(1, d))
	if _, err := router.TryQuery(good, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := router.TryQuery(infer.DenseBatch(tensor.New(1, d+1)), 1); err == nil {
		t.Fatal("dim mismatch accepted")
	}
	if _, err := router.TryQuery(infer.PackedBatch([]*hdc.Binary{hdc.NewRandomBinary(rng, d)}), 1); err == nil {
		t.Fatal("packed-only batch accepted by a dense-probe layout")
	}
	if res, err := router.TryQuery(&infer.Batch{}, 1); err != nil || res != nil {
		t.Fatalf("empty batch: res=%v err=%v, want nil/nil", res, err)
	}
}

// TestRouterRejectsLayoutMismatch pins the handshake validation: a
// layout whose geometry contradicts what the shards actually serve must
// fail construction, not mis-rank.
func TestRouterRejectsLayoutMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	const classes, d = 20, 16
	backend := newFloatMemory(rng, classes, d)
	addr := startServer(t, []Slab{slabFor(t, backend, [2]int{0, 20})})
	wrongDim := Layout{Classes: classes, Dim: d + 8, Shards: []ShardSpec{{Range: [2]int{0, 20}, Replicas: []string{addr}}}}
	if _, err := NewRouter(wrongDim, RouterConfig{DialTimeout: time.Second}); !errors.Is(err, ErrLayout) {
		t.Fatalf("dim-contradicting layout: err=%v, want ErrLayout", err)
	}
	wrongBase := Layout{Classes: 30, Dim: d, Shards: []ShardSpec{
		{Range: [2]int{0, 10}, Replicas: []string{addr}},
		{Range: [2]int{10, 30}, Replicas: []string{addr}},
	}}
	if _, err := NewRouter(wrongBase, RouterConfig{DialTimeout: time.Second}); !errors.Is(err, ErrLayout) {
		t.Fatalf("slab-contradicting layout: err=%v, want ErrLayout", err)
	}
}

func TestLayoutValidateRejectsBrokenCover(t *testing.T) {
	cases := []struct {
		name string
		l    Layout
	}{
		{"gap", Layout{Classes: 10, Dim: 4, Shards: []ShardSpec{
			{Range: [2]int{0, 4}, Replicas: []string{"a"}},
			{Range: [2]int{5, 10}, Replicas: []string{"a"}}}}},
		{"overlap", Layout{Classes: 10, Dim: 4, Shards: []ShardSpec{
			{Range: [2]int{0, 6}, Replicas: []string{"a"}},
			{Range: [2]int{5, 10}, Replicas: []string{"a"}}}}},
		{"short", Layout{Classes: 10, Dim: 4, Shards: []ShardSpec{
			{Range: [2]int{0, 9}, Replicas: []string{"a"}}}}},
		{"no replicas", Layout{Classes: 10, Dim: 4, Shards: []ShardSpec{
			{Range: [2]int{0, 10}}}}},
		{"empty", Layout{Classes: 10, Dim: 4}},
	}
	for _, tc := range cases {
		if err := tc.l.Validate(); !errors.Is(err, ErrLayout) {
			t.Errorf("%s: Validate()=%v, want ErrLayout", tc.name, err)
		}
	}
}

func TestLayoutFileRoundTrip(t *testing.T) {
	l := Layout{Model: "m", Classes: 50, Dim: 16, Shards: []ShardSpec{
		{Range: [2]int{0, 17}, Replicas: []string{"h1:1", "h2:2"}},
		{Range: [2]int{17, 34}, Replicas: []string{"h2:2", "h1:1"}},
		{Range: [2]int{34, 50}, Replicas: []string{"h1:1"}},
	}}
	path := filepath.Join(t.TempDir(), "shards.json")
	if err := WriteLayout(path, l); err != nil {
		t.Fatalf("WriteLayout: %v", err)
	}
	got, err := LoadLayout(path)
	if err != nil {
		t.Fatalf("LoadLayout: %v", err)
	}
	if !reflect.DeepEqual(got, l) {
		t.Fatalf("layout round trip diverged:\n got %+v\nwant %+v", got, l)
	}
}
