package repro

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/classmem"
	"repro/internal/dist"
	"repro/internal/hdc"
	"repro/internal/infer"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// The live-enrollment acceptance run: classes are enrolled into real
// serving processes while open-loop classify traffic flows, the durable
// process is SIGKILLed mid-stream and restarted from its WAL, and every
// accepted ranking must be byte-identical to a lockstep-enrolled
// single-process oracle AT THE EPOCH THE RESPONSE IS TAGGED WITH — the
// paper's frozen-memory readout guarantee extended to a memory that
// grows under fire.

const (
	enrollChaosProbes = 8
	enrollChaosK      = 3
)

// enrollOracle mirrors the server's class memory in-process. Every
// epoch's expected rankings are computed and recorded BEFORE the
// matching POST /v1/enroll is sent, so a concurrent classify response
// tagged with epoch e always finds wants[e] populated — the server
// cannot publish e before the request that creates it.
type enrollOracle struct {
	t     *testing.T
	store *classmem.Versioned
	batch *infer.Batch
	mu    sync.Mutex
	wants map[uint64][]infer.Result
}

func newEnrollOracle(t *testing.T, classes, dim int, seed int64, x *tensor.Tensor) *enrollOracle {
	t.Helper()
	o := &enrollOracle{
		t:     t,
		store: classmem.NewVersioned(classes, dim, seed),
		batch: infer.DenseBatch(x),
		wants: make(map[uint64][]infer.Result),
	}
	o.snap(0)
	return o
}

// snap records the oracle's expected rankings for one published epoch.
func (o *enrollOracle) snap(epoch uint64) {
	o.t.Helper()
	be, err := o.store.Backend("float")
	if err != nil {
		o.t.Fatal(err)
	}
	want, err := infer.New(be).TryQuery(o.batch, enrollChaosK)
	if err != nil {
		o.t.Fatal(err)
	}
	o.mu.Lock()
	o.wants[epoch] = want
	o.mu.Unlock()
}

// stage enrolls the next class into the oracle — the identical
// sign-packed prototype the server will derive from the same dense
// vector — and returns the label and vector for the HTTP request.
func (o *enrollOracle) stage(epoch uint64) (string, []float32) {
	o.t.Helper()
	label := fmt.Sprintf("fresh-%03d", epoch)
	vec := enrollChaosVec(epoch, o.store.Dim())
	bp := make(hdc.Bipolar, len(vec))
	for i, v := range vec {
		if v < 0 {
			bp[i] = -1
		} else {
			bp[i] = 1
		}
	}
	got, err := o.store.Enroll(label, hdc.FromBipolar(bp))
	if err != nil {
		o.t.Fatalf("oracle enroll %q: %v", label, err)
	}
	if got != epoch {
		o.t.Fatalf("oracle enroll published epoch %d, want %d", got, epoch)
	}
	o.snap(epoch)
	return label, vec
}

func (o *enrollOracle) want(epoch uint64) ([]infer.Result, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	w, ok := o.wants[epoch]
	return w, ok
}

// enrollChaosVec derives one deterministic dense prototype per epoch —
// same LCG family as fillChaosProbes, keyed by the epoch so oracle and
// HTTP body agree without sharing an rng.
func enrollChaosVec(epoch uint64, dim int) []float32 {
	state := epoch*0x9e3779b97f4a7c15 + 0x51ed2701
	vec := make([]float32, dim)
	for i := range vec {
		state = state*6364136223846793005 + 1442695040888963407
		vec[i] = float32(int32(state>>33)) / float32(1<<31)
	}
	return vec
}

// classifyEpochCheck POSTs probe p and verifies the ranking against the
// oracle at the epoch the response is tagged with. pin ≥ 0 additionally
// requires the response to be tagged with exactly that epoch (the
// post-restart "WAL replayed to here" assertion).
func classifyEpochCheck(addr string, body []byte, orc *enrollOracle, p int, pin int64) error {
	resp, err := http.Post("http://"+addr+"/v1/classify", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("probe %d: status %d: %s", p, resp.StatusCode, msg)
	}
	var cr serve.ClassifyResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		return err
	}
	if pin >= 0 && cr.Epoch != uint64(pin) {
		return fmt.Errorf("probe %d: tagged epoch %d, want %d", p, cr.Epoch, pin)
	}
	want, ok := orc.want(cr.Epoch)
	if !ok {
		return fmt.Errorf("probe %d: tagged with never-published epoch %d (epoch mixing)", p, cr.Epoch)
	}
	wp := want[p].TopK
	if len(cr.TopK) != len(wp) {
		return fmt.Errorf("probe %d at epoch %d: %d hits, want %d", p, cr.Epoch, len(cr.TopK), len(wp))
	}
	for i, h := range wp {
		got := cr.TopK[i]
		if got.Class != h.Class || got.Label != h.Label || got.Score != h.Score {
			return fmt.Errorf("probe %d at epoch %d hit %d: %+v, want %+v", p, cr.Epoch, i, got, h)
		}
	}
	return nil
}

// enrollHTTP stages one class in the oracle, then enrolls it over HTTP
// and requires the server to ack at the same epoch.
func enrollHTTP(t *testing.T, addr string, orc *enrollOracle, epoch uint64) {
	t.Helper()
	label, vec := orc.stage(epoch)
	body, _ := json.Marshal(serve.EnrollRequest{Label: label, Vector: vec})
	resp, err := http.Post("http://"+addr+"/v1/enroll", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("enroll epoch %d: %v", epoch, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("enroll epoch %d: status %d: %s", epoch, resp.StatusCode, msg)
	}
	var er serve.EnrollResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	if er.Epoch != epoch {
		t.Fatalf("enroll %q acked at epoch %d, want %d", label, er.Epoch, epoch)
	}
}

// enrollTraffic runs open-loop classify workers verifying every
// response against the oracle at its tagged epoch.
type enrollTraffic struct {
	stop   chan struct{}
	errs   chan error
	wg     sync.WaitGroup
	served atomic.Int64
}

// startEnrollTraffic spawns the workers. Once tolerate is set (just
// before a SIGKILL), request errors end the worker quietly instead of
// failing the test — the process they talk to is gone on purpose.
func startEnrollTraffic(workers int, do func(p int) error, tolerate *atomic.Bool) *enrollTraffic {
	c := &enrollTraffic{stop: make(chan struct{}), errs: make(chan error, workers)}
	for w := 0; w < workers; w++ {
		c.wg.Add(1)
		go func(w int) {
			defer c.wg.Done()
			for i := 0; ; i++ {
				select {
				case <-c.stop:
					return
				default:
				}
				if err := do((w*7 + i) % enrollChaosProbes); err != nil {
					if tolerate != nil && tolerate.Load() {
						return
					}
					c.errs <- err
					return
				}
				c.served.Add(1)
			}
		}(w)
	}
	return c
}

func (c *enrollTraffic) halt(t *testing.T, phase string) {
	t.Helper()
	close(c.stop)
	c.wg.Wait()
	close(c.errs)
	for err := range c.errs {
		t.Fatalf("%s: %v", phase, err)
	}
	if c.served.Load() == 0 {
		t.Fatalf("%s: traffic served nothing", phase)
	}
}

// getEnrollStats reads one model's enrollment gauges from GET /stats.
func getEnrollStats(t *testing.T, addr, model string) (epoch, enrolled uint64) {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var s struct {
		Models map[string]struct {
			Epoch         uint64 `json:"epoch"`
			EnrolledTotal uint64 `json:"enrolled_total"`
		} `json:"models"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		t.Fatal(err)
	}
	m, ok := s.Models[model]
	if !ok {
		t.Fatalf("/stats has no model %q", model)
	}
	return m.Epoch, m.EnrolledTotal
}

// TestEnrollChaosSingleProcess enrolls into a WAL-backed hdcserve under
// live classify traffic, SIGKILLs the process without warning, restarts
// it from the same WAL directory, and requires the replayed memory to
// serve rankings byte-identical to the oracle at the replayed epoch —
// then keeps enrolling to prove the store picked up exactly where the
// WAL ends.
func TestEnrollChaosSingleProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	const (
		classes = 48
		dim     = 256
		seed    = 7
	)
	dir := t.TempDir()
	bin := buildBinary(t, dir, "hdcserve")
	wal := filepath.Join(dir, "wal")
	args := []string{
		"-addr", "127.0.0.1:0",
		"-backends", "float",
		"-embedder=false",
		"-classes", fmt.Sprint(classes),
		"-d", fmt.Sprint(dim),
		"-seed", fmt.Sprint(seed),
		"-workers", "2",
		"-max-batch", "8",
		"-wal", wal,
		// Small so the kill/restart cycle crosses a compaction: the
		// restart replays snapshot + WAL tail, not just a log.
		"-snapshot-every", "4",
	}
	spawn := func() (*exec.Cmd, string, *bool) {
		cmd := exec.Command(bin, args...)
		stderr, err := cmd.StderrPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		exited := new(bool)
		t.Cleanup(func() {
			if !*exited {
				_ = cmd.Process.Kill()
				_ = cmd.Wait()
			}
		})
		return cmd, awaitListening(t, stderr, "hdcserve"), exited
	}

	x := tensor.New(enrollChaosProbes, dim)
	fillChaosProbes(x)
	orc := newEnrollOracle(t, classes, dim, seed, x)
	bodies := make([][]byte, enrollChaosProbes)
	for p := range bodies {
		bodies[p], _ = json.Marshal(serve.ClassifyRequest{Model: "float", K: enrollChaosK, Embedding: x.Row(p)})
	}

	front, addr, exited := spawn()

	// Frozen baseline: every probe parity-checked at epoch 0.
	for p := range bodies {
		if err := classifyEpochCheck(addr, bodies[p], orc, p, 0); err != nil {
			t.Fatalf("pre-enroll: %v", err)
		}
	}

	// Phase 1: enroll under open-loop traffic. Workers verify each
	// response against the oracle at its tagged epoch, so rankings from
	// engines swapped mid-flight must still be self-consistent.
	var tolerate atomic.Bool
	traffic := startEnrollTraffic(4, func(p int) error {
		return classifyEpochCheck(addr, bodies[p], orc, p, -1)
	}, &tolerate)
	const preKill = 6
	for e := uint64(1); e <= preKill; e++ {
		enrollHTTP(t, addr, orc, e)
		time.Sleep(20 * time.Millisecond)
	}
	time.Sleep(100 * time.Millisecond)

	// Phase 2: SIGKILL mid-stream — no drain, no fsync beyond what the
	// enroll acks already forced. The WAL is the only survivor.
	tolerate.Store(true)
	if err := front.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = front.Wait()
	*exited = true
	traffic.halt(t, "pre-kill traffic")

	// Phase 3: restart from the same WAL directory. The store must
	// replay to exactly the last acked epoch and serve rankings
	// byte-identical to the oracle there.
	_, addr2, _ := spawn()
	epoch, enrolled := getEnrollStats(t, addr2, "float")
	if epoch != preKill || enrolled != preKill {
		t.Fatalf("after WAL replay: epoch=%d enrolled=%d, want %d", epoch, enrolled, preKill)
	}
	for p := range bodies {
		if err := classifyEpochCheck(addr2, bodies[p], orc, p, preKill); err != nil {
			t.Fatalf("post-restart: %v", err)
		}
	}

	// Phase 4: the replayed store keeps enrolling — epochs continue from
	// the WAL's end, under traffic again.
	var tolerate2 atomic.Bool
	traffic2 := startEnrollTraffic(4, func(p int) error {
		return classifyEpochCheck(addr2, bodies[p], orc, p, -1)
	}, &tolerate2)
	for e := uint64(preKill + 1); e <= preKill+2; e++ {
		enrollHTTP(t, addr2, orc, e)
		time.Sleep(20 * time.Millisecond)
	}
	traffic2.halt(t, "post-restart traffic")
	for p := range bodies {
		if err := classifyEpochCheck(addr2, bodies[p], orc, p, preKill+2); err != nil {
			t.Fatalf("final sweep: %v", err)
		}
	}
}

// TestEnrollChaosDistributed runs the full cluster shape — a frozen
// range plus a two-replica growing range behind `hdcserve -router` —
// enrolls through the router's two-phase epoch flip under traffic,
// SIGKILLs one growing replica mid-stream, restarts it from its WAL,
// drives it back in sync through the router's catch-up from its peer's
// store, then
// kills the OTHER replica so the recovered one alone must serve the
// latest epoch byte-identically to the oracle.
func TestEnrollChaosDistributed(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	const (
		classes = 24
		dim     = 128
		seed    = 7
		split   = 12
	)
	dir := t.TempDir()
	shardBin := buildBinary(t, dir, "hdcshard")
	serveBin := buildBinary(t, dir, "hdcserve")

	spawnGrow := func(addr, wal string) (*exec.Cmd, string, *bool) {
		cmd := exec.Command(shardBin,
			"-addr", addr,
			"-range", fmt.Sprintf("%d:%d", split, classes),
			"-backend", "float",
			"-classes", fmt.Sprint(classes),
			"-d", fmt.Sprint(dim),
			"-seed", fmt.Sprint(seed),
			"-workers", "2",
			"-wal", wal,
			"-snapshot-every", "4",
		)
		stderr, err := cmd.StderrPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		exited := new(bool)
		t.Cleanup(func() {
			if !*exited {
				_ = cmd.Process.Kill()
				_ = cmd.Wait()
			}
		})
		return cmd, awaitListening(t, stderr, "hdcshard"), exited
	}

	frozen := exec.Command(shardBin,
		"-addr", "127.0.0.1:0",
		"-range", fmt.Sprintf("0:%d", split),
		"-backend", "float",
		"-classes", fmt.Sprint(classes),
		"-d", fmt.Sprint(dim),
		"-seed", fmt.Sprint(seed),
		"-workers", "2",
	)
	frozenErr, err := frozen.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := frozen.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = frozen.Process.Kill()
		_ = frozen.Wait()
	})
	frozenAddr := awaitListening(t, frozenErr, "hdcshard")

	walA := filepath.Join(dir, "wal-a")
	walB := filepath.Join(dir, "wal-b")
	repA, addrA, exitedA := spawnGrow("127.0.0.1:0", walA)
	repB, addrB, exitedB := spawnGrow("127.0.0.1:0", walB)

	layout := dist.Layout{Classes: classes, Dim: dim, Shards: []dist.ShardSpec{
		{Range: [2]int{0, split}, Replicas: []string{frozenAddr}},
		{Range: [2]int{split, classes}, Replicas: []string{addrA, addrB}},
	}}
	layoutPath := filepath.Join(dir, "shards.json")
	if err := dist.WriteLayout(layoutPath, layout); err != nil {
		t.Fatal(err)
	}

	front := exec.Command(serveBin,
		"-addr", "127.0.0.1:0",
		"-router", layoutPath,
		"-embedder=false",
		"-max-batch", "8",
		"-shard-timeout", "500ms",
	)
	frontErr, err := front.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := front.Start(); err != nil {
		t.Fatal(err)
	}
	frontExited := false
	t.Cleanup(func() {
		if !frontExited {
			_ = front.Process.Kill()
			_ = front.Wait()
		}
	})
	addr := awaitListening(t, frontErr, "hdcserve")

	x := tensor.New(enrollChaosProbes, dim)
	fillChaosProbes(x)
	orc := newEnrollOracle(t, classes, dim, seed, x)
	bodies := make([][]byte, enrollChaosProbes)
	for p := range bodies {
		bodies[p], _ = json.Marshal(serve.ClassifyRequest{K: enrollChaosK, Embedding: x.Row(p)})
	}

	// pollA reads replica A's committed epoch straight off its info
	// frame (via a throwaway single-replica router), bypassing the
	// front — the observation point for "has the catch-up landed on the
	// restarted replica".
	pollA := func() (uint64, bool) {
		lay := dist.Layout{Classes: classes, Dim: dim, Shards: []dist.ShardSpec{
			{Range: [2]int{0, split}, Replicas: []string{frozenAddr}},
			{Range: [2]int{split, classes}, Replicas: []string{addrA}},
		}}
		r, err := dist.NewRouter(lay, dist.RouterConfig{ShardTimeout: time.Second, DialTimeout: time.Second})
		if err != nil {
			return 0, false
		}
		defer r.Close()
		return r.Epoch(), true
	}

	for p := range bodies {
		if err := classifyEpochCheck(addr, bodies[p], orc, p, 0); err != nil {
			t.Fatalf("pre-enroll: %v", err)
		}
	}

	// Phase 1: enroll through the two-phase flip with both replicas up,
	// classify traffic verifying epoch-tagged parity throughout.
	traffic := startEnrollTraffic(3, func(p int) error {
		return classifyEpochCheck(addr, bodies[p], orc, p, -1)
	}, nil)
	epoch := uint64(0)
	for i := 0; i < 3; i++ {
		epoch++
		enrollHTTP(t, addr, orc, epoch)
		time.Sleep(20 * time.Millisecond)
	}

	// Phase 2: SIGKILL replica A mid-stream. Queries fail over to B;
	// enrollment continues on a quorum of one, so A misses epochs it
	// will have to catch up on.
	if err := repA.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = repA.Wait()
	*exitedA = true
	for i := 0; i < 2; i++ {
		epoch++
		enrollHTTP(t, addr, orc, epoch)
		time.Sleep(20 * time.Millisecond)
	}
	time.Sleep(100 * time.Millisecond)
	traffic.halt(t, "failover traffic")

	// Phase 3: restart A on the same address from its WAL — it replays
	// to the epoch it died at, behind the cluster. Each new enrollment
	// offers the router a chance to re-admit it (the circuit breaker's
	// half-open probe) and catch it up with the missed epochs read from
	// B's store; keep enrolling until A's committed epoch catches the
	// cluster's.
	_, _, _ = spawnGrow(addrA, walA)
	deadline := time.Now().Add(20 * time.Second)
	for {
		epoch++
		enrollHTTP(t, addr, orc, epoch)
		if got, ok := pollA(); ok && got == epoch {
			break
		}
		if time.Now().After(deadline) {
			got, ok := pollA()
			t.Fatalf("replica A never caught up: at epoch %d (reachable=%v), cluster at %d", got, ok, epoch)
		}
		time.Sleep(150 * time.Millisecond)
	}

	// Phase 4: kill the replica that never failed. The recovered A is
	// now the only growing replica — its WAL-replayed, catch-up-driven
	// state must serve the latest epoch byte-identically to the oracle.
	if err := repB.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = repB.Wait()
	*exitedB = true
	for p := range bodies {
		if err := classifyEpochCheck(addr, bodies[p], orc, p, int64(epoch)); err != nil {
			t.Fatalf("recovered-replica sweep: %v", err)
		}
	}
	if got, _ := getEnrollStats(t, addr, "float"); got != epoch {
		t.Fatalf("/stats epoch=%d, want %d", got, epoch)
	}

	// Phase 5: graceful front drain.
	if err := front.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waitErr := make(chan error, 1)
	go func() { waitErr <- front.Wait() }()
	select {
	case err := <-waitErr:
		frontExited = true
		if err != nil {
			t.Fatalf("hdcserve did not exit cleanly on SIGTERM: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("hdcserve did not exit within 15s of SIGTERM")
	}
}
