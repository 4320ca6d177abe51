package repro

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/classmem"
	"repro/internal/dist"
	"repro/internal/infer"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// The multi-process loopback tests are the tentpole acceptance run for
// real: cmd/hdcshard processes rebuild the seed-derived class memory,
// serve their ranges over the binary protocol, and the router's merged
// rankings must be byte-identical to one in-process engine over the
// whole memory — including while a replica is killed mid-stream.

const (
	procClasses = 30
	procDim     = 64
	procSeed    = 7
)

// buildBinary compiles a command into dir and returns the binary path.
func buildBinary(t *testing.T, dir, name string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	out, err := exec.Command("go", "build", "-o", bin, "./cmd/"+name).CombinedOutput()
	if err != nil {
		t.Fatalf("go build ./cmd/%s: %v\n%s", name, err, out)
	}
	return bin
}

// spawnShard starts one hdcshard process serving the given ranges on an
// ephemeral port and returns the process and its bound address, parsed
// from the startup log.
func spawnShard(t *testing.T, bin, ranges string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-range", ranges,
		"-backend", "float",
		"-classes", fmt.Sprint(procClasses),
		"-d", fmt.Sprint(procDim),
		"-seed", fmt.Sprint(procSeed),
		"-workers", "2",
	)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("start %s: %v", bin, err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	})
	addr := awaitListening(t, stderr, "hdcshard")
	return cmd, addr
}

// awaitListening scans a process's log until its "listening on ADDR"
// line appears, then keeps draining the pipe in the background.
func awaitListening(t *testing.T, r io.Reader, proc string) string {
	t.Helper()
	sc := bufio.NewScanner(r)
	deadline := time.Now().Add(30 * time.Second)
	for sc.Scan() {
		line := sc.Text()
		if i := strings.Index(line, "listening on "); i >= 0 {
			go io.Copy(io.Discard, r) //nolint:errcheck // drain so the child never blocks on a full pipe
			return strings.TrimSpace(line[i+len("listening on "):])
		}
		if time.Now().After(deadline) {
			break
		}
	}
	t.Fatalf("%s never reported a listening address", proc)
	return ""
}

// procOracle is the single-process reference: the identical seed-derived
// memory served by one local engine.
func procOracle(t *testing.T) *infer.Engine {
	t.Helper()
	be, err := classmem.Build(procClasses, procDim, procSeed).Backend("float")
	if err != nil {
		t.Fatal(err)
	}
	return infer.New(be)
}

func procBatch(n int) *infer.Batch {
	rng := rand.New(rand.NewSource(99))
	x := tensor.New(n, procDim)
	for i := range x.Data {
		x.Data[i] = rng.Float32()*2 - 1
	}
	return infer.DenseBatch(x)
}

// TestMultiProcessParityAndFailover spawns three single-range hdcshard
// processes plus one multi-slab process replicating every range, routes
// through them, kills a primary mid-stream, and requires byte-identical
// rankings throughout.
func TestMultiProcessParityAndFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	dir := t.TempDir()
	bin := buildBinary(t, dir, "hdcshard")

	ranges := infer.SplitRanges(procClasses, 3)
	primaries := make([]*exec.Cmd, len(ranges))
	layout := dist.Layout{Classes: procClasses, Dim: procDim}

	// The standby replicates all three ranges from one process — the
	// multi-slab path, addressed per-range by slab base over the wire.
	var allRanges []string
	for _, r := range ranges {
		allRanges = append(allRanges, fmt.Sprintf("%d:%d", r[0], r[1]))
	}
	_, standbyAddr := spawnShard(t, bin, strings.Join(allRanges, ","))

	for i, r := range ranges {
		cmd, addr := spawnShard(t, bin, fmt.Sprintf("%d:%d", r[0], r[1]))
		primaries[i] = cmd
		layout.Shards = append(layout.Shards, dist.ShardSpec{Range: r, Replicas: []string{addr, standbyAddr}})
	}

	router, err := dist.NewRouter(layout, dist.RouterConfig{ShardTimeout: 3 * time.Second, DialTimeout: 3 * time.Second})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	defer router.Close()

	oracle := procOracle(t)
	batch := procBatch(6)
	want, err := oracle.TryQuery(batch, 5)
	if err != nil {
		t.Fatal(err)
	}

	const rounds = 24
	for round := 0; round < rounds; round++ {
		if round == rounds/3 {
			// Kill the middle range's primary without warning mid-stream;
			// the router must fail over to the standby's slab.
			if err := primaries[1].Process.Signal(syscall.SIGKILL); err != nil {
				t.Fatal(err)
			}
		}
		got, err := router.TryQuery(batch, 5)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: cross-process ranking diverged from the single-process engine\n got %+v\nwant %+v",
				round, got, want)
		}
	}
	if s := router.Stats(); s.Failovers == 0 {
		t.Fatalf("stats=%+v: expected failovers after SIGKILLing a primary", s)
	}
}

// TestMultiProcessServeRouter runs the full deployment shape: hdcshard
// processes behind an `hdcserve -router` front, queried over HTTP, with
// the response checked hit-for-hit against the single-process engine.
func TestMultiProcessServeRouter(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	dir := t.TempDir()
	shardBin := buildBinary(t, dir, "hdcshard")
	serveBin := buildBinary(t, dir, "hdcserve")

	layout := dist.Layout{Classes: procClasses, Dim: procDim}
	for _, r := range infer.SplitRanges(procClasses, 3) {
		_, addr := spawnShard(t, shardBin, fmt.Sprintf("%d:%d", r[0], r[1]))
		layout.Shards = append(layout.Shards, dist.ShardSpec{Range: r, Replicas: []string{addr}})
	}
	layoutPath := filepath.Join(dir, "shards.json")
	if err := dist.WriteLayout(layoutPath, layout); err != nil {
		t.Fatal(err)
	}

	front := exec.Command(serveBin,
		"-addr", "127.0.0.1:0",
		"-router", layoutPath,
		"-embedder=false",
	)
	stderr, err := front.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := front.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = front.Process.Kill()
		_ = front.Wait()
	})
	frontAddr := awaitListening(t, stderr, "hdcserve")

	oracle := procOracle(t)
	batch := procBatch(1)
	want, err := oracle.TryQuery(batch, 5)
	if err != nil {
		t.Fatal(err)
	}

	body, _ := json.Marshal(serve.ClassifyRequest{K: 5, Embedding: batch.Dense.Row(0)})
	resp, err := http.Post("http://"+frontAddr+"/v1/classify", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, msg)
	}
	var cr serve.ClassifyResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	if cr.Model != "float" {
		t.Fatalf("model=%q, want the shard backend's name", cr.Model)
	}
	if len(cr.TopK) != len(want[0].TopK) {
		t.Fatalf("topk=%d want %d", len(cr.TopK), len(want[0].TopK))
	}
	for i, h := range want[0].TopK {
		got := cr.TopK[i]
		if got.Class != h.Class || got.Label != h.Label || got.Score != h.Score {
			t.Fatalf("hit %d over HTTP: %+v want %+v", i, got, h)
		}
	}
}
