package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/dist"
)

// child is one server process of the fleet under test.
type child struct {
	name string
	cmd  *exec.Cmd
	addr string // bound address parsed from the "listening on" log line
	done chan struct{}

	mu   sync.Mutex
	tail []string // last log lines, for error reports
}

const startTimeout = 60 * time.Second

// startChild launches bin and returns once its log reports the bound
// address (servers are started on 127.0.0.1:0). The child dies with the
// context, and with this process should it be killed outright.
func startChild(ctx context.Context, bin string, args ...string) (*child, error) {
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	c := &child{name: filepath.Base(bin), cmd: cmd, done: make(chan struct{})}
	listening := make(chan string, 1)
	go func() {
		defer close(c.done)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			c.mu.Lock()
			c.tail = append(c.tail, line)
			if len(c.tail) > 20 {
				c.tail = c.tail[1:]
			}
			c.mu.Unlock()
			if _, addr, ok := strings.Cut(line, "listening on "); ok {
				select {
				case listening <- strings.TrimSpace(addr):
				default:
				}
			}
		}
		_ = cmd.Wait() // exit status is irrelevant: stop() signals the child itself
	}()
	select {
	case c.addr = <-listening:
		return c, nil
	case <-c.done:
		return nil, fmt.Errorf("%s exited before listening:\n%s", c.name, c.logTail())
	case <-time.After(startTimeout):
		c.stop()
		return nil, fmt.Errorf("%s did not report a listening address within %v:\n%s", c.name, startTimeout, c.logTail())
	}
}

func (c *child) logTail() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return strings.Join(c.tail, "\n")
}

// stop asks the child to shut down, waits for it, and kills it if the
// drain outlasts a few seconds. It returns only once the process has
// been reaped.
func (c *child) stop() {
	_ = c.cmd.Process.Signal(syscall.SIGTERM) // already-exited is fine
	select {
	case <-c.done:
	case <-time.After(5 * time.Second):
		_ = c.cmd.Process.Kill()
		<-c.done
	}
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is
// 100 on every Linux port Go supports.
const clockTick = 100

// cpuSeconds is the child's user+system CPU time so far.
func (c *child) cpuSeconds() (float64, error) { return procCPUSeconds(c.cmd.Process.Pid) }

func procCPUSeconds(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields resume
	// after the closing parenthesis.
	_, rest, ok := strings.Cut(string(raw), ") ")
	if !ok {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	f := strings.Fields(rest) // f[0] is field 3 (state); utime, stime are fields 14, 15
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: %d fields", pid, len(f))
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return (utime + stime) / clockTick, nil
}

// peakRSSMB is the process's high-water resident set (VmHWM).
func peakRSSMB(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmHWM", pid)
}

// fleet is the set of processes one serving workload runs against;
// front is the hdcserve the generator talks to.
type fleet struct {
	front    *child
	children []*child
	dir      string // WAL and layout files; removed on stop
}

// binaries locates the server binaries run.sh built next to hdcbench.
type binaries struct{ serve, shard string }

func findBinaries() (binaries, error) {
	self, err := os.Executable()
	if err != nil {
		return binaries{}, err
	}
	b := binaries{
		serve: filepath.Join(filepath.Dir(self), "hdcserve"),
		shard: filepath.Join(filepath.Dir(self), "hdcshard"),
	}
	for _, p := range []string{b.serve, b.shard} {
		if _, err := os.Stat(p); err != nil {
			return binaries{}, fmt.Errorf("server binary missing (benchmark/run.sh builds it): %w", err)
		}
	}
	return b, nil
}

// startFleet brings up the workload's processes and returns once
// hdcserve answers /readyz; the elapsed time is one setup_s sample.
func startFleet(ctx context.Context, bins binaries, w workload) (*fleet, time.Duration, error) {
	dir, err := os.MkdirTemp("", "hdcbench-"+w.name+"-")
	if err != nil {
		return nil, 0, err
	}
	f := &fleet{dir: dir}
	begin := time.Now()
	ok := false
	defer func() {
		if !ok {
			f.stop()
		}
	}()

	args := []string{"-addr", "127.0.0.1:0", "-seed", strconv.Itoa(serverSeed)}
	if w.routed {
		layout, err := f.startShards(ctx, bins, w)
		if err != nil {
			return nil, 0, err
		}
		path := filepath.Join(dir, "shards.json")
		if err := dist.WriteLayout(path, layout); err != nil {
			return nil, 0, err
		}
		args = append(args, "-router", path, "-embedder=false")
	} else {
		args = append(args, "-classes", strconv.Itoa(w.classes), "-d", strconv.Itoa(probeDim))
		if w.backends != "" {
			args = append(args, "-backends", w.backends)
		}
		if w.wal {
			args = append(args, "-wal", filepath.Join(dir, "wal"), "-snapshot-every", "64")
		}
		if w.embedder != "" {
			args = append(args, "-embed-img", strconv.Itoa(w.embedImg), "-embed-width", strconv.Itoa(w.embedWidth))
		} else {
			args = append(args, "-embedder=false")
		}
	}
	f.front, err = startChild(ctx, bins.serve, args...)
	if err != nil {
		return nil, 0, err
	}
	f.children = append(f.children, f.front)
	if err := awaitReady(f.front.addr); err != nil {
		return nil, 0, fmt.Errorf("%w\n%s", err, f.front.logTail())
	}
	ok = true
	return f, time.Since(begin), nil
}

// startShards launches the two shard processes side by side (set-up
// waits for the slower) and returns the layout that routes to them. The
// layout is written directly instead of through `hdcshard
// -write-layout`: ring placement hashes node addresses, and with
// ephemeral ports it could put both ranges on one process.
func (f *fleet) startShards(ctx context.Context, bins binaries, w workload) (dist.Layout, error) {
	half := w.classes / 2
	ranges := [][2]int{{0, half}, {half, w.classes}}
	started := make([]*child, len(ranges))
	errs := make([]error, len(ranges))
	var wg sync.WaitGroup
	for i, r := range ranges {
		wg.Add(1)
		go func() {
			defer wg.Done()
			started[i], errs[i] = startChild(ctx, bins.shard,
				"-addr", "127.0.0.1:0", "-backend", w.model, "-seed", strconv.Itoa(serverSeed),
				"-classes", strconv.Itoa(w.classes), "-d", strconv.Itoa(probeDim),
				"-range", fmt.Sprintf("%d:%d", r[0], r[1]))
		}()
	}
	wg.Wait()
	layout := dist.Layout{Classes: w.classes, Dim: probeDim}
	for i, c := range started {
		if c != nil {
			f.children = append(f.children, c)
			layout.Shards = append(layout.Shards, dist.ShardSpec{Range: ranges[i], Replicas: []string{c.addr}})
		}
	}
	return layout, errors.Join(errs...)
}

func awaitReady(addr string) error {
	deadline := time.Now().Add(startTimeout)
	for {
		resp, err := http.Get("http://" + addr + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // body is a constant; only the status matters
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("hdcserve at %s never became ready (last error: %v)", addr, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop terminates every process (front first, so it stops routing
// before its shards go) and removes the fleet's files.
func (f *fleet) stop() {
	if f.front != nil {
		f.front.stop()
	}
	for _, c := range f.children {
		if c != f.front {
			c.stop()
		}
	}
	_ = os.RemoveAll(f.dir) // temp files; a leftover is harmless
}

// cpuSeconds sums user+system CPU over the fleet.
func (f *fleet) cpuSeconds() (float64, error) {
	var sum float64
	for _, c := range f.children {
		s, err := c.cpuSeconds()
		if err != nil {
			return 0, err
		}
		sum += s
	}
	return sum, nil
}

// peakRSSMB sums the processes' resident-set high-water marks.
func (f *fleet) peakRSSMB() (float64, error) {
	var sum float64
	for _, c := range f.children {
		mb, err := peakRSSMB(c.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		sum += mb
	}
	return sum, nil
}
