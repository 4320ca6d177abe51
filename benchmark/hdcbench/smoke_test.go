package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// The smoke pass runs the real thing end to end at toy length: build the
// servers and the harness, start and stop processes, generate load, check
// answers, print the result line. Bounds are not applied; the numbers mean
// nothing at two seconds.

func buildAll(t *testing.T) (bin string) {
	t.Helper()
	dir := t.TempDir()
	for _, b := range []struct{ from, pkg, out string }{
		{"../..", "./cmd/hdcserve", "hdcserve"},
		{"../..", "./cmd/hdcshard", "hdcshard"},
		{"..", "./hdcbench", "hdcbench"},
	} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(dir, b.out), b.pkg)
		cmd.Dir = b.from
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", b.pkg, err, out)
		}
	}
	return filepath.Join(dir, "hdcbench")
}

func runBench(t *testing.T, bin string, args ...string) (result, string, error) {
	t.Helper()
	cmd := exec.Command(bin, append(args, "--out", t.TempDir())...)
	cmd.Env = append(os.Environ(), "TMPDIR="+t.TempDir())
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil && err == nil {
		t.Fatalf("last stdout line is not a result: %v\n%s", jerr, stdout.String())
	}
	return res, stdout.String() + stderr.String(), err
}

func names(ms []specMetric) []string {
	var out []string
	for _, m := range ms {
		out = append(out, m.Name)
	}
	sort.Strings(out)
	return out
}

func keys(m map[string]metric) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries and spawns server processes")
	}
	spec, err := loadSpec("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	bin := buildAll(t)

	if got, want := len(spec.Workloads), len(workloads); got != want {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness has %d", got, want)
	}
	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			res, out, err := runBench(t, bin, "--workload", w.Name, "--seed", "3", "--seconds", "1.5", "--trace", "0", "--smoke")
			if err != nil {
				t.Fatalf("%v\n%s", err, out)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("result %+v\n%s", res, out)
			}
			if got, want := keys(res.Metrics), names(spec.EndToEnd); !slices.Equal(got, want) {
				t.Errorf("end-to-end metrics %v, BENCHMARK.json lists %v", got, want)
			}
			for name, m := range res.Metrics {
				if !(m.Value > 0) {
					t.Errorf("%s = %v: end-to-end metrics are never 0", name, m.Value)
				}
			}
		})
	}

	t.Run("traced", func(t *testing.T) {
		res, out, err := runBench(t, bin, "--workload", "routed_classify", "--seed", "3", "--seconds", "2", "--trace", "1", "--smoke")
		if err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		if got, want := keys(res.Metrics), names(spec.PerLayer); !slices.Equal(got, want) {
			t.Errorf("per-layer metrics %v, BENCHMARK.json lists %v", got, want)
		}
		for _, m := range spec.PerLayer {
			if got := res.Metrics[m.Name].Unit; got != m.Unit {
				t.Errorf("%s printed in %q, BENCHMARK.json says %q", m.Name, got, m.Unit)
			}
		}
		if a := res.Metrics["nn.infer_allocs_per_op"].Value; a != 0 {
			t.Errorf("warm compiled inference allocates %v times per call", a)
		}
	})

	t.Run("a wrong oracle fails the command", func(t *testing.T) {
		res, out, err := runBench(t, bin, "--workload", "classify_enroll", "--seed", "3", "--seconds", "1", "--trace", "0", "--smoke", "--wrong-oracle")
		if err == nil || res.Correct || res.Failed == 0 {
			t.Errorf("exit %v, result %+v: a corrupted expectation must fail the run\n%s", err, res, out)
		}
	})

	t.Run("no repository, no result", func(t *testing.T) {
		// The driver also runs the command where only BENCHMARK.json and
		// this directory exist; it must fail without printing a result.
		dir := t.TempDir()
		if err := os.MkdirAll(filepath.Join(dir, "benchmark"), 0o755); err != nil {
			t.Fatal(err)
		}
		script, err := os.ReadFile("../run.sh")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "benchmark", "run.sh"), script, 0o755); err != nil {
			t.Fatal(err)
		}
		cmd := exec.Command("bash", "benchmark/run.sh", "--workload", "train_eval", "--seed", "1", "--seconds", "1", "--trace", "0")
		cmd.Dir = dir
		out, err := cmd.Output()
		if err == nil || len(bytes.TrimSpace(out)) != 0 {
			t.Errorf("exit %v, stdout %q", err, out)
		}
	})
}
