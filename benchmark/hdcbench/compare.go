package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

// runFile is what `hdcbench all` writes and `hdcbench compare` reads.
type runFile struct {
	Runs []record `json:"runs"`
}

// allMain runs every workload end to end (tracing off) and then traced,
// each run in its own process so that peak-memory readings and
// GOMAXPROCS are per run, and appends the results to a run file.
func allMain(ctx context.Context, args []string) int {
	fs := flag.NewFlagSet("hdcbench all", flag.ContinueOnError)
	var (
		repeat  = fs.Int("repeat", 1, "whole sets to run; set i uses seed+i")
		seed    = fs.Int64("seed", 1, "workload seed of the first set")
		seconds = fs.Float64("seconds", 26, "seconds one run measures for")
		outDir  = fs.String("out", "benchmark/out", "directory for spans.jsonl, server-side stats and the run file")
		file    = fs.String("file", "", "run file to write (default <out>/runs-<time>.json)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "hdcbench:", err)
		return 1
	}
	if *file == "" {
		*file = filepath.Join(*outDir, "runs-"+time.Now().UTC().Format("20060102T150405Z")+".json")
	}
	var rf runFile
	failed := false
	for set := range *repeat {
		for _, trace := range []int{0, 1} {
			for _, w := range workloads {
				s := *seed + int64(set)
				cmd := exec.CommandContext(ctx, self, "--workload", w.name, "--seed", strconv.FormatInt(s, 10),
					"--seconds", strconv.FormatFloat(*seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace), "--out", *outDir)
				var out bytes.Buffer
				cmd.Stdout, cmd.Stderr = &out, os.Stderr
				runErr := cmd.Run()
				os.Stdout.Write(out.Bytes())
				lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
				rec := record{Workload: w.name, Seed: s, Trace: trace}
				if err := json.Unmarshal(lines[len(lines)-1], &rec.result); err != nil || runErr != nil {
					fmt.Fprintf(os.Stderr, "hdcbench: %s seed %d trace %d failed: %v %v\n", w.name, s, trace, runErr, err)
					failed = true
					continue
				}
				rf.Runs = append(rf.Runs, rec)
			}
		}
	}
	raw, err := json.MarshalIndent(rf, "", " ")
	if err == nil {
		if err = os.MkdirAll(filepath.Dir(*file), 0o755); err == nil {
			err = os.WriteFile(*file, append(raw, '\n'), 0o644)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hdcbench:", err)
		return 1
	}
	fmt.Fprintln(os.Stderr, "hdcbench: wrote", *file)
	if failed {
		return 1
	}
	return 0
}

// verdicts of one (metric, workload) row.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// row is one end-to-end metric on one workload, A against B.
type row struct {
	workload, metric string
	medA, medB       float64
	spreadA, spreadB float64
	change           float64 // share of A's median by which B is worse (negative: better)
	bound            float64
	verdict          string
}

// compareRuns applies the spec's bounds: B is worse on a row when its
// median is worse than A's by more than the bound; the row is unresolved
// when either side's own run-to-run spread is wider than the bound, in
// which case the runs cannot tell a regression from noise.
func compareRuns(spec benchSpec, a, b []record) []row {
	values := func(runs []record, workload, metric string) []float64 {
		var out []float64
		for _, r := range runs {
			if m, ok := r.Metrics[metric]; ok && r.Workload == workload && r.Trace == 0 {
				out = append(out, m.Value)
			}
		}
		return out
	}
	var rows []row
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := values(a, w.Name, m.Name), values(b, w.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			r := row{
				workload: w.Name, metric: m.Name, bound: m.Bound,
				medA: median(va), medB: median(vb), spreadA: spread(va), spreadB: spread(vb),
			}
			r.change = (r.medB - r.medA) / r.medA
			if m.Better == "higher" {
				r.change = -r.change
			}
			switch {
			case max(r.spreadA, r.spreadB) > m.Bound:
				r.verdict = verdictUnresolved
			case r.change > m.Bound:
				r.verdict = verdictWorse
			default:
				r.verdict = verdictOK
			}
			rows = append(rows, r)
		}
	}
	return rows
}

func compareMain(args []string) int {
	fs := flag.NewFlagSet("hdcbench compare", flag.ContinueOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "the benchmark contract holding the bounds")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: hdcbench compare [-spec BENCHMARK.json] A.json B.json")
		return 2
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hdcbench:", err)
		return 2
	}
	var files [2]runFile
	for i := range files {
		raw, err := os.ReadFile(fs.Arg(i))
		if err == nil {
			err = json.Unmarshal(raw, &files[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "hdcbench: %s: %v\n", fs.Arg(i), err)
			return 2
		}
	}
	rows := compareRuns(spec, files[0].Runs, files[1].Runs)
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].workload < rows[j].workload })
	fmt.Printf("%-16s %-20s %12s %12s %8s %8s %8s %6s  %s\n", "workload", "metric", "median A", "median B", "worse by", "spread A", "spread B", "bound", "verdict")
	worse := 0
	for _, r := range rows {
		fmt.Printf("%-16s %-20s %12.4f %12.4f %+7.1f%% %7.1f%% %7.1f%% %5.0f%%  %s\n", r.workload, r.metric,
			r.medA, r.medB, r.change*100, r.spreadA*100, r.spreadB*100, r.bound*100, r.verdict)
		if r.verdict == verdictWorse {
			worse++
		}
	}
	if worse > 0 {
		return 1
	}
	return 0
}
