// Command hdcbench is the repository's benchmark: four named workloads
// over the real hdcserve/hdcshard binaries and the in-process training
// path, ten end-to-end metrics, and a per-layer ledger traced from
// outside the program. benchmark/run.sh builds everything and calls it;
// benchmark/README.md is the manual.
//
//	hdcbench --workload W --seed N --seconds S --trace 0|1   one run (the driver's form)
//	hdcbench all [--repeat N] [--seed N] [--seconds S]        every workload, traced and untraced
//	hdcbench compare A.json B.json                            apply BENCHMARK.json's bounds
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"syscall"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			return compareMain(args[1:])
		case "all":
			return allMain(ctx, args[1:])
		case "nullserver":
			return nullServerMain(ctx)
		}
	}

	fs := flag.NewFlagSet("hdcbench", flag.ContinueOnError)
	var (
		name  = fs.String("workload", "", "workload to run: classify_enroll, embed_classify, routed_classify, train_eval")
		trace = fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer ledger from the traced in-process replay")
		wrong = fs.Bool("wrong-oracle", false, "test hook: corrupt the expected answers; the run must then fail")
		o     options
	)
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: shapes request bodies and arrival times, nothing else")
	fs.Float64Var(&o.seconds, "seconds", 26, "seconds one run measures for")
	fs.StringVar(&o.outDir, "out", "benchmark/out", "directory for spans.jsonl and server-side stats")
	fs.BoolVar(&o.smoke, "smoke", false, "one set-up per run: exercises everything quickly, measures nothing well")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.wrongOracle = *wrong
	w, ok := findWorkload(*name)
	if !ok || o.seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "hdcbench: need --workload <name> (one of the four), --seconds > 0, --trace 0|1")
		return 2
	}

	// Generator and servers share the cores: the harness takes no more
	// threads than it has connections.
	runtime.GOMAXPROCS(connections())

	var rep *report
	var err error
	switch {
	case *trace == 1:
		rep, err = runTraced(ctx, w, o)
	case w.name == "train_eval":
		rep, err = runTrainEval(w, o)
	default:
		rep, err = runServing(ctx, w, o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hdcbench:", err)
		return 1
	}
	return emit(w, rep)
}

// emit prints the metrics by name with their units, the informational
// lines, any failed operations, and — last — the driver's result line.
// A run with a failed operation exits non-zero.
func emit(w workload, rep *report) int {
	names := make([]string, 0, len(rep.metrics))
	for n := range rep.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("workload %s\n", w.name)
	for _, n := range names {
		fmt.Printf("  %-32s %14.4f %s\n", n, rep.metrics[n].Value, rep.metrics[n].Unit)
	}
	for _, line := range rep.info {
		fmt.Printf("  # %s\n", line)
	}
	fmt.Printf("  # attempted %d  ok %d  failed %d\n", rep.attempted, rep.attempted-len(rep.failures), len(rep.failures))
	for i, f := range rep.failures {
		if i == 10 {
			fmt.Fprintf(os.Stderr, "  … and %d more\n", len(rep.failures)-i)
			break
		}
		fmt.Fprintln(os.Stderr, "  FAILED:", f)
	}
	line, err := json.Marshal(result{
		Correct:   len(rep.failures) == 0,
		Attempted: max(rep.attempted, 1), Failed: len(rep.failures), Metrics: rep.metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "hdcbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if len(rep.failures) > 0 {
		return 1
	}
	return 0
}
