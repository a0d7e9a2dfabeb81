// Command bench is the repository's benchmark: it builds a deterministic
// live-shaped event store, starts the real cmd/commservd as a child
// process, drives four workloads (hot, window, filter, churn) at it over
// two loopback connections, verifies the answers against recomputed
// references, and prints every metric by name with its unit. With
// -trace 1 it also serves each workload in process between span
// decorators and calls single layers directly, for the per-layer
// numbers. See README.md for the metric catalogue and the layer map.
//
//	go run -C bench .                              # all four workloads
//	go run -C bench . -workload window -seconds 12 # one workload
//	go run -C bench . -trace 1                     # plus spans and layer metrics
//	go run -C bench . -runs 5 -out A.json          # repeated sets
//	go run -C bench . -compare A.json B.json       # apply the bounds
//
// With -workload the last line of standard output is one JSON object
// {correct, attempted, failed, metrics}: the form BENCHMARK.json's
// driver reads. Everything else goes to standard error.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	workload := flag.String("workload", "", "run one workload (hot, window, filter, churn); empty runs all four")
	seed := flag.Int64("seed", 20200315, "seed of the generated events and of every request stream")
	seconds := flag.Int("seconds", 30, "closed-loop phase length; the other phases keep their proportion to it")
	trace := flag.Int("trace", 0, "1 adds the traced in-process run and the direct-call layer pass")
	runs := flag.Int("runs", 1, "repeat the whole set this many times and report medians and quartiles")
	out := flag.String("out", "", "write the JSON result to this file")
	spans := flag.String("spans", "", "directory for the traced run's span files, WORKLOAD.jsonl (default .bench_build/spans)")
	quick := flag.Bool("quick", false, "shrunken store and phases: a smoke pass, never for reported numbers")
	cmp := flag.Bool("compare", false, "compare two -out files given as arguments and exit non-zero on worse")
	printSpec := flag.Bool("print-benchmark-json", false, "print BENCHMARK.json as the metric catalogue defines it")
	flag.Parse()

	if *printSpec {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(benchmarkSpec())
		return 0
	}
	if *cmp {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two result files")
			return 2
		}
		worse, err := compare(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		if worse {
			return 1
		}
		return 0
	}

	names := workloadNames
	if *workload != "" {
		names = nil
		for _, w := range workloadNames {
			if w == *workload {
				names = []string{w}
			}
		}
		if names == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %v)\n", *workload, workloadNames)
			return 2
		}
	}
	if *seconds < 1 || *runs < 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds and -runs must be at least 1")
		return 2
	}
	if *quick {
		*seconds = min(*seconds, 3)
	}
	opts := options{seed: *seed, seconds: *seconds, trace: *trace != 0, quick: *quick}

	clean := &cleanups{}
	clean.onSignal()
	defer clean.run() // also on panic: deferred calls run while unwinding
	rf, err := execute(clean, opts, names, *runs, *spans)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}

	correct := true
	for i, run := range rf.Runs {
		if len(rf.Runs) > 1 {
			fmt.Fprintf(os.Stderr, "\n#### run %d of %d\n", i+1, len(rf.Runs))
		}
		for _, w := range names {
			printWorkload(os.Stderr, w, run[w])
			correct = correct && run[w].Correct
		}
	}
	if len(rf.Runs) > 1 {
		printSummary(os.Stderr, names, rf.Summary)
	}
	if *out != "" {
		data, err := json.MarshalIndent(rf, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if *workload != "" {
		line, err := driverLine(*workload, rf.Runs[len(rf.Runs)-1][*workload], opts.trace)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Printf("%s\n", line)
	} else {
		fmt.Printf("{\"workloads\": %d, \"runs\": %d, \"correct\": %v, \"claim\": null}\n", len(names), len(rf.Runs), correct)
	}
	if !correct {
		return 1
	}
	return 0
}

// execute prepares the harness and runs the chosen workloads runs times.
func execute(clean *cleanups, opts options, names []string, runs int, spansDir string) (*resultFile, error) {
	benchDir, repoDir, err := moduleDirs()
	if err != nil {
		return nil, err
	}
	// Everything the harness writes goes under .bench_build at the
	// repository root (git-ignored): the daemon binary and span files
	// persist, the per-invocation work directory is removed on exit.
	build := filepath.Join(repoDir, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return nil, err
	}
	// A harness that was killed outright could not clean up after itself.
	if stale, _ := filepath.Glob(filepath.Join(build, "run-*")); len(stale) > 0 {
		for _, dir := range stale {
			if fi, err := os.Stat(dir); err == nil && time.Since(fi.ModTime()) > time.Hour {
				os.RemoveAll(dir)
			}
		}
	}
	work, err := os.MkdirTemp(build, "run-")
	if err != nil {
		return nil, err
	}
	clean.add(func() { os.RemoveAll(work) })
	env := stampEnvironment(repoDir)
	bin, err := buildDaemon(benchDir, filepath.Join(build, "bin"))
	if err != nil {
		return nil, err
	}
	if spansDir == "" {
		spansDir = filepath.Join(build, "spans")
	}
	ctx, cancel := context.WithCancel(context.Background())
	clean.add(cancel)
	h := &harness{
		ctx: ctx, opts: opts, clean: clean, work: work, bin: bin,
		spansDir: spansDir,
		d:        generate(opts.seed, opts.quick),
	}
	fmt.Fprintf(os.Stderr, "bench: seed %d: %d events over %d collectors generated in %.2f s\n",
		opts.seed, h.d.total, len(h.d.collectors), h.d.generateS)
	rf := &resultFile{
		Benchmark:   "commservd-bench",
		Seed:        opts.seed,
		Seconds:     opts.seconds,
		Traced:      opts.trace,
		Environment: env,
		Catalogue:   catalogue{Workloads: workloadWhy, EndToEnd: endToEnd, PerLayer: perLayer},
	}
	for i := 0; i < runs; i++ {
		run := make(map[string]*workloadResult)
		for _, w := range names {
			res, err := h.runWorkload(w)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", w, err)
			}
			run[w] = res
			// Each workload's stores are its own; drop them before the next.
			matches, _ := filepath.Glob(filepath.Join(work, w+"-*"))
			for _, m := range matches {
				os.RemoveAll(m)
			}
		}
		rf.Runs = append(rf.Runs, run)
	}
	rf.Summary = summarizeRuns(rf.Runs)
	return rf, nil
}
