package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"time"

	"repro/internal/analysis"
	"repro/internal/classify"
	"repro/internal/evstore"
	"repro/internal/router"
	"repro/internal/simnet"
	"repro/internal/simstudy"
	"repro/internal/stream"
	"repro/internal/textplot"
)

// simDay is the simulated day of simbeacon and sweep.
var simDay = time.Date(2020, 3, 15, 0, 0, 0, 0, time.UTC)

// runSimBeacon runs the §6 beacon methodology on the protocol-level
// simulator and writes the report to w.
func runSimBeacon(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("simbeacon", flag.ExitOnError)
	vendor := fs.String("vendor", router.CiscoIOS.Name, "router behaviour profile")
	beacons := fs.Int("beacons", 1, "number of beacon prefixes")
	stubs := fs.Int("stubs", 8, "stub ASes in the topology")
	noGeo := fs.Bool("no-geo", false, "disable geo tagging (ablation)")
	storeDir := fs.String("store", "", "ingest the simulated day into this columnar store directory")
	fs.Parse(args)

	behavior, err := vendorByName(*vendor)
	if err != nil {
		return err
	}
	cfg := simstudy.DefaultConfig(behavior, simDay)
	cfg.BeaconPrefixes = *beacons
	cfg.Topology.Stubs = *stubs
	cfg.Topology.GeoTagging = !*noGeo

	res, err := simstudy.Run(cfg)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "simulated beacon day (%s, %d beacon prefix(es), geo tagging %v):\n",
		behavior.Name, *beacons, !*noGeo)
	fmt.Fprintf(w, "  collector messages: %d (announcements %d, withdrawals %d)\n\n",
		res.CollectorMessages, res.Counts.Announcements(), res.Counts.Withdrawals)

	fmt.Fprintln(w, "announcement types at the collector:")
	printTypeShares(w, res.Counts)

	if *storeDir != "" {
		fmt.Fprintln(w)
		if err := ingestAll(w, *storeDir, res.Source()); err != nil {
			return err
		}
	}

	fmt.Fprintln(w, "\nrevealed community attributes (protocol-level Figure 6):")
	fmt.Fprintf(w, "  total %d — withdrawal-only %d (%.0f%%), announcement-only %d (%.0f%%), ambiguous %d\n",
		res.Revealed.Total,
		res.Revealed.WithdrawalOnly, 100*res.Revealed.WithdrawalRatio,
		res.Revealed.AnnouncementOnly, 100*res.Revealed.AnnouncementRatio,
		res.Revealed.Ambiguous)
	return nil
}

// runSweep runs the simulator scenario matrix in parallel and prints a
// per-scenario Table-2-style grid.
func runSweep(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	hours := fs.Int("hours", 24, "simulated duration per scenario")
	parallel := fs.Int("parallel", 0, "concurrent scenarios (0 = GOMAXPROCS)")
	seq := fs.Bool("seq", false, "also run the matrix sequentially and report the speedup")
	storeDir := fs.String("store", "", "ingest every scenario as its own collector-day into this store")
	check := fs.Bool("check", false, "verify streaming, materialized, store round-trip, and sharded-parallel paths classify identically")
	fs.Parse(args)

	matrix := simnet.DefaultMatrix(simDay, *hours)
	workers := *parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	t0 := time.Now()
	results := simnet.Sweep(matrix, workers)
	parElapsed := time.Since(t0)

	var rows [][]string
	var engineTime time.Duration
	var captures []stream.EventSource
	failed := 0
	for _, r := range results {
		if r.Err != nil {
			failed++
			rows = append(rows, []string{r.Scenario.Name, "ERROR", r.Err.Error(), "", "", "", "", "", "", ""})
			continue
		}
		engineTime += r.Elapsed
		captures = append(captures, r.Capture.Source())
		row := []string{r.Scenario.Name, strconv.Itoa(r.Messages)}
		for _, ty := range classify.Types() {
			row = append(row, strconv.Itoa(r.Counts.Of(ty)))
		}
		row = append(row, strconv.Itoa(r.Counts.Withdrawals),
			fmt.Sprintf("%.0f%%", 100*r.Counts.NoPathChangeShare()))
		rows = append(rows, row)
	}
	fmt.Printf("scenario matrix: %d scenarios × %dh, %d workers\n\n", len(matrix), *hours, workers)
	fmt.Print(textplot.Table(
		[]string{"scenario", "msgs", "pc", "pn", "nc", "nn", "xc", "xn", "wdr", "nc+nn"}, rows))
	fmt.Printf("\nwall clock %v parallel (scenario engine time summed: %v)\n",
		parElapsed.Round(time.Millisecond), engineTime.Round(time.Millisecond))

	if *seq {
		t1 := time.Now()
		simnet.SweepSequential(matrix)
		seqElapsed := time.Since(t1)
		fmt.Printf("sequential rerun: %v — parallel speedup %.1fx\n",
			seqElapsed.Round(time.Millisecond), float64(seqElapsed)/float64(parElapsed))
	}

	if *storeDir != "" {
		if err := ingestAll(os.Stdout, *storeDir, captures...); err != nil {
			return err
		}
	}

	if *check {
		if err := verifyPaths(matrix, results); err != nil {
			return err
		}
		fmt.Println("check: streaming, materialized, store round-trip, and sharded-parallel paths classify identically")
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d scenarios failed", failed, len(results))
	}
	return nil
}

// verifyPaths confirms all four analysis paths agree for every
// scenario: the streaming capture (reference counts from the sweep that
// already ran), the materialized trace replayed through normalization
// (which requires one observed re-run per scenario — engines are
// deterministic, so the rerun reproduces the sweep's day exactly), a
// store ingest-then-scan round trip off the sweep's own captures, and
// a sharded-parallel scan (evstore.ScanParallel) of the same store,
// which must be bit-identical to the sequential scan.
func verifyPaths(matrix []simnet.Scenario, results []*simnet.Result) error {
	dir, err := os.MkdirTemp("", "commstudy-sweep-check-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	for i, s := range matrix {
		ref := results[i]
		if ref.Err != nil {
			return ref.Err
		}
		buf := router.NewTraceBuffer()
		res, err := simnet.RunObserved(s, buf)
		if err != nil {
			return err
		}
		if res.Counts != ref.Counts {
			return fmt.Errorf("%s: rerun counts %+v != sweep counts %+v (determinism broken)",
				ref.Scenario.Name, res.Counts, ref.Counts)
		}
		replayed := analysis.NewCounts()
		analysis.RunAll(res.Capture.ReplayTrace(buf.Messages()).Source(), nil, replayed)
		if replayed.Counts != ref.Counts {
			return fmt.Errorf("%s: materialized-trace counts %+v != streaming %+v",
				ref.Scenario.Name, replayed.Counts, ref.Counts)
		}
		if _, err := evstore.Ingest(dir, ref.Capture.Source()); err != nil {
			return fmt.Errorf("%s: ingest: %w", ref.Scenario.Name, err)
		}
		var scanErr error
		scanned := analysis.NewCounts()
		analysis.RunAll(evstore.Scan(dir, evstore.Query{Collectors: []string{ref.Scenario.Name}}, &scanErr), nil, scanned)
		if scanErr != nil {
			return fmt.Errorf("%s: scan: %w", ref.Scenario.Name, scanErr)
		}
		if scanned.Counts != ref.Counts {
			return fmt.Errorf("%s: store round-trip counts %+v != streaming %+v",
				ref.Scenario.Name, scanned.Counts, ref.Counts)
		}
		parCounts := analysis.NewCounts()
		if _, err := evstore.ScanParallel(context.Background(), dir,
			evstore.Query{Collectors: []string{ref.Scenario.Name}}, evstore.TimeRange{}, 4, parCounts); err != nil {
			return fmt.Errorf("%s: parallel scan: %w", ref.Scenario.Name, err)
		}
		if parCounts.Counts != ref.Counts {
			return fmt.Errorf("%s: sharded-parallel counts %+v != sequential %+v",
				ref.Scenario.Name, parCounts.Counts, ref.Counts)
		}
	}
	return nil
}
