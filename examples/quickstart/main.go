// Quickstart: generate a small synthetic measurement day, archive it as
// MRT the way a route collector would, read it back through the §4
// cleaning pipeline, and classify every announcement into the paper's six
// types.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/analysis"
	"repro/internal/classify"
	"repro/internal/collector"
	"repro/internal/pipeline"
	"repro/internal/registry"
	"repro/internal/stream"
	"repro/internal/workload"
)

func main() {
	day := time.Date(2020, 3, 15, 0, 0, 0, 0, time.UTC)

	// 1. Synthesize a scaled-down March-15-2020 update stream.
	cfg := workload.DefaultDayConfig(day)
	cfg.Collectors = 3
	cfg.PeersPerCollector = 8
	cfg.PrefixesV4 = 200
	cfg.PrefixesV6 = 20
	peers, sources := workload.DaySources(cfg)
	fmt.Printf("generated %d events from %d peer sessions\n",
		stream.Count(stream.Concat(sources...)), len(peers))

	// 2. Write per-collector MRT archives (RFC 6396 BGP4MP_ET records).
	dir, err := os.MkdirTemp("", "quickstart-mrt-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	files, err := collector.WriteSourcesDir(peers, sources, dir)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %d collector archives to %s\n", len(files), dir)

	// 3. Read them back through the cleaning pipeline: bogon filtering,
	// route-server AS-path fixup, and same-second timestamp spreading.
	// Each archive becomes a lazy event source — records are decoded one
	// at a time as the classifier pulls them, never a whole file.
	norm := pipeline.NewNormalizer(registry.Synthetic(day.AddDate(-10, 0, 0)))
	norm.RouteServers = workload.RouteServerASNs(peers)
	var srcErr error
	_, archives, err := pipeline.DirSources(norm, dir, &srcErr)
	if err != nil {
		log.Fatal(err)
	}

	// 4. Classify per (session, prefix) stream in one streaming pass. The
	// archives include pre-day warm-up announcements that seed per-stream
	// state; they feed the classifier but only the measured day is counted.
	tally := analysis.NewCounts()
	analysis.RunAll(stream.Concat(archives...), cfg.InWindow, tally)
	if srcErr != nil {
		log.Fatal(srcErr)
	}
	counts := tally.Counts

	// 5. Report the Table 2 type mix.
	fmt.Printf("\nclassified %d announcements, %d withdrawals\n",
		counts.Announcements(), counts.Withdrawals)
	fmt.Println("announcement types (paper d_mar20: pc 33.7 pn 15.1 nc 24.5 nn 25.7):")
	for _, ty := range classify.Types() {
		fmt.Printf("  %-2v %6d  %5.1f%%\n", ty, counts.Of(ty), 100*counts.Share(ty))
	}
	fmt.Printf("\nupdates with NO path change: %.1f%% — the paper's headline finding\n",
		100*counts.NoPathChangeShare())
	fmt.Printf("pipeline stats: %+v\n", norm.Stats)
}
