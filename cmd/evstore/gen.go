package main

import (
	"flag"
	"fmt"
	"maps"
	"slices"

	"repro/internal/collector"
	"repro/internal/stream"
	"repro/internal/workload"
)

// runGen writes synthetic per-collector MRT update archives: a full
// measurement day (d_mar20-like) or the beacon subset (d_beacon-like),
// optionally scaled, for a historical year. The generators hand out one
// lazy source per (collector, peer) session, so archives are written
// collector by collector without ever materializing the dataset.
func runGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	out := fs.String("out", "", "output directory for the per-collector .mrt files (required)")
	kind := fs.String("kind", "day", "dataset kind: day or beacon")
	year := fs.Int("year", 2020, "measurement year (2010-2020)")
	scale := fs.Float64("scale", 1.0, "multiplier on prefixes and peers")
	seed := fs.Int64("seed", 0, "override the generator seed (0 keeps the default)")
	fs.Parse(args)
	if *out == "" {
		return fmt.Errorf("-out is required")
	}

	var peers []workload.Peer
	var sources []stream.EventSource
	switch *kind {
	case "day":
		cfg := workload.HistoricalDayConfig(*year)
		cfg.PrefixesV4 = int(float64(cfg.PrefixesV4) * *scale)
		cfg.PrefixesV6 = int(float64(cfg.PrefixesV6) * *scale)
		cfg.PeersPerCollector = max(1, int(float64(cfg.PeersPerCollector)**scale))
		if *seed != 0 {
			cfg.Seed = *seed
		}
		peers, sources = workload.DaySources(cfg)
	case "beacon":
		cfg := workload.HistoricalBeaconConfig(*year)
		cfg.PeersPerCollector = max(1, int(float64(cfg.PeersPerCollector)**scale))
		if *seed != 0 {
			cfg.Seed = *seed
		}
		peers, sources = workload.BeaconSources(cfg)
	default:
		return fmt.Errorf("unknown kind %q", *kind)
	}

	files, err := collector.WriteSourcesDir(peers, sources, *out)
	if err != nil {
		return err
	}
	total := 0
	for _, name := range slices.Sorted(maps.Keys(files)) {
		n, err := collector.CountRecords(files[name])
		if err != nil {
			return fmt.Errorf("verify %s: %w", files[name], err)
		}
		total += n
		fmt.Printf("  %-16s %8d records  %s\n", name, n, files[name])
	}
	fmt.Printf("wrote %d records across %d collector archives in %s\n",
		total, len(files), *out)
	return nil
}
