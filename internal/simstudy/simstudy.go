// Package simstudy runs the paper's beacon methodology (§6) end to end on
// the protocol-level simulator: RIPE-style beacon origins inside a
// synthetic Internet topology, a route collector capturing every message,
// and the standard classification and revealed-information analyses over
// the capture. Unlike internal/workload, nothing here is generated
// statistically — every update is produced by the BGP implementation in
// internal/router, so community exploration and nn duplicates emerge from
// the protocol mechanics alone.
package simstudy

import (
	"fmt"
	"time"

	"repro/internal/analysis"
	"repro/internal/beacon"
	"repro/internal/classify"
	"repro/internal/router"
	"repro/internal/simnet"
	"repro/internal/stream"
	"repro/internal/topo"
	"repro/internal/workload"
)

// Config parameterizes a simulated beacon day.
type Config struct {
	// Topology is the Internet-like AS graph; zero value uses the default
	// with the given behavior.
	Topology topo.InternetConfig
	// Day is the midnight-UTC start.
	Day time.Time
	// Schedule drives the beacon origin.
	Schedule beacon.Schedule
	// BeaconPrefixes is how many beacon prefixes the origin cycles
	// (default 1; each follows the same schedule).
	BeaconPrefixes int
}

// DefaultConfig returns a laptop-scale simulated day.
func DefaultConfig(b router.Behavior, day time.Time) Config {
	return Config{
		Topology:       topo.DefaultInternetConfig(b),
		Day:            day,
		Schedule:       beacon.RIPE,
		BeaconPrefixes: 1,
	}
}

// Result is the analysis of the simulated day.
type Result struct {
	// Counts is the classified collector view.
	Counts classify.Counts
	// Revealed is the Figure 6 attribution over the capture.
	Revealed beacon.RevealedSummary
	// CollectorMessages is the raw number of messages the collector saw.
	CollectorMessages int
	// Peers and Sources expose the capture as per-(collector, peer)
	// event sources, the shape collector.WriteSourcesDir and
	// evstore ingestion consume directly.
	Peers   []workload.Peer
	Sources []stream.EventSource
}

// Source returns the merged, time-ordered collector view.
func (r Result) Source() stream.EventSource { return stream.Merge(r.Sources...) }

// Run simulates one beacon day and analyses the collector capture. The
// collector feed streams through a simnet.Capture — no full network
// trace is retained — and both analyses (classification, revealed
// attribution) share one analysis.RunAll pass over the merged feed.
func Run(cfg Config) (Result, error) {
	if cfg.BeaconPrefixes <= 0 {
		cfg.BeaconPrefixes = 1
	}
	inet, err := topo.BuildInternet(cfg.Day, cfg.Topology)
	if err != nil {
		return Result{}, fmt.Errorf("simstudy: %w", err)
	}
	n := inet.Net
	capture := simnet.NewCapture(inet.Collector.Name, "COLLECTOR", inet.PeerAS, inet.PeerAddr)
	n.SetSink(capture) // replaces the builder's full-trace buffer

	events := cfg.Schedule.EventsBetween(cfg.Day, cfg.Day.Add(24*time.Hour))
	for _, ev := range events {
		n.Engine.RunUntil(ev.At)
		for i := 0; i < cfg.BeaconPrefixes; i++ {
			if ev.Withdraw {
				inet.Origin.WithdrawOriginated(beacon.PrefixN(i))
			} else {
				inet.Origin.Originate(beacon.PrefixN(i), nil)
			}
		}
	}
	if _, err := n.Run(); err != nil {
		return Result{}, fmt.Errorf("simstudy: final convergence: %w", err)
	}

	res := Result{CollectorMessages: capture.Messages()}
	res.Peers, res.Sources = capture.Sources()
	counts, revealed := analysis.NewCounts(), analysis.NewRevealed(cfg.Schedule)
	analysis.RunAll(res.Source(), nil, counts, revealed)
	res.Counts, res.Revealed = counts.Counts, revealed.Summary()
	return res, nil
}
