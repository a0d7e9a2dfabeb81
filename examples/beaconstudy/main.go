// Beaconstudy walks through the paper's §6 beacon analyses on a small
// synthetic d_beacon day: it detects community exploration on a single
// route, shows the egress-cleaning duplicate pattern, and attributes every
// unique community attribute to the beacon phase that revealed it.
//
// Run with: go run ./examples/beaconstudy
package main

import (
	"fmt"
	"net/netip"
	"time"

	"repro/internal/analysis"
	"repro/internal/beacon"
	"repro/internal/classify"
	"repro/internal/stream"
	"repro/internal/workload"
)

func main() {
	day := time.Date(2020, 3, 15, 0, 0, 0, 0, time.UTC)
	cfg := workload.DefaultBeaconConfig(day)
	cfg.Collectors = 4
	cfg.PeersPerCollector = 10
	// Generate once (session by session, no global sort) and replay the
	// materialized slice: a scan per followed session finds its backup
	// path, then one RunAll pass answers every analysis.
	peers, sources := workload.BeaconSources(cfg)
	events := stream.Collect(stream.Concat(sources...))
	src := stream.FromSlice(events)

	fmt.Printf("d_beacon: %d events for %d beacon prefixes across %d sessions\n\n",
		len(events), len(beacon.RIPEBeacons()), len(peers))

	prefix := beacon.RIPEBeacons()[0].Prefix
	// Community exploration (Figure 4): a transparent, geo-tagged session.
	exploration := findPath(peers, src, cfg, prefix, workload.PeerTransparent,
		"community exploration — transparent peer behind a geo-tagging transit")
	// Duplicate announcements (Figure 5): an egress-cleaning session.
	duplicates := findPath(peers, src, cfg, prefix, workload.PeerCleansEgress,
		"duplicate announcements — peer cleaning communities on egress")
	// Revealed information (Figure 6).
	revealed := analysis.NewRevealed(cfg.Schedule)
	analyzers := []analysis.Analyzer{revealed}
	for _, p := range []*path{exploration, duplicates} {
		if p != nil {
			analyzers = append(analyzers, p.series)
		}
	}
	analysis.RunAll(src, cfg.InWindow, analyzers...)

	exploration.show()
	duplicates.show()
	s := revealed.Summary()
	fmt.Println("revealed community attributes by beacon phase:")
	fmt.Printf("  total unique attributes:   %d\n", s.Total)
	fmt.Printf("  withdrawal phases only:    %d (%.1f%%)  <- the paper's 62%%\n",
		s.WithdrawalOnly, 100*s.WithdrawalRatio)
	fmt.Printf("  announcement phases only:  %d (%.1f%%)\n", s.AnnouncementOnly, 100*s.AnnouncementRatio)
	fmt.Printf("  outside any phase:         %d\n", s.OutsideOnly)
	fmt.Printf("  ambiguous:                 %d\n", s.Ambiguous)
	fmt.Println("\nmost of what communities leak about a network is leaked while its")
	fmt.Println("routes are being withdrawn — a side effect of path exploration.")
}

// path is the backup route of one session and the analyzer that follows
// its classified announcements.
type path struct {
	title  string
	peer   workload.Peer
	prefix netip.Prefix
	backup string
	series *analysis.CumulativeAnalyzer
}

// findPath picks the first tagged session of the peer kind and the AS
// path of its first withdrawal-phase announcement of prefix. It returns
// nil when there is no such session or announcement.
func findPath(peers []workload.Peer, src stream.EventSource, cfg workload.BeaconConfig, prefix netip.Prefix, kind workload.PeerKind, title string) *path {
	var peer *workload.Peer
	for i := range peers {
		if peers[i].Kind == kind && peers[i].TaggedUpstream {
			peer = &peers[i]
			break
		}
	}
	if peer == nil {
		return nil
	}
	session := classify.SessionKey{Collector: peer.Collector, PeerAddr: peer.Addr}
	for e := range src {
		if e.Session() == session && e.Prefix == prefix && !e.Withdraw &&
			cfg.Schedule.PhaseAt(e.Time) == beacon.PhaseWithdrawal {
			backup := e.ASPath.String()
			return &path{title: title, peer: *peer, prefix: prefix, backup: backup,
				series: analysis.NewCumulative(session, prefix, backup)}
		}
	}
	return nil
}

// show prints the classified backup-path series.
func (p *path) show() {
	if p == nil {
		return
	}
	series := p.series.Series()
	counts := series.TypeCounts()
	fmt.Printf("%s\n  prefix %v via (%s), session AS%d at %s:\n",
		p.title, p.prefix, p.backup, p.peer.AS, p.peer.Collector)
	fmt.Printf("  %d announcements, all during withdrawal phases: ", len(series.Points))
	for _, ty := range classify.Types() {
		if n := counts.Of(ty); n > 0 {
			fmt.Printf("%v×%d ", ty, n)
		}
	}
	fmt.Printf("\n  (%d withdrawal events)\n\n", len(series.Withdrawals))
}
