package main

import (
	"flag"
	"fmt"
	"strconv"

	"repro/internal/analysis"
	"repro/internal/beacon"
	"repro/internal/classify"
	"repro/internal/stream"
	"repro/internal/textplot"
	"repro/internal/workload"
)

var typeRunes = []rune{'P', 'p', 'C', 'n', 'X', 'x'} // pc pn nc nn xc xn

// runBeacon reproduces the §6 beacon analyses on a synthetic d_beacon
// day.
func runBeacon(args []string) error {
	fs := flag.NewFlagSet("beacon", flag.ExitOnError)
	year := fs.Int("year", 2020, "measurement year")
	sessions := fs.Int("sessions", 0, "override peers per collector")
	longitudinal := fs.Bool("longitudinal", false, "print the Figure 6 yearly ratio series")
	fs.Parse(args)

	cfg := workload.HistoricalBeaconConfig(*year)
	if *sessions > 0 {
		cfg.PeersPerCollector = *sessions
	}
	// The study scans the same day several times (Table 2, Figures 3-6),
	// so generate once — session-ordered, skipping the global sort a full
	// Dataset would pay — and replay the materialized slice per analysis.
	peers, sources := workload.BeaconSources(cfg)
	src := stream.FromSlice(stream.Collect(stream.Concat(sources...)))
	counts := stream.Classify(src, cfg.InWindow)

	fmt.Printf("d_beacon %d: %d announcements, %d withdrawals over %d sessions\n\n",
		*year, counts.Announcements(), counts.Withdrawals, len(peers))

	fmt.Println("Announcement types (paper d_beacon: pc 44.6 pn 29.9 nc 13.8 nn 11.2):")
	printTypeShares(counts)

	// Figure 3: per-session mix for the first beacon at rrc00.
	prefix := beacon.RIPEBeacons()[0].Prefix
	fmt.Printf("\nFigure 3 — per-session types for %v at rrc00 (P=pc p=pn C=nc n=nn):\n", prefix)
	mixes := analysis.Figure3PerSessionStream(src, cfg.InWindow, "rrc00", prefix)
	for i, m := range mixes {
		if i >= 16 {
			fmt.Printf("  ... %d more sessions\n", len(mixes)-i)
			break
		}
		segs := make([]float64, 0, 6)
		for _, ty := range classify.Types() {
			segs = append(segs, float64(m.Counts.Of(ty)))
		}
		fmt.Println(textplot.StackedBar("AS"+strconv.Itoa(int(m.PeerAS)), segs, typeRunes,
			float64(m.Counts.Announcements()), 48))
	}

	// Figures 4/5: single-path cumulative series.
	printPathSeries(peers, src, cfg, workload.PeerTransparent,
		"Figure 4 — geo-tagged transparent peer (nc bursts during withdrawal phases)")
	printPathSeries(peers, src, cfg, workload.PeerCleansEgress,
		"Figure 5 — egress-cleaning peer (nn duplicates during withdrawal phases)")

	// Figure 6: revealed attribution.
	s := analysis.RevealedForStream(src, cfg.InWindow, cfg.Schedule)
	fmt.Println("\nFigure 6 — revealed community attributes (paper: 62% withdrawal-only, 17% announce-only):")
	fmt.Print(textplot.Table([]string{"class", "count", "share"}, [][]string{
		{"total", strconv.Itoa(s.Total), "100%"},
		{"withdrawal-only", strconv.Itoa(s.WithdrawalOnly), fmt.Sprintf("%.1f%%", 100*s.WithdrawalRatio)},
		{"announcement-only", strconv.Itoa(s.AnnouncementOnly), fmt.Sprintf("%.1f%%", 100*s.AnnouncementRatio)},
		{"outside-only", strconv.Itoa(s.OutsideOnly), fmt.Sprintf("%.1f%%", 100*float64(s.OutsideOnly)/float64(s.Total))},
		{"ambiguous", strconv.Itoa(s.Ambiguous), fmt.Sprintf("%.1f%%", 100*float64(s.Ambiguous)/float64(s.Total))},
	}))

	if *longitudinal {
		fmt.Println("\nFigure 6 (longitudinal) — withdrawal-phase reveal ratio per year:")
		rows := analysis.Figure6Series(2010, 2020)
		var totals, ratios []float64
		for _, r := range rows {
			totals = append(totals, float64(r.Summary.Total))
			ratios = append(ratios, r.Summary.WithdrawalRatio*100)
		}
		fmt.Print(textplot.Lines([]textplot.Series{
			{Name: "total", Points: totals},
			{Name: "ratio", Points: ratios},
		}, 8))
		for _, r := range rows {
			fmt.Printf("  %d: total=%5d withdrawal-only=%.1f%%\n",
				r.Year, r.Summary.Total, 100*r.Summary.WithdrawalRatio)
		}
	}
	return nil
}

// printPathSeries locates a session of the wanted kind and prints the
// cumulative per-type counts of its backup path.
func printPathSeries(peers []workload.Peer, src stream.EventSource, cfg workload.BeaconConfig, kind workload.PeerKind, title string) {
	var peer *workload.Peer
	for i := range peers {
		p := peers[i]
		if p.Kind == kind && p.TaggedUpstream {
			peer = &peers[i]
			break
		}
	}
	if peer == nil {
		return
	}
	session := classify.SessionKey{Collector: peer.Collector, PeerAddr: peer.Addr}
	prefix := beacon.RIPEBeacons()[0].Prefix
	sched := cfg.Schedule
	var backup string
	// Scan stops at the first withdrawal-phase announcement of the session.
	for e := range src {
		if e.Session() == session && e.Prefix == prefix && !e.Withdraw &&
			sched.PhaseAt(e.Time) == beacon.PhaseWithdrawal {
			backup = e.ASPath.String()
			break
		}
	}
	if backup == "" {
		return
	}
	series := analysis.CumulativeByPathStream(src, cfg.InWindow, session, prefix, backup)
	fmt.Printf("\n%s\n  session AS%d via path (%s):\n", title, peer.AS, backup)
	cum := 0
	for _, pt := range series.Points {
		cum++
		fmt.Printf("  %s  %-2v  cumsum=%d\n", pt.Time.Format("15:04:05"), pt.Type, cum)
	}
	fmt.Printf("  withdrawals at:")
	for _, t := range series.Withdrawals {
		fmt.Printf(" %s", t.Format("15:04"))
	}
	fmt.Println()
}
