package main

import (
	"flag"
	"fmt"
	"io"
	"net/netip"
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
// day and writes the report to w.
func runBeacon(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("beacon", flag.ExitOnError)
	year := fs.Int("year", 2020, "measurement year")
	sessions := fs.Int("sessions", 0, "override peers per collector")
	longitudinal := fs.Bool("longitudinal", false, "print the Figure 6 yearly ratio series")
	fs.Parse(args)

	cfg := workload.HistoricalBeaconConfig(*year)
	if *sessions > 0 {
		cfg.PeersPerCollector = *sessions
	}
	// One early-exit scan finds the Figure 4/5 backup paths; one RunAll
	// pass over the replayable day then answers every analysis.
	peers, sources := workload.BeaconSources(cfg)
	src := stream.Concat(sources...)
	prefix := beacon.RIPEBeacons()[0].Prefix
	figs := findBackupPaths(peers, src, cfg.Schedule, prefix, []*pathFigure{
		{kind: workload.PeerTransparent, title: "Figure 4 — geo-tagged transparent peer (nc bursts during withdrawal phases)"},
		{kind: workload.PeerCleansEgress, title: "Figure 5 — egress-cleaning peer (nn duplicates during withdrawal phases)"},
	})
	counts := analysis.NewCounts()
	mixes := analysis.NewSessionMix("rrc00", prefix)
	revealed := analysis.NewRevealed(cfg.Schedule)
	analyzers := []analysis.Analyzer{counts, mixes, revealed}
	for _, f := range figs {
		f.series = analysis.NewCumulative(f.session, prefix, f.backup)
		analyzers = append(analyzers, f.series)
	}
	analysis.RunAll(src, cfg.InWindow, analyzers...)

	fmt.Fprintf(w, "d_beacon %d: %d announcements, %d withdrawals over %d sessions\n\n",
		*year, counts.Counts.Announcements(), counts.Counts.Withdrawals, len(peers))

	fmt.Fprintln(w, "Announcement types (paper d_beacon: pc 44.6 pn 29.9 nc 13.8 nn 11.2):")
	printTypeShares(w, counts.Counts)

	// Figure 3: per-session mix for the first beacon at rrc00.
	fmt.Fprintf(w, "\nFigure 3 — per-session types for %v at rrc00 (P=pc p=pn C=nc n=nn):\n", prefix)
	bars := mixes.Mixes()
	for i, m := range bars {
		if i >= 16 {
			fmt.Fprintf(w, "  ... %d more sessions\n", len(bars)-i)
			break
		}
		segs := make([]float64, 0, 6)
		for _, ty := range classify.Types() {
			segs = append(segs, float64(m.Counts.Of(ty)))
		}
		fmt.Fprintln(w, textplot.StackedBar("AS"+strconv.Itoa(int(m.PeerAS)), segs, typeRunes,
			float64(m.Counts.Announcements()), 48))
	}

	// Figures 4/5: single-path cumulative series.
	for _, f := range figs {
		f.print(w)
	}

	// Figure 6: revealed attribution.
	s := revealed.Summary()
	fmt.Fprintln(w, "\nFigure 6 — revealed community attributes (paper: 62% withdrawal-only, 17% announce-only):")
	fmt.Fprint(w, textplot.Table([]string{"class", "count", "share"}, [][]string{
		{"total", strconv.Itoa(s.Total), "100%"},
		{"withdrawal-only", strconv.Itoa(s.WithdrawalOnly), fmt.Sprintf("%.1f%%", 100*s.WithdrawalRatio)},
		{"announcement-only", strconv.Itoa(s.AnnouncementOnly), fmt.Sprintf("%.1f%%", 100*s.AnnouncementRatio)},
		{"outside-only", strconv.Itoa(s.OutsideOnly), fmt.Sprintf("%.1f%%", 100*float64(s.OutsideOnly)/float64(s.Total))},
		{"ambiguous", strconv.Itoa(s.Ambiguous), fmt.Sprintf("%.1f%%", 100*float64(s.Ambiguous)/float64(s.Total))},
	}))

	if *longitudinal {
		fmt.Fprintln(w, "\nFigure 6 (longitudinal) — withdrawal-phase reveal ratio per year:")
		rows := analysis.Figure6Series(2010, 2020)
		var totals, ratios []float64
		for _, r := range rows {
			totals = append(totals, float64(r.Summary.Total))
			ratios = append(ratios, r.Summary.WithdrawalRatio*100)
		}
		fmt.Fprint(w, textplot.Lines([]textplot.Series{
			{Name: "total", Points: totals},
			{Name: "ratio", Points: ratios},
		}, 8))
		for _, r := range rows {
			fmt.Fprintf(w, "  %d: total=%5d withdrawal-only=%.1f%%\n",
				r.Year, r.Summary.Total, 100*r.Summary.WithdrawalRatio)
		}
	}
	return nil
}

// pathFigure is one of Figures 4/5: the first tagged session of one
// peer kind, the backup path of its first withdrawal-phase announcement,
// and the cumulative series of that path.
type pathFigure struct {
	kind    workload.PeerKind
	title   string
	peer    workload.Peer
	session classify.SessionKey
	backup  string
	series  *analysis.CumulativeAnalyzer
}

// findBackupPaths resolves each figure's session and backup path in one
// scan of src that stops once every session has its path, and returns
// the figures that have both.
func findBackupPaths(peers []workload.Peer, src stream.EventSource, sched beacon.Schedule, prefix netip.Prefix, figs []*pathFigure) []*pathFigure {
	pending := make(map[classify.SessionKey]*pathFigure)
	for _, f := range figs {
		for _, p := range peers {
			if p.Kind == f.kind && p.TaggedUpstream {
				f.peer = p
				f.session = classify.SessionKey{Collector: p.Collector, PeerAddr: p.Addr}
				pending[f.session] = f
				break
			}
		}
	}
	for e := range src {
		if len(pending) == 0 {
			break
		}
		if f := pending[e.Session()]; f != nil && e.Prefix == prefix && !e.Withdraw &&
			sched.PhaseAt(e.Time) == beacon.PhaseWithdrawal {
			f.backup = e.ASPath.String()
			delete(pending, f.session)
		}
	}
	var found []*pathFigure
	for _, f := range figs {
		if f.backup != "" {
			found = append(found, f)
		}
	}
	return found
}

// print writes the figure's cumulative per-type series and the
// withdrawal instants.
func (f *pathFigure) print(w io.Writer) {
	series := f.series.Series()
	fmt.Fprintf(w, "\n%s\n  session AS%d via path (%s):\n", f.title, f.peer.AS, f.backup)
	cum := 0
	for _, pt := range series.Points {
		cum++
		fmt.Fprintf(w, "  %s  %-2v  cumsum=%d\n", pt.Time.Format("15:04:05"), pt.Type, cum)
	}
	fmt.Fprintf(w, "  withdrawals at:")
	for _, t := range series.Withdrawals {
		fmt.Fprintf(w, " %s", t.Format("15:04"))
	}
	fmt.Fprintln(w)
}
