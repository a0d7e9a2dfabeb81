package analysis

import (
	"testing"
	"time"

	"repro/internal/beacon"
	"repro/internal/classify"
	"repro/internal/stream"
	"repro/internal/workload"
)

var day = time.Date(2020, 3, 15, 0, 0, 0, 0, time.UTC)

// genDay is a generated day held for the tests that read it more than
// once: its peers, its events in global time order (the merge of the
// per-session sources) and its counting window.
type genDay struct {
	peers    []workload.Peer
	events   []classify.Event
	day      time.Time
	inWindow func(classify.Event) bool
}

func (d *genDay) source() stream.EventSource { return stream.FromSlice(d.events) }

func merged(peers []workload.Peer, sources []stream.EventSource, day time.Time, inWindow func(classify.Event) bool) *genDay {
	return &genDay{peers: peers, events: stream.Collect(stream.Merge(sources...)), day: day, inWindow: inWindow}
}

func smallDay() *genDay {
	cfg := workload.DefaultDayConfig(day)
	cfg.Collectors = 3
	cfg.PeersPerCollector = 8
	cfg.PrefixesV4 = 150
	cfg.PrefixesV6 = 15
	peers, sources := workload.DaySources(cfg)
	return merged(peers, sources, cfg.Day, cfg.InWindow)
}

func smallBeaconCfg() workload.BeaconConfig {
	cfg := workload.DefaultBeaconConfig(day)
	cfg.Collectors = 4
	cfg.PeersPerCollector = 10
	return cfg
}

func beaconDay(cfg workload.BeaconConfig) *genDay {
	peers, sources := workload.BeaconSources(cfg)
	return merged(peers, sources, cfg.Day, cfg.InWindow)
}

// table1Of computes Table 1 over the day's counting window.
func table1Of(ds *genDay) Table1 {
	a := NewTable1()
	RunAll(ds.source(), ds.inWindow, a)
	return a.Table1()
}

func TestTable1Overview(t *testing.T) {
	ds := smallDay()
	t1 := table1Of(ds)
	if t1.PrefixesV4 == 0 || t1.PrefixesV6 == 0 {
		t.Errorf("prefix counts: %+v", t1)
	}
	if t1.PrefixesV4 < 5*t1.PrefixesV6 {
		t.Errorf("v4 should dominate v6 roughly 10:1: %d vs %d", t1.PrefixesV4, t1.PrefixesV6)
	}
	if t1.Sessions != 24 || t1.Peers != 24 {
		t.Errorf("sessions/peers: %+v", t1)
	}
	if t1.Announcements == 0 || t1.Withdrawals == 0 {
		t.Errorf("volume: %+v", t1)
	}
	if t1.WithCommunities == 0 || t1.WithCommunities >= t1.Announcements {
		t.Errorf("WithCommunities: %+v", t1)
	}
	if t1.UniqueCommunities == 0 || t1.UniqueASPaths == 0 || t1.ASes == 0 {
		t.Errorf("uniques: %+v", t1)
	}
	// Withdrawals are far rarer than announcements, as in Table 1.
	if t1.Withdrawals*5 > t1.Announcements {
		t.Errorf("withdrawals too frequent: %+v", t1)
	}
}

func TestTable1ExcludesWarmup(t *testing.T) {
	ds := smallDay()
	t1 := table1Of(ds)
	total := 0
	for _, e := range ds.events {
		if ds.inWindow(e) {
			total++
		}
	}
	if t1.Announcements+t1.Withdrawals != total {
		t.Errorf("table counts %d+%d != in-window events %d",
			t1.Announcements, t1.Withdrawals, total)
	}
	if total == len(ds.events) {
		t.Error("no warm-up events excluded; test is vacuous")
	}
}

func TestClassifyUsesWarmupState(t *testing.T) {
	// With warm-up events seeding state, the First share inside the day
	// must be small (only withdraw/re-announce cycles restart streams).
	ds := smallDay()
	cl := classify.New()
	var first, total int
	for _, e := range ds.events {
		res, ok := cl.Observe(e)
		if !ds.inWindow(e) || !ok {
			continue
		}
		total++
		if res.First {
			first++
		}
	}
	if total == 0 {
		t.Fatal("no announcements")
	}
	if frac := float64(first) / float64(total); frac > 0.15 {
		t.Errorf("First fraction = %.2f; warm-up seeding is not working", frac)
	}
}

func TestFigure2SeriesShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("generates 11 full synthetic days; skipped in -short mode")
	}
	rows := Figure2Series(2010, 2020)
	if len(rows) != 11 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Volume grows substantially over the decade (Figure 2's rising curves),
	// while the no-path-change share stays high throughout (§5: "updates
	// with no path change are common throughout the entire period").
	first, last := rows[0].Counts, rows[len(rows)-1].Counts
	if first.Announcements() >= last.Announcements() {
		t.Errorf("announcements should grow: %d -> %d", first.Announcements(), last.Announcements())
	}
	for _, r := range rows {
		if r.Counts.Announcements() == 0 {
			t.Fatalf("year %d empty", r.Year)
		}
		if s := r.Counts.NoPathChangeShare(); s < 0.30 || s > 0.65 {
			t.Errorf("year %d: nc+nn share %.2f outside the stable band", r.Year, s)
		}
		// pc and nn are the historically dominant types.
		if r.Counts.Share(classify.PC) < r.Counts.Share(classify.XC) {
			t.Errorf("year %d: degenerate type mix", r.Year)
		}
	}
}

func TestFigure3PerSession(t *testing.T) {
	cfg := smallBeaconCfg()
	ds := beaconDay(cfg)
	prefix := beacon.RIPEBeacons()[0].Prefix
	mix := NewSessionMix("rrc00", prefix)
	RunAll(ds.source(), ds.inWindow, mix)
	mixes := mix.Mixes()
	if len(mixes) != cfg.PeersPerCollector {
		t.Fatalf("sessions = %d, want %d", len(mixes), cfg.PeersPerCollector)
	}
	for i := 1; i < len(mixes); i++ {
		if mixes[i].Total() > mixes[i-1].Total() {
			t.Error("sessions not sorted by announcement count")
		}
	}
	// §6: each session shows a diverse type distribution. Across sessions
	// we must observe several distinct types.
	seen := map[classify.Type]bool{}
	for _, m := range mixes {
		for _, ty := range classify.Types() {
			if m.Counts.Of(ty) > 0 {
				seen[ty] = true
			}
		}
		if m.Counts.Withdrawals != 6 {
			t.Errorf("session %v: %d withdrawals, want 6", m.Session, m.Counts.Withdrawals)
		}
	}
	if len(seen) < 3 {
		t.Errorf("only %d types across sessions", len(seen))
	}
	// Filtering by another collector yields a disjoint session set.
	other := NewSessionMix("rrc01", prefix)
	RunAll(ds.source(), ds.inWindow, other)
	for _, m := range other.Mixes() {
		if m.Session.Collector != "rrc01" {
			t.Error("collector filter leaked")
		}
	}
}

// findStream locates a (session, beacon prefix, backup path) triple for a
// peer with the wanted kind and tagging, returning the session, the backup
// path string.
func findStream(t *testing.T, ds *genDay, kind workload.PeerKind, tagged bool) (classify.SessionKey, string) {
	t.Helper()
	var peer *workload.Peer
	for i := range ds.peers {
		p := ds.peers[i]
		if p.Kind == kind && p.TaggedUpstream == tagged {
			peer = &ds.peers[i]
			break
		}
	}
	if peer == nil {
		t.Fatal("no matching peer in dataset")
	}
	session := classify.SessionKey{Collector: peer.Collector, PeerAddr: peer.Addr}
	prefix := beacon.RIPEBeacons()[0].Prefix
	// The backup path is the one announced during withdrawal phases (4 hops
	// in the generator vs 4-hop primary; distinguish by phase).
	sched := workload.DefaultBeaconConfig(ds.day).Schedule
	for _, e := range ds.events {
		if e.Session() != session || e.Prefix != prefix || e.Withdraw {
			continue
		}
		if sched.PhaseAt(e.Time) == beacon.PhaseWithdrawal {
			return session, e.ASPath.String()
		}
	}
	t.Fatal("no withdrawal-phase announcement found")
	return session, ""
}

func TestFigure4CommunityExploration(t *testing.T) {
	// A geo-tagged, non-cleaning session: announcements on the backup path
	// appear only during withdrawal phases, starting with pc followed by
	// nc's (community exploration).
	ds := beaconDay(smallBeaconCfg())
	session, backup := findStream(t, ds, workload.PeerTransparent, true)
	prefix := beacon.RIPEBeacons()[0].Prefix
	cum := NewCumulative(session, prefix, backup)
	RunAll(ds.source(), ds.inWindow, cum)
	series := cum.Series()
	if len(series.Points) < 6 {
		t.Fatalf("points = %d, want >= 6 (one per withdrawal phase)", len(series.Points))
	}
	if len(series.Withdrawals) != 6 {
		t.Fatalf("withdrawals = %d, want 6", len(series.Withdrawals))
	}
	counts := series.TypeCounts()
	if counts.Of(classify.PC) != 6 {
		t.Errorf("pc = %d, want exactly 6 (phase openers)", counts.Of(classify.PC))
	}
	if counts.Of(classify.NN) != 0 {
		t.Errorf("nn = %d on a transparent tagged path", counts.Of(classify.NN))
	}
	sched := workload.DefaultBeaconConfig(ds.day).Schedule
	for _, p := range series.Points {
		if sched.PhaseAt(p.Time) != beacon.PhaseWithdrawal {
			t.Errorf("backup-path announcement at %v outside withdrawal phase", p.Time)
		}
	}
}

func TestFigure5DuplicatesFromEgressCleaning(t *testing.T) {
	// An egress-cleaning session: withdrawal phases open with pn (no
	// communities visible) followed by nn duplicates.
	ds := beaconDay(smallBeaconCfg())
	session, backup := findStream(t, ds, workload.PeerCleansEgress, true)
	prefix := beacon.RIPEBeacons()[0].Prefix
	cum := NewCumulative(session, prefix, backup)
	RunAll(ds.source(), ds.inWindow, cum)
	series := cum.Series()
	counts := series.TypeCounts()
	if counts.Of(classify.PN) != 6 {
		t.Errorf("pn = %d, want 6", counts.Of(classify.PN))
	}
	if counts.Of(classify.NN) == 0 {
		t.Error("no nn duplicates on a cleaning path")
	}
	if counts.Of(classify.NC) != 0 || counts.Of(classify.PC) != 0 {
		t.Errorf("community types on a cleaned path: %+v", counts)
	}
}

func TestFigure6Revealed(t *testing.T) {
	cfg := workload.DefaultBeaconConfig(day)
	_, sources := workload.BeaconSources(cfg)
	revealed := NewRevealed(cfg.Schedule)
	RunAll(stream.Concat(sources...), cfg.InWindow, revealed)
	s := revealed.Summary()
	if s.Total == 0 {
		t.Fatal("no community attributes observed")
	}
	// Paper: 62% withdrawal-only, 17% announcement-only, <1% outside.
	if s.WithdrawalRatio < 0.55 || s.WithdrawalRatio > 0.72 {
		t.Errorf("withdrawal ratio = %.2f, want ~0.62", s.WithdrawalRatio)
	}
	if s.AnnouncementRatio < 0.08 || s.AnnouncementRatio > 0.25 {
		t.Errorf("announcement ratio = %.2f, want ~0.17", s.AnnouncementRatio)
	}
	if float64(s.OutsideOnly)/float64(s.Total) > 0.02 {
		t.Errorf("outside-only = %d of %d, want <1%%", s.OutsideOnly, s.Total)
	}
}

func TestFigure6SeriesStableRatio(t *testing.T) {
	rows := Figure6Series(2012, 2020)
	if len(rows) != 9 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Summary.Total == 0 {
			t.Fatalf("year %d: no attributes", r.Year)
		}
		// §6: "a stable ratio of about 60%" across the decade.
		if r.Summary.WithdrawalRatio < 0.50 || r.Summary.WithdrawalRatio > 0.75 {
			t.Errorf("year %d: ratio %.2f outside the stable band", r.Year, r.Summary.WithdrawalRatio)
		}
	}
	// Total revealed attributes grow multifold over the years.
	if rows[0].Summary.Total*2 > rows[len(rows)-1].Summary.Total*3 {
		t.Errorf("totals should grow: %d -> %d", rows[0].Summary.Total, rows[len(rows)-1].Summary.Total)
	}
}

func TestBeaconSubset(t *testing.T) {
	ds := smallDay()
	// The day generator uses 10.0.0.0/8 and 2001:db8::/32 prefixes, none of
	// which are beacons.
	beacons := func(ds *genDay) int {
		return stream.Count(stream.Filter(ds.source(), func(e classify.Event) bool {
			return beacon.IsBeaconPrefix(e.Prefix)
		}))
	}
	if n := beacons(ds); n != 0 {
		t.Errorf("day dataset should contain no beacon prefixes, got %d", n)
	}
	bds := beaconDay(smallBeaconCfg())
	if n := beacons(bds); n != len(bds.events) {
		t.Errorf("beacon dataset should be fully retained: %d vs %d", n, len(bds.events))
	}
}

func TestFigure2QuarterlySampling(t *testing.T) {
	if testing.Short() {
		t.Skip("generates 8 full synthetic days; skipped in -short mode")
	}
	rows := Figure2SeriesQuarterly(2019, 2020)
	if len(rows) != 8 {
		t.Fatalf("rows = %d, want 8 (two years, quarterly)", len(rows))
	}
	seen := map[[2]int]bool{}
	for _, r := range rows {
		if r.Counts.Announcements() == 0 {
			t.Errorf("%d Q%d empty", r.Year, r.Quarter)
		}
		key := [2]int{r.Year, r.Quarter}
		if seen[key] {
			t.Errorf("duplicate sample %v", key)
		}
		seen[key] = true
		// Quarters of the same year differ (distinct seeds).
		if s := r.Counts.NoPathChangeShare(); s < 0.30 || s > 0.65 {
			t.Errorf("%d Q%d: nc+nn share %.2f", r.Year, r.Quarter, s)
		}
	}
	// Distinct quarterly days within a year.
	days := workload.QuarterlyDays(2020)
	if len(days) != 4 || days[0].Month() != 3 || days[3].Month() != 12 {
		t.Errorf("quarterly days: %v", days)
	}
	// Quarter clamping.
	if workload.HistoricalQuarterConfig(2020, -1).Day.Month() != 3 {
		t.Error("quarter clamp low")
	}
	if workload.HistoricalQuarterConfig(2020, 9).Day.Month() != 12 {
		t.Error("quarter clamp high")
	}
}
