package repro

import (
	"bytes"
	"context"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/beacon"
	"repro/internal/bgp"
	"repro/internal/classify"
	"repro/internal/collector"
	"repro/internal/dampening"
	"repro/internal/evstore"
	"repro/internal/labexp"
	"repro/internal/lz"
	"repro/internal/mrt"
	"repro/internal/pipeline"
	"repro/internal/registry"
	"repro/internal/router"
	"repro/internal/session"
	"repro/internal/simnet"
	"repro/internal/stream"
	"repro/internal/workload"
)

// TestMain cleans up the store/MRT fixtures shared across benchmarks.
func TestMain(m *testing.M) {
	code := m.Run()
	for _, dir := range []string{storeFixtureDir, mrtFixtureDir, figure2FixtureDir} {
		if dir != "" {
			os.RemoveAll(dir)
		}
	}
	os.Exit(code)
}

var benchDay = time.Date(2020, 3, 15, 0, 0, 0, 0, time.UTC)

// benchData is a generated day held in memory so a benchmark times its
// analysis, not the generator: the peers and per-session sources, the
// events in global time order, and the counting window.
type benchData struct {
	peers    []workload.Peer
	sources  []stream.EventSource
	events   []classify.Event
	inWindow func(classify.Event) bool
}

func (d *benchData) source() stream.EventSource { return stream.FromSlice(d.events) }

func newBenchData(peers []workload.Peer, sources []stream.EventSource, inWindow func(classify.Event) bool) *benchData {
	return &benchData{peers: peers, sources: sources,
		events: stream.Collect(stream.Merge(sources...)), inWindow: inWindow}
}

// Shared datasets, generated once.
var (
	dayOnce sync.Once
	dayDS   *benchData

	beaconOnce sync.Once
	beaconDS   *benchData
	beaconCfg  workload.BeaconConfig
)

func benchDayData() *benchData {
	dayOnce.Do(func() {
		cfg := workload.DefaultDayConfig(benchDay)
		cfg.Collectors = 4
		cfg.PeersPerCollector = 10
		cfg.PrefixesV4 = 250
		cfg.PrefixesV6 = 25
		peers, sources := workload.DaySources(cfg)
		dayDS = newBenchData(peers, sources, cfg.InWindow)
	})
	return dayDS
}

func benchBeaconData() (*benchData, workload.BeaconConfig) {
	beaconOnce.Do(func() {
		beaconCfg = workload.DefaultBeaconConfig(benchDay)
		beaconCfg.Collectors = 4
		beaconCfg.PeersPerCollector = 10
		peers, sources := workload.BeaconSources(beaconCfg)
		beaconDS = newBenchData(peers, sources, beaconCfg.InWindow)
	})
	return beaconDS, beaconCfg
}

// countTypes classifies src in one pass and returns the Table 2 counts of
// its in-window events (nil counts every event).
func countTypes(src stream.EventSource, inWindow func(classify.Event) bool) classify.Counts {
	counts := analysis.NewCounts()
	analysis.RunAll(src, inWindow, counts)
	return counts.Counts
}

// report runs the combined Table 1 + Table 2 pass over every event.
func report(src stream.EventSource) (analysis.Table1, classify.Counts) {
	t1, counts := analysis.NewTable1(), analysis.NewCounts()
	analysis.RunAll(src, nil, t1, counts)
	return t1.Table1(), counts.Counts
}

// --- Lab experiments (paper §3, DESIGN E1-E4) ------------------------------

func benchmarkExperiment(b *testing.B, e labexp.Experiment, vendor router.Behavior) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := labexp.Run(e, vendor)
		if err != nil {
			b.Fatal(err)
		}
		_ = res
	}
}

func BenchmarkExp1(b *testing.B) { benchmarkExperiment(b, labexp.Exp1, router.CiscoIOS) }
func BenchmarkExp2(b *testing.B) { benchmarkExperiment(b, labexp.Exp2, router.CiscoIOS) }
func BenchmarkExp3(b *testing.B) { benchmarkExperiment(b, labexp.Exp3, router.CiscoIOS) }
func BenchmarkExp4(b *testing.B) { benchmarkExperiment(b, labexp.Exp4, router.CiscoIOS) }

// BenchmarkVendorMatrix regenerates the §3 summary matrix (DESIGN S1):
// four experiments across five vendor profiles.
func BenchmarkVendorMatrix(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, e := range []labexp.Experiment{labexp.Exp1, labexp.Exp2, labexp.Exp3, labexp.Exp4} {
			for _, vendor := range router.AllBehaviors() {
				if _, err := labexp.Run(e, vendor); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// --- Table 1 / Table 2 (paper §4-§5, DESIGN T1/T2) -------------------------

// BenchmarkTable1 computes the d_mar20 overview statistics.
func BenchmarkTable1(b *testing.B) {
	ds := benchDayData()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t1a := analysis.NewTable1()
		analysis.RunAll(ds.source(), ds.inWindow, t1a)
		if t1a.Table1().Announcements == 0 {
			b.Fatal("empty table")
		}
	}
	b.ReportMetric(float64(len(ds.events)), "events")
}

// BenchmarkTable2 classifies the full day into the six announcement types.
func BenchmarkTable2(b *testing.B) {
	ds := benchDayData()
	b.ResetTimer()
	b.ReportAllocs()
	var counts classify.Counts
	for i := 0; i < b.N; i++ {
		counts = countTypes(ds.source(), ds.inWindow)
	}
	for _, ty := range classify.Types() {
		b.ReportMetric(100*counts.Share(ty), ty.String()+"_pct")
	}
}

// BenchmarkTable2BeaconColumn classifies the d_beacon subset (Table 2's
// second column).
func BenchmarkTable2BeaconColumn(b *testing.B) {
	ds, _ := benchBeaconData()
	b.ResetTimer()
	b.ReportAllocs()
	var counts classify.Counts
	for i := 0; i < b.N; i++ {
		counts = countTypes(ds.source(), ds.inWindow)
	}
	b.ReportMetric(100*counts.Share(classify.PC), "pc_pct")
}

// --- Figures (paper §5-§6, DESIGN F2-F6) -----------------------------------

// BenchmarkFigure2 answers the longitudinal per-type series over a
// three-year slice the way the query daemon does: one windowed
// vectorized scan of a multi-year store per year (full decade in
// examples/longitudinal). The store is ingested once outside the
// timer; each op pays only the per-year scan cost — the Figure 2
// "cold series" number. Compare BenchmarkFigure2Generate, the
// generate-and-classify path this replaces.
func BenchmarkFigure2(b *testing.B) {
	dir := benchFigure2Fixture(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for y := 2018; y <= 2020; y++ {
			win := evstore.TimeRange{
				From: time.Date(y, 1, 1, 0, 0, 0, 0, time.UTC),
				To:   time.Date(y+1, 1, 1, 0, 0, 0, 0, time.UTC),
			}
			counts := analysis.NewCounts()
			if _, err := evstore.ScanAnalyze(context.Background(), dir, evstore.Query{}, win, counts); err != nil {
				b.Fatal(err)
			}
			if counts.Counts.Announcements() == 0 {
				b.Fatalf("year %d: empty series", y)
			}
		}
	}
}

// BenchmarkFigure2Generate regenerates the same three-year series from
// scratch — workload synthesis plus classification per year, the cost
// of the series before the store existed.
func BenchmarkFigure2Generate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows := analysis.Figure2Series(2018, 2020)
		if len(rows) != 3 {
			b.Fatal("bad series")
		}
	}
}

// BenchmarkFigure3 computes the per-session type mix for one beacon at one
// collector.
func BenchmarkFigure3(b *testing.B) {
	ds, _ := benchBeaconData()
	prefix := beacon.RIPEBeacons()[0].Prefix
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mix := analysis.NewSessionMix("rrc00", prefix)
		analysis.RunAll(ds.source(), ds.inWindow, mix)
		if len(mix.Mixes()) == 0 {
			b.Fatal("no sessions")
		}
	}
}

// figureSessionPath finds a (session, backup path) pair for the cumulative
// figures.
func figureSessionPath(b *testing.B, kind workload.PeerKind) (classify.SessionKey, string) {
	ds, cfg := benchBeaconData()
	var peer *workload.Peer
	for i := range ds.peers {
		if ds.peers[i].Kind == kind && ds.peers[i].TaggedUpstream {
			peer = &ds.peers[i]
			break
		}
	}
	if peer == nil {
		b.Fatal("no matching peer")
	}
	session := classify.SessionKey{Collector: peer.Collector, PeerAddr: peer.Addr}
	prefix := beacon.RIPEBeacons()[0].Prefix
	for _, e := range ds.events {
		if e.Session() == session && e.Prefix == prefix && !e.Withdraw &&
			cfg.Schedule.PhaseAt(e.Time) == beacon.PhaseWithdrawal {
			return session, e.ASPath.String()
		}
	}
	b.Fatal("no backup path found")
	return session, ""
}

// BenchmarkFigure4 extracts the community-exploration cumulative series on
// a geo-tagged transparent path.
func BenchmarkFigure4(b *testing.B) {
	ds, _ := benchBeaconData()
	session, path := figureSessionPath(b, workload.PeerTransparent)
	prefix := beacon.RIPEBeacons()[0].Prefix
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cum := analysis.NewCumulative(session, prefix, path)
		analysis.RunAll(ds.source(), ds.inWindow, cum)
		if len(cum.Series().Points) == 0 {
			b.Fatal("empty series")
		}
	}
}

// BenchmarkFigure5 does the same for an egress-cleaning path (nn bursts).
func BenchmarkFigure5(b *testing.B) {
	ds, _ := benchBeaconData()
	session, path := figureSessionPath(b, workload.PeerCleansEgress)
	prefix := beacon.RIPEBeacons()[0].Prefix
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cum := analysis.NewCumulative(session, prefix, path)
		analysis.RunAll(ds.source(), ds.inWindow, cum)
		if len(cum.Series().Points) == 0 {
			b.Fatal("empty series")
		}
	}
}

// BenchmarkFigure6 runs the revealed-community attribution for one day.
func BenchmarkFigure6(b *testing.B) {
	ds, cfg := benchBeaconData()
	b.ResetTimer()
	b.ReportAllocs()
	var s beacon.RevealedSummary
	for i := 0; i < b.N; i++ {
		revealed := analysis.NewRevealed(cfg.Schedule)
		analysis.RunAll(ds.source(), ds.inWindow, revealed)
		s = revealed.Summary()
	}
	b.ReportMetric(100*s.WithdrawalRatio, "withdrawal_pct")
}

// --- Substrate micro-benchmarks ---------------------------------------------

func benchUpdate() *bgp.Update {
	return &bgp.Update{
		NLRI: []netip.Prefix{netip.MustParsePrefix("84.205.64.0/24")},
		Attrs: bgp.PathAttrs{
			Origin:  bgp.OriginIGP,
			ASPath:  bgp.NewASPath(20205, 3356, 174, 12654),
			NextHop: netip.MustParseAddr("10.0.0.1"),
			Communities: bgp.Communities{
				bgp.NewCommunity(3356, 901), bgp.NewCommunity(3356, 2),
				bgp.NewCommunity(3356, 2056),
			},
		},
	}
}

// BenchmarkUpdateMarshal measures BGP UPDATE serialization.
func BenchmarkUpdateMarshal(b *testing.B) {
	u := benchUpdate()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := bgp.Marshal(u, bgp.MarshalOptions{FourByteAS: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUpdateUnmarshal measures BGP UPDATE parsing.
func BenchmarkUpdateUnmarshal(b *testing.B) {
	wire, err := bgp.Marshal(benchUpdate(), bgp.MarshalOptions{FourByteAS: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := bgp.Unmarshal(wire, bgp.MarshalOptions{FourByteAS: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMRTWriteRead measures archive write + streaming read of 1000
// records.
func BenchmarkMRTWriteRead(b *testing.B) {
	wire, _ := bgp.Marshal(benchUpdate(), bgp.MarshalOptions{FourByteAS: true})
	rec := &mrt.BGP4MPMessage{
		PeerAS: 20205, LocalAS: 12654,
		PeerAddr:  netip.MustParseAddr("203.0.113.5"),
		LocalAddr: netip.MustParseAddr("203.0.113.1"),
		Data:      wire, FourByteAS: true,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		w := mrt.NewWriter(&buf)
		w.ExtendedTime = true
		for j := 0; j < 1000; j++ {
			if err := w.Write(benchDay.Add(time.Duration(j)*time.Second), rec); err != nil {
				b.Fatal(err)
			}
		}
		w.Flush()
		n := 0
		err := mrt.NewReader(&buf).Walk(func(mrt.Header, mrt.Record) error { n++; return nil })
		if err != nil || n != 1000 {
			b.Fatalf("n=%d err=%v", n, err)
		}
	}
}

// BenchmarkClassifier measures streaming classification throughput.
func BenchmarkClassifier(b *testing.B) {
	ds := benchDayData()
	b.SetBytes(int64(len(ds.events)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cl := classify.New()
		for _, e := range ds.events {
			cl.Observe(e)
		}
	}
	b.ReportMetric(float64(len(ds.events)), "events/op")
}

// BenchmarkDaySynthesis measures workload synthesis itself: the day's
// per-session sources merged into global time order.
func BenchmarkDaySynthesis(b *testing.B) {
	cfg := workload.DefaultDayConfig(benchDay)
	cfg.Collectors = 2
	cfg.PeersPerCollector = 5
	cfg.PrefixesV4 = 100
	cfg.PrefixesV6 = 10
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, sources := workload.DaySources(cfg)
		if stream.Count(stream.Merge(sources...)) == 0 {
			b.Fatal("empty dataset")
		}
	}
}

// BenchmarkRouterConvergence measures a full lab build + convergence +
// failure cycle, the unit of every experiment.
func BenchmarkRouterConvergence(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := labexp.Run(labexp.Exp2, router.BIRD2)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.X1toC1) != 1 {
			b.Fatalf("unexpected result: %d", len(res.X1toC1))
		}
	}
}

// BenchmarkAblationDuplicateSuppression quantifies the message savings of
// Junos-style duplicate suppression across all four experiments — the
// design choice DESIGN.md calls out.
func BenchmarkAblationDuplicateSuppression(b *testing.B) {
	for _, vendor := range []router.Behavior{router.CiscoIOS, router.Junos} {
		b.Run(vendor.Name, func(b *testing.B) {
			b.ReportAllocs()
			total := 0
			for i := 0; i < b.N; i++ {
				total = 0
				for _, e := range []labexp.Experiment{labexp.Exp1, labexp.Exp2, labexp.Exp3, labexp.Exp4} {
					res, err := labexp.Run(e, vendor)
					if err != nil {
						b.Fatal(err)
					}
					total += len(res.Y1toX1) + len(res.X1toC1)
				}
			}
			b.ReportMetric(float64(total), "msgs")
		})
	}
}

// BenchmarkAblationCleaningPlacement compares ingress vs egress community
// cleaning (Exp3 vs Exp4): identical reachability, different collector
// load.
func BenchmarkAblationCleaningPlacement(b *testing.B) {
	for _, e := range []labexp.Experiment{labexp.Exp3, labexp.Exp4} {
		b.Run(fmt.Sprintf("%v", e), func(b *testing.B) {
			msgs := 0
			for i := 0; i < b.N; i++ {
				res, err := labexp.Run(e, router.CiscoIOS)
				if err != nil {
					b.Fatal(err)
				}
				msgs = len(res.X1toC1)
			}
			b.ReportMetric(float64(msgs), "collector_msgs")
		})
	}
}

// BenchmarkAblationMRAI quantifies how a 30-second MRAI reduces messages
// under rapid attribute churn: three community flips in one interval reach
// the downstream peer as a single coalesced update.
func BenchmarkAblationMRAI(b *testing.B) {
	run := func(mrai time.Duration) int {
		n := router.NewNetwork(benchDay)
		a := n.AddRouter("A", 65001, netip.MustParseAddr("10.255.0.1"), router.CiscoIOS)
		m := n.AddRouter("B", 65002, netip.MustParseAddr("10.255.0.2"), router.CiscoIOS)
		c := n.AddRouter("C", 65003, netip.MustParseAddr("10.255.0.3"), router.CiscoIOS)
		n.Connect(a, m, router.SessionConfig{
			AAddr: netip.MustParseAddr("10.0.1.1"), BAddr: netip.MustParseAddr("10.0.1.2"),
		})
		n.Connect(m, c, router.SessionConfig{
			AAddr: netip.MustParseAddr("10.0.2.2"), BAddr: netip.MustParseAddr("10.0.2.3"),
			AMRAI: mrai,
		})
		p := netip.MustParsePrefix("192.0.2.0/24")
		a.Originate(p, bgp.Communities{bgp.NewCommunity(65001, 1)})
		n.Run()
		n.Engine.RunUntil(n.Engine.Now().Add(time.Minute))
		n.EnableTrace()
		for i := uint16(2); i <= 6; i++ {
			a.Originate(p, bgp.Communities{bgp.NewCommunity(65001, i)})
			n.Engine.RunUntil(n.Engine.Now().Add(2 * time.Second))
		}
		n.Run()
		return len(n.TraceBetween("B", "C"))
	}
	for _, tc := range []struct {
		name string
		mrai time.Duration
	}{{"no-mrai", 0}, {"mrai-30s", 30 * time.Second}} {
		b.Run(tc.name, func(b *testing.B) {
			msgs := 0
			for i := 0; i < b.N; i++ {
				msgs = run(tc.mrai)
			}
			b.ReportMetric(float64(msgs), "downstream_msgs")
		})
	}
}

// BenchmarkSessionThroughput measures live update exchange over a real
// TCP loopback session, updates per second end to end.
func BenchmarkSessionThroughput(b *testing.B) {
	lnCfg := session.Config{
		LocalAS:  12654,
		RouterID: netip.MustParseAddr("198.51.100.1"),
		HoldTime: 90 * time.Second,
	}
	received := make(chan struct{}, 4096)
	lnCfg.OnUpdate = func(*bgp.Update) { received <- struct{}{} }
	ln, err := session.Listen("127.0.0.1:0", lnCfg)
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	go func() {
		s, err := ln.Accept()
		if err != nil {
			return
		}
		s.Run()
	}()
	s, err := session.Dial(ln.Addr().String(), session.Config{
		LocalAS:  65001,
		RouterID: netip.MustParseAddr("10.0.0.1"),
		HoldTime: 90 * time.Second,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	go s.Run()

	u := benchUpdate()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := s.Send(u); err != nil {
			b.Fatal(err)
		}
		<-received
	}
}

// BenchmarkAblationDampening quantifies route-flap dampening (RFC 2439):
// eight rapid flap cycles downstream with and without dampening enabled on
// the intermediate AS.
func BenchmarkAblationDampening(b *testing.B) {
	run := func(useDamp bool) int {
		n := router.NewNetwork(benchDay)
		a := n.AddRouter("A", 65001, netip.MustParseAddr("10.255.0.1"), router.CiscoIOS)
		m := n.AddRouter("B", 65002, netip.MustParseAddr("10.255.0.2"), router.CiscoIOS)
		c := n.AddRouter("C", 65003, netip.MustParseAddr("10.255.0.3"), router.CiscoIOS)
		scfg := router.SessionConfig{
			AAddr: netip.MustParseAddr("10.0.1.1"), BAddr: netip.MustParseAddr("10.0.1.2"),
		}
		if useDamp {
			dcfg := dampening.DefaultConfig()
			scfg.BDampening = &dcfg
		}
		n.Connect(a, m, scfg)
		n.Connect(m, c, router.SessionConfig{
			AAddr: netip.MustParseAddr("10.0.2.2"), BAddr: netip.MustParseAddr("10.0.2.3"),
		})
		n.EnableTrace()
		p := netip.MustParsePrefix("192.0.2.0/24")
		for i := 0; i < 8; i++ {
			a.Originate(p, nil)
			n.Engine.RunUntil(n.Engine.Now().Add(10 * time.Second))
			a.WithdrawOriginated(p)
			n.Engine.RunUntil(n.Engine.Now().Add(10 * time.Second))
		}
		return len(n.TraceBetween("B", "C"))
	}
	for _, tc := range []struct {
		name string
		damp bool
	}{{"no-dampening", false}, {"dampening", true}} {
		b.Run(tc.name, func(b *testing.B) {
			msgs := 0
			for i := 0; i < b.N; i++ {
				msgs = run(tc.damp)
			}
			b.ReportMetric(float64(msgs), "downstream_msgs")
		})
	}
}

// --- Columnar event store (internal/evstore) --------------------------------

var (
	storeFixtureOnce sync.Once
	storeFixtureDir  string
	mrtFixtureDir    string
	storeFixtureErr  error

	figure2FixtureOnce sync.Once
	figure2FixtureDir  string
	figure2FixtureErr  error
)

// benchFigure2Fixture ingests one synthetic day per year for 2018-2020
// into a shared store — the multi-year corpus BenchmarkFigure2 answers
// its windowed per-year queries against.
func benchFigure2Fixture(b *testing.B) string {
	figure2FixtureOnce.Do(func() {
		if figure2FixtureDir, figure2FixtureErr = os.MkdirTemp("", "repro-bench-fig2-"); figure2FixtureErr != nil {
			return
		}
		for y := 2018; y <= 2020; y++ {
			cfg := workload.HistoricalDayConfig(y)
			_, sources := workload.DaySources(cfg)
			if _, figure2FixtureErr = evstore.Ingest(figure2FixtureDir, stream.Concat(sources...)); figure2FixtureErr != nil {
				return
			}
		}
	})
	if figure2FixtureErr != nil {
		b.Fatal(figure2FixtureErr)
	}
	return figure2FixtureDir
}

// benchStoreFixture ingests the shared benchmark day into an event
// store once and writes the same events as per-collector MRT archives —
// the two on-disk forms whose repeat-analysis costs the Store benchmarks
// compare.
func benchStoreFixture(b *testing.B) (storeDir, mrtDir string) {
	storeFixtureOnce.Do(func() {
		ds := benchDayData()
		if storeFixtureDir, storeFixtureErr = os.MkdirTemp("", "repro-bench-store-"); storeFixtureErr != nil {
			return
		}
		if mrtFixtureDir, storeFixtureErr = os.MkdirTemp("", "repro-bench-mrt-"); storeFixtureErr != nil {
			return
		}
		if _, storeFixtureErr = collector.WriteSourcesDir(ds.peers, ds.sources, mrtFixtureDir); storeFixtureErr != nil {
			return
		}
		_, storeFixtureErr = evstore.Ingest(storeFixtureDir, ds.source())
	})
	if storeFixtureErr != nil {
		b.Fatal(storeFixtureErr)
	}
	return storeFixtureDir, mrtFixtureDir
}

// BenchmarkStoreIngest measures one-pass columnar ingest of the full
// benchmark day into a fresh store.
func BenchmarkStoreIngest(b *testing.B) {
	ds := benchDayData()
	b.ResetTimer()
	b.ReportAllocs()
	var st evstore.WriterStats
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir, err := os.MkdirTemp("", "repro-bench-ingest-")
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		st, err = evstore.Ingest(dir, ds.source())
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		os.RemoveAll(dir)
		b.StartTimer()
	}
	b.ReportMetric(float64(st.Events), "events")
	b.ReportMetric(float64(st.Bytes), "store_bytes")
}

// BenchmarkStoreScan runs the combined Table 1 + Table 2 report off a
// full store scan through the vectorized batch engine: blocks decode
// into column batches, the classifier and both analyzers aggregate on
// dictionary ids, and no event is materialized. Compare with
// BenchmarkStoreScanRow (the row-at-a-time path this replaces) and
// BenchmarkStoreMRTReparse (re-parsing MRT archives instead of
// scanning the store).
func BenchmarkStoreScan(b *testing.B) {
	storeDir, _ := benchStoreFixture(b)
	b.ResetTimer()
	b.ReportAllocs()
	var counts classify.Counts
	for i := 0; i < b.N; i++ {
		t1a := analysis.NewTable1()
		ca := analysis.NewCounts()
		if _, err := evstore.ScanAnalyze(context.Background(), storeDir, evstore.Query{}, evstore.TimeRange{}, t1a, ca); err != nil {
			b.Fatal(err)
		}
		if t1a.Table1().Announcements == 0 {
			b.Fatal("empty report")
		}
		counts = ca.Counts
	}
	b.ReportMetric(float64(counts.Announcements()), "announcements")
}

// BenchmarkStoreScanRow runs the identical report through the
// row-at-a-time path: every stored event is materialized (times,
// strings, paths, community sets) and fed to Observe one by one — the
// head-to-head baseline for the batch kernel above.
func BenchmarkStoreScanRow(b *testing.B) {
	storeDir, _ := benchStoreFixture(b)
	b.ResetTimer()
	b.ReportAllocs()
	var counts classify.Counts
	for i := 0; i < b.N; i++ {
		var scanErr error
		t1, c := report(evstore.Scan(storeDir, evstore.Query{}, &scanErr))
		if scanErr != nil {
			b.Fatal(scanErr)
		}
		if t1.Announcements == 0 {
			b.Fatal("empty report")
		}
		counts = c
	}
	b.ReportMetric(float64(counts.Announcements()), "announcements")
}

// lzCorpus builds the LZ benchmark input: the largest partition of the
// benchmark day written with the raw codec, i.e. real columnar block
// bytes — dictionary-coded strings, delta-varint times, prefix bytes —
// not synthetic filler, so the measured ratio and speed are the ones
// store scans actually see.
func lzCorpus(b *testing.B) []byte {
	dir, err := os.MkdirTemp("", "repro-bench-lz-")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	w, err := evstore.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	w.Codec = evstore.CodecRaw
	if err := w.Ingest(benchDayData().source()); err != nil {
		b.Fatal(err)
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	names, err := filepath.Glob(filepath.Join(dir, "*.evp"))
	if err != nil || len(names) == 0 {
		b.Fatalf("no partitions for lz corpus: %v", err)
	}
	var corpus []byte
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			b.Fatal(err)
		}
		if len(data) > len(corpus) {
			corpus = data
		}
	}
	return corpus
}

// BenchmarkLZRoundTrip measures the in-repo LZ codec on real store
// block bytes: one compress + one decompress per iteration, with the
// achieved ratio reported. A cold scan pays the decompress half of it
// once per lz block it decodes.
func BenchmarkLZRoundTrip(b *testing.B) {
	src := lzCorpus(b)
	var enc lz.Encoder
	comp := enc.Compress(nil, src)
	dst := make([]byte, len(src))
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		comp = enc.Compress(comp[:0], src)
		if err := lz.Decompress(dst, comp); err != nil {
			b.Fatal(err)
		}
	}
	if !bytes.Equal(dst, src) {
		b.Fatal("round trip diverged")
	}
	b.ReportMetric(100*float64(len(comp))/float64(len(src)), "ratio_%")
}

// BenchmarkStoreMRTReparse re-runs the same report by re-parsing the
// equivalent MRT archives through the §4 normalizer — what every
// analysis run cost before the store existed.
func BenchmarkStoreMRTReparse(b *testing.B) {
	_, mrtDir := benchStoreFixture(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		norm := pipeline.NewNormalizer(registry.Synthetic(time.Date(2009, 1, 1, 0, 0, 0, 0, time.UTC)))
		var srcErr error
		_, sources, err := pipeline.DirSources(norm, mrtDir, &srcErr)
		if err != nil {
			b.Fatal(err)
		}
		t1, _ := report(stream.Concat(sources...))
		if srcErr != nil {
			b.Fatal(srcErr)
		}
		if t1.Announcements == 0 {
			b.Fatal("empty report")
		}
	}
}

// BenchmarkStoreScanWindow classifies a two-hour, one-collector slice:
// predicate pushdown prunes the other collectors' partitions and
// non-overlapping blocks before any decoding.
func BenchmarkStoreScanWindow(b *testing.B) {
	storeDir, _ := benchStoreFixture(b)
	q := evstore.Query{
		Window: evstore.TimeRange{
			From: benchDay.Add(6 * time.Hour),
			To:   benchDay.Add(8 * time.Hour),
		},
		Collectors: []string{"rrc00"},
	}
	b.ResetTimer()
	b.ReportAllocs()
	var st evstore.ScanStats
	for i := 0; i < b.N; i++ {
		var scanErr error
		counts := countTypes(evstore.ScanWithStats(storeDir, q, &scanErr, &st), nil)
		if scanErr != nil {
			b.Fatal(scanErr)
		}
		if counts.Announcements() == 0 {
			b.Fatal("empty window")
		}
	}
	b.ReportMetric(float64(st.Events), "events")
	b.ReportMetric(float64(st.BlocksPruned+st.PartitionsPruned), "pruned")
}

// BenchmarkSnapshotQueryWindow answers a twelve-hour, one-collector
// window from a snapshot index over a full-scale day (the shape bench/
// serves, ~18k events per collector) sealed every 2048 events — the
// layout live ingest produces, where the window jumps a prelude of
// partitions, scans the two it cuts, merges the ones between and skips
// the tail (on one partition per collector-day, as every other store
// benchmark uses, a sub-day window is a full scan).
// Every partition has a sidecar, so the two cut partitions are replayed
// from their result codes (replayed/op) and no classifier state is
// decoded (restores/op, which must be 0).
func BenchmarkSnapshotQueryWindow(b *testing.B) {
	dir := b.TempDir()
	w, err := evstore.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	w.Seal = evstore.SealPolicy{MaxEvents: 2048}
	_, sources := workload.DaySources(workload.DefaultDayConfig(benchDay))
	if err := w.Ingest(stream.Merge(sources...)); err != nil {
		b.Fatal(err)
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	named := func() []evstore.NamedAnalyzer {
		return []evstore.NamedAnalyzer{
			{Key: "table1", Proto: analysis.NewTable1()},
			{Key: "counts", Proto: analysis.NewCounts()},
			{Key: "peers", Proto: analysis.NewPeerBehavior()},
		}
	}
	ix, _, err := evstore.OpenSnapshotIndex(context.Background(), dir, named())
	if err != nil {
		b.Fatal(err)
	}
	q := evstore.Query{
		Window: evstore.TimeRange{
			From: benchDay.Add(6*time.Hour + 30*time.Minute),
			To:   benchDay.Add(18*time.Hour + 30*time.Minute),
		},
		Collectors: []string{"rrc00"},
	}
	b.ResetTimer()
	b.ReportAllocs()
	var ss evstore.ServeStats
	for i := 0; i < b.N; i++ {
		got := named()
		if ss, err = ix.Query(context.Background(), q, 1, got...); err != nil {
			b.Fatal(err)
		}
		if got[1].Proto.(*classify.CountsAnalyzer).Counts.Announcements() == 0 {
			b.Fatal("empty window")
		}
	}
	if ss.Plan.Jumped < 2 || ss.Plan.Merged < 2 || ss.Plan.Scanned == 0 || ss.Plan.Skipped == 0 {
		b.Fatalf("window does not exercise the live-shaped plan: %+v", ss.Plan)
	}
	if ss.Restores != 0 || ss.Replayed != ss.Plan.Scanned {
		b.Fatalf("%d restores, %d of %d scanned partitions replayed on a fully snapshotted store", ss.Restores, ss.Replayed, ss.Plan.Scanned)
	}
	b.ReportMetric(float64(ss.Restores), "restores/op")
	b.ReportMetric(float64(ss.Replayed), "replayed/op")
	b.ReportMetric(float64(ss.Plan.Jumped+ss.Plan.Merged), "sidecars/op")
}

// BenchmarkScanParallel runs the combined Table 1 + Table 2 + peer
// inference analysis off shard-parallel store scans at 1/2/4 workers —
// compare with BenchmarkStoreScan, the sequential single-analyzer scan
// it generalizes. Workers beyond the core count still pay merge and
// pool overhead, so the 1-worker row is the engine's overhead floor.
func BenchmarkScanParallel(b *testing.B) {
	storeDir, _ := benchStoreFixture(b)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			var events int
			for i := 0; i < b.N; i++ {
				t1a := analysis.NewTable1()
				counts := analysis.NewCounts()
				peers := analysis.NewPeerBehavior()
				ps, err := evstore.ScanParallel(context.Background(), storeDir, evstore.Query{}, evstore.TimeRange{}, workers, t1a, counts, peers)
				if err != nil {
					b.Fatal(err)
				}
				if t1a.Table1().Announcements == 0 || counts.Counts.Announcements() == 0 {
					b.Fatal("empty report")
				}
				events = ps.Total.Events
			}
			b.ReportMetric(float64(events), "events")
		})
	}
}

// BenchmarkRunAll quantifies the engine's headline property: N
// classifier-bound analyzers in one classification pass cost barely
// more than one, where N separate passes cost ~N× (each rebuilds the
// classifier state map and re-reads the stream). The fleet is the five
// per-question analyses whose own work is small next to classification
// (type counts, Figure 3 mix, Figure 4/5 cumulative route, §7 peer
// behaviour, §7 ingress locations); Table 1 is the exception — its
// distinct-value set inserts rival the classifier itself — and is
// measured separately (BenchmarkScanParallel runs it in fleet).
// Sub-benchmarks: a single-analyzer pass (the baseline), five
// analyzers in one pass, and the same five as five separate passes.
func BenchmarkRunAll(b *testing.B) {
	ds := benchDayData()
	prefix := ds.events[0].Prefix
	collector := ds.events[0].Collector
	session := ds.events[0].Session()
	path := ds.events[0].ASPath.String()
	fleet := func() []analysis.Analyzer {
		return []analysis.Analyzer{
			analysis.NewCounts(),
			analysis.NewSessionMix(collector, prefix),
			analysis.NewCumulative(session, prefix, path),
			analysis.NewPeerBehavior(),
			analysis.NewIngress(),
		}
	}
	b.Run("single-pass-1-analyzer", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			counts := analysis.NewCounts()
			analysis.RunAll(ds.source(), ds.inWindow, counts)
			if counts.Counts.Announcements() == 0 {
				b.Fatal("empty")
			}
		}
	})
	b.Run("single-pass-5-analyzers", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			analyzers := fleet()
			analysis.RunAll(ds.source(), ds.inWindow, analyzers...)
			if analyzers[0].(*classify.CountsAnalyzer).Counts.Announcements() == 0 {
				b.Fatal("empty")
			}
		}
	})
	b.Run("5-separate-passes", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, a := range fleet() {
				analysis.RunAll(ds.source(), ds.inWindow, a)
			}
		}
	})
}

// --- Streaming pipeline (stream.EventSource) --------------------------------

// BenchmarkMergeStream measures the k-way heap merge of per-collector
// slices through the lazy source path (iter.Pull cursors).
func BenchmarkMergeStream(b *testing.B) {
	ds := benchDayData()
	byCollector := make(map[string][]classify.Event)
	for _, e := range ds.events {
		byCollector[e.Collector] = append(byCollector[e.Collector], e)
	}
	sources := make([]stream.EventSource, 0, len(byCollector))
	for _, evs := range byCollector {
		sources = append(sources, stream.FromSlice(evs))
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n := stream.Count(stream.Merge(sources...))
		if n != len(ds.events) {
			b.Fatalf("merged %d of %d", n, len(ds.events))
		}
	}
}

// BenchmarkTable2FromSources classifies the day straight from the lazy
// per-session generators — generation, streaming, and classification in
// one pass with no materialized dataset (compare against
// BenchmarkDaySynthesis + BenchmarkTable2 for the two-phase cost).
func BenchmarkTable2FromSources(b *testing.B) {
	cfg := workload.DefaultDayConfig(benchDay)
	cfg.Collectors = 4
	cfg.PeersPerCollector = 10
	cfg.PrefixesV4 = 250
	cfg.PrefixesV6 = 25
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, sources := workload.DaySources(cfg)
		counts := countTypes(stream.Concat(sources...), cfg.InWindow)
		if counts.Announcements() == 0 {
			b.Fatal("empty")
		}
	}
}

// BenchmarkMultiDayStream classifies three consecutive generated days as
// one continuous stream — the multi-day workload shape that a
// materialized pipeline could not hold. Peak footprint stays one
// session-day regardless of the day count.
func BenchmarkMultiDayStream(b *testing.B) {
	cfg := workload.DefaultDayConfig(benchDay)
	cfg.Collectors = 2
	cfg.PeersPerCollector = 5
	cfg.PrefixesV4 = 100
	cfg.PrefixesV6 = 10
	b.ReportAllocs()
	var counts classify.Counts
	for i := 0; i < b.N; i++ {
		counts = countTypes(workload.MultiDaySource(cfg, 3), nil)
		if counts.Announcements() == 0 {
			b.Fatal("empty")
		}
	}
	b.ReportMetric(float64(counts.Announcements()), "announcements")
}

// BenchmarkSweepSequential and BenchmarkSweepParallel run the default
// scenario matrix back to back vs concurrently (one goroutine per
// scenario engine). Engines share nothing, so the parallel/sequential
// ratio approaches min(cores, scenarios) on multi-core machines; on a
// single core the two coincide.
func benchmarkSweep(b *testing.B, parallel bool) {
	matrix := simnet.DefaultMatrix(benchDay, 12)
	b.ReportAllocs()
	b.ResetTimer()
	var events int
	for i := 0; i < b.N; i++ {
		var results []*simnet.Result
		if parallel {
			results = simnet.Sweep(matrix, 0)
		} else {
			results = simnet.SweepSequential(matrix)
		}
		events = 0
		for _, r := range results {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
			events += r.Capture.Events()
		}
	}
	b.ReportMetric(float64(len(matrix)), "scenarios/op")
	b.ReportMetric(float64(events), "events/op")
}

func BenchmarkSweepSequential(b *testing.B) { benchmarkSweep(b, false) }
func BenchmarkSweepParallel(b *testing.B)   { benchmarkSweep(b, true) }

// BenchmarkSweepStoreRoundTrip measures the simulate → ingest → scan →
// classify loop for one Internet churn scenario — the path `commstudy
// sweep -store` exercises per matrix cell.
func BenchmarkSweepStoreRoundTrip(b *testing.B) {
	s := simnet.Scenario{Topology: simnet.TopoInternet, Policy: simnet.PolicyMixed,
		Vendor: router.CiscoIOS, Workload: simnet.WorkChurn, Hours: 12, Start: benchDay}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := simnet.Run(s)
		if err != nil {
			b.Fatal(err)
		}
		dir := b.TempDir()
		if _, err := evstore.Ingest(dir, res.Capture.Source()); err != nil {
			b.Fatal(err)
		}
		var scanErr error
		counts := countTypes(evstore.Scan(dir, evstore.Query{}, &scanErr), nil)
		if scanErr != nil {
			b.Fatal(scanErr)
		}
		if counts != res.Counts {
			b.Fatalf("round-trip counts diverged: %+v != %+v", counts, res.Counts)
		}
	}
}
