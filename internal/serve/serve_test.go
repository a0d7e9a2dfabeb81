package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/classify"
	"repro/internal/collector"
	"repro/internal/evstore"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/serve"
	"repro/internal/simnet"
	"repro/internal/stream"
	"repro/internal/workload"
)

var testDay = time.Date(2020, 3, 15, 0, 0, 0, 0, time.UTC)

func smallCfg() workload.DayConfig {
	cfg := workload.DefaultDayConfig(testDay)
	cfg.Collectors = 2
	cfg.PeersPerCollector = 3
	cfg.PrefixesV4 = 30
	cfg.PrefixesV6 = 6
	return cfg
}

// buildStore ingests src into a fresh store with small blocks.
func buildStore(t testing.TB, src stream.EventSource) string {
	t.Helper()
	dir := t.TempDir()
	w, err := evstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	w.BlockEvents = 512
	if err := w.Ingest(src); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// coldRef runs the reference batch computation for a spec: a cold
// shard-parallel scan of the full collector timelines (with any
// per-event filters) tallying the spec's window.
func coldRef(t testing.TB, dir string, spec serve.QuerySpec, protos ...classify.Analyzer) {
	t.Helper()
	q := evstore.Query{Collectors: spec.Collectors, PeerAS: spec.PeerAS, PrefixRange: spec.PrefixRange}
	_, err := evstore.ScanParallel(context.Background(), dir, q, spec.Window, 2, protos...)
	if err != nil {
		t.Fatal(err)
	}
}

// storeProducers builds equivalent stores through every producer path
// — synthetic day sources, MRT archives through the §4 normalizer, a
// multi-day store ingest, and the simulator fleet. Both the
// single-node and the scatter-gather equivalence suites sweep it.
var storeProducers = []struct {
	name  string
	build func(t *testing.T) string
}{
	{"synthetic", func(t *testing.T) string {
		_, sources := workload.DaySources(smallCfg())
		return buildStore(t, stream.Concat(sources...))
	}},
	{"mrt", func(t *testing.T) string {
		cfg := smallCfg()
		peers, sources := workload.DaySources(cfg)
		arch := t.TempDir()
		if _, err := collector.WriteSourcesDir(peers, sources, arch); err != nil {
			t.Fatal(err)
		}
		src, _, check, err := pipeline.ArchiveSource(arch, nil)
		if err != nil {
			t.Fatal(err)
		}
		dir := buildStore(t, src)
		if err := check(); err != nil {
			t.Fatal(err)
		}
		return dir
	}},
	{"store-multiday", func(t *testing.T) string {
		return buildStore(t, workload.MultiDaySource(smallCfg(), 2))
	}},
	{"simsweep", func(t *testing.T) string {
		results := simnet.Sweep(simnet.DefaultMatrix(testDay, 6), 2)
		dir := t.TempDir()
		w, err := evstore.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range results {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
			if err := w.Ingest(r.Capture.Source()); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return dir
	}},
}

// TestServeEquivalenceAcrossProducers is the tentpole acceptance: on
// stores built from every producer path, every served kind must be
// bit-identical to the cold batch scan of the same window.
func TestServeEquivalenceAcrossProducers(t *testing.T) {
	window := evstore.TimeRange{From: testDay.Add(2 * time.Hour), To: testDay.Add(20 * time.Hour)}
	for _, p := range storeProducers {
		t.Run(p.name, func(t *testing.T) {
			dir := p.build(t)
			s, bs, err := serve.New(context.Background(), serve.Config{Dir: dir, Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			if bs.Built == 0 {
				t.Fatal("server built no snapshots")
			}

			// table1
			spec := serve.QuerySpec{Kind: serve.KindTable1, Window: window}
			ans, err := s.Answer(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			refT1 := analysis.NewTable1()
			coldRef(t, dir, spec, refT1)
			if !reflect.DeepEqual(ans.Data, refT1.Table1()) {
				t.Errorf("table1 diverged:\n got %+v\nwant %+v", ans.Data, refT1.Table1())
			}

			// table2 — windowed (residual scans where the window cuts
			// partitions) and unbounded (pure snapshot merges).
			for _, w := range []evstore.TimeRange{window, {}} {
				spec := serve.QuerySpec{Kind: serve.KindTable2, Window: w}
				ans, err := s.Answer(context.Background(), spec)
				if err != nil {
					t.Fatal(err)
				}
				refC := analysis.NewCounts()
				coldRef(t, dir, spec, refC)
				if got := ans.Data.(serve.CountsData); got.Announcements != refC.Counts.Announcements() ||
					!reflect.DeepEqual(got.ByType, countsByType(refC.Counts)) ||
					got.Withdrawals != refC.Counts.Withdrawals {
					t.Errorf("table2 window %+v diverged:\n got %+v\nwant %+v", w, got, refC.Counts)
				}
				if w == (evstore.TimeRange{}) {
					// Unbounded: every partition is fully inside the window,
					// so the answer must come entirely from snapshot merges.
					if ans.Source != "snapshots" || ans.Plan.Scanned != 0 || ans.Plan.Merged == 0 {
						t.Errorf("unbounded table2 source %q plan %+v, want pure snapshot merges", ans.Source, ans.Plan)
					}
				}
			}

			// peers (§7)
			spec = serve.QuerySpec{Kind: serve.KindPeers, Window: window}
			ans, err = s.Answer(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			refP := analysis.NewPeerBehavior()
			coldRef(t, dir, spec, refP)
			wantPeers := refP.Inferences()
			gotPeers := ans.Data.(serve.PeersData)
			if len(gotPeers.Sessions) != len(wantPeers) {
				t.Fatalf("peers: %d sessions, want %d", len(gotPeers.Sessions), len(wantPeers))
			}
			for i, inf := range wantPeers {
				row := gotPeers.Sessions[i]
				if row.Collector != inf.Session.Collector || row.PeerAddr != inf.Session.PeerAddr.String() ||
					row.Behavior != inf.Behavior.String() || row.Announce != inf.Announcements {
					t.Errorf("peers row %d diverged: %+v vs %+v", i, row, inf)
				}
			}

			// ingress
			spec = serve.QuerySpec{Kind: serve.KindIngress, Window: window}
			ans, err = s.Answer(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			refI := analysis.NewIngress()
			coldRef(t, dir, spec, refI)
			if !reflect.DeepEqual(ans.Data, refI.Locations()) {
				t.Error("ingress diverged")
			}

			// figure6
			spec = serve.QuerySpec{Kind: serve.KindFigure6, Window: window}
			ans, err = s.Answer(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			refR := serve.DefaultRegistry()[4].Proto.Fresh()
			coldRef(t, dir, spec, refR)
			if !reflect.DeepEqual(ans.Data, refR.Finish()) {
				t.Error("figure6 diverged")
			}

			// per-event filter fallback: a PeerAS query runs as a cold scan
			// but must still match the reference.
			spec = serve.QuerySpec{Kind: serve.KindTable2, Window: window, PeerAS: firstPeerAS(t, dir)}
			ans, err = s.Answer(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			if ans.Source != "scan" {
				t.Errorf("peeras query source %q, want scan", ans.Source)
			}
			refF := analysis.NewCounts()
			coldRef(t, dir, spec, refF)
			if got := ans.Data.(serve.CountsData); got.Announcements != refF.Counts.Announcements() {
				t.Errorf("peeras fallback diverged: %d != %d", got.Announcements, refF.Counts.Announcements())
			}
		})
	}
}

func countsByType(c classify.Counts) map[string]int {
	m := make(map[string]int, 6)
	for _, ty := range classify.Types() {
		m[ty.String()] = c.Of(ty)
	}
	return m
}

// firstPeerAS returns one peer AS present in the store.
func firstPeerAS(t testing.TB, dir string) []uint32 {
	t.Helper()
	infos, err := evstore.Stat(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, info := range infos {
		if len(info.PeerAS) > 0 {
			return info.PeerAS[:1]
		}
	}
	t.Fatal("no peer AS in store")
	return nil
}

// TestServeCacheAndSingleflight pins the serving fast paths: a repeat
// query is served from cache; concurrent identical queries collapse to
// one computation; a refresh after new data drops the cache.
func TestServeCacheAndSingleflight(t *testing.T) {
	cfg := smallCfg()
	_, sources := workload.DaySources(cfg)
	dir := buildStore(t, stream.Concat(sources...))
	s, _, err := serve.New(context.Background(), serve.Config{Dir: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	spec := serve.QuerySpec{Kind: serve.KindTable2,
		Window: evstore.TimeRange{From: testDay, To: testDay.Add(24 * time.Hour)}}

	first, err := s.Answer(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if first.Source == "cache" {
		t.Fatal("first answer claims cache")
	}
	second, err := s.Answer(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if second.Source != "cache" {
		t.Fatalf("repeat answer source %q, want cache", second.Source)
	}
	if !reflect.DeepEqual(first.Data, second.Data) {
		t.Fatal("cached answer diverged from computed one")
	}

	// Concurrent identical uncached queries: all succeed, all agree.
	spec2 := spec
	spec2.Window.To = testDay.Add(23 * time.Hour)
	const n = 16
	answers := make([]*serve.Answer, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a, err := s.Answer(context.Background(), spec2)
			if err != nil {
				t.Error(err)
				return
			}
			answers[i] = a
		}()
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if answers[i] == nil || !reflect.DeepEqual(answers[i].Data, answers[0].Data) {
			t.Fatalf("concurrent answer %d diverged", i)
		}
	}

	// Live append → refresh → cache dropped, answers reflect new data.
	appendDay(t, dir, cfg, 1)
	if _, err := s.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	wide := serve.QuerySpec{Kind: serve.KindTable2}
	grown, err := s.Answer(context.Background(), wide)
	if err != nil {
		t.Fatal(err)
	}
	if grown.Source == "cache" {
		t.Fatal("post-refresh answer served from stale cache")
	}
	if grown.Data.(serve.CountsData).Announcements <= first.Data.(serve.CountsData).Announcements {
		t.Fatal("post-refresh answer does not include the appended day")
	}
}

// appendDay seals the day n days after cfg's into an existing store.
func appendDay(t testing.TB, dir string, cfg workload.DayConfig, n int) {
	t.Helper()
	cfg.Day = cfg.Day.Add(time.Duration(n) * 24 * time.Hour)
	_, sources := workload.DaySources(cfg)
	appendEvents(t, dir, stream.Concat(sources...), nil, 0)
}

// gatedBackend wraps an engine and counts its State calls; while a gate
// is armed each call announces itself and then blocks until released,
// so a test can hold a compute open and act while it is in flight.
type gatedBackend struct {
	serve.Backend
	calls atomic.Int64
	gate  atomic.Pointer[stateGate]
}

type stateGate struct{ entered, release chan struct{} }

// arm makes the following State calls block; the returned gate's
// entered channel receives once per blocked call.
func (g *gatedBackend) arm() *stateGate {
	// entered is sized above any test's concurrent calls, so announcing
	// never blocks a call the test is not yet receiving for.
	sg := &stateGate{entered: make(chan struct{}, 64), release: make(chan struct{})}
	g.gate.Store(sg)
	return sg
}

// open releases every blocked call and disarms the gate.
func (g *gatedBackend) open(sg *stateGate) {
	g.gate.Store(nil)
	close(sg.release)
}

func (g *gatedBackend) State(ctx context.Context, spec serve.QuerySpec) (*serve.StateEnvelope, error) {
	g.calls.Add(1)
	if sg := g.gate.Load(); sg != nil {
		sg.entered <- struct{}{}
		<-sg.release
	}
	return g.Backend.State(ctx, spec)
}

// gatedServer serves dir through a gatedBackend over a LocalBackend.
func gatedServer(t testing.TB, dir string, metrics *serve.Metrics) (*serve.Server, *gatedBackend) {
	t.Helper()
	lb, _, err := serve.NewLocalBackend(context.Background(), serve.Config{Dir: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	gb := &gatedBackend{Backend: lb}
	s, _, err := serve.New(context.Background(), serve.Config{Backend: gb, Metrics: metrics})
	if err != nil {
		t.Fatal(err)
	}
	return s, gb
}

// postState POSTs a CSQ1 spec to a daemon's /v1/state and returns the
// raw CSE3 envelope.
func postState(t testing.TB, base string, spec serve.QuerySpec) []byte {
	t.Helper()
	resp, err := http.Post(base+"/v1/state", "application/octet-stream", bytes.NewReader(serve.AppendQuerySpec(nil, spec)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/state: status %d, %v: %s", resp.StatusCode, err, raw)
	}
	return raw
}

// envelopeCounts decodes a CSE3 table2 envelope into its counts.
func envelopeCounts(t testing.TB, raw []byte) classify.Counts {
	t.Helper()
	env, err := serve.DecodeStateEnvelope(raw)
	if err != nil {
		t.Fatal(err)
	}
	a := analysis.NewCounts()
	if len(env.States) != 1 {
		t.Fatalf("envelope carries %d states, want 1", len(env.States))
	}
	if err := a.Restore(env.States[0]); err != nil {
		t.Fatal(err)
	}
	return a.Counts
}

// TestShardStateCache pins the shard surface onto the Server's one
// cache: a repeated /v1/state spec is answered from it with the very
// bytes of the first answer, concurrent identical specs cost one engine
// compute, and /v1/stats and /metrics — blank for a shard while the
// envelope cache sat uninstrumented inside LocalBackend — say so.
func TestShardStateCache(t *testing.T) {
	_, sources := workload.DaySources(smallCfg())
	dir := buildStore(t, stream.Concat(sources...))
	s, gb := gatedServer(t, dir, serve.NewMetrics(obs.NewRegistry()))
	ts := httptest.NewServer(s.StateHandler())
	defer ts.Close()
	ctx := context.Background()

	spec := serve.QuerySpec{Kind: serve.KindTable2,
		Window: evstore.TimeRange{From: testDay.Add(2 * time.Hour), To: testDay.Add(20 * time.Hour)}}
	if st := s.Stats(ctx); st.Queries != 0 || st.Cache.Hits != 0 {
		t.Fatalf("fresh shard stats %+v", st)
	}
	first := postState(t, ts.URL, spec)
	second := postState(t, ts.URL, spec)
	if !bytes.Equal(first, second) {
		t.Error("repeated /v1/state spec returned different envelope bytes")
	}
	if st := s.Stats(ctx); st.Queries != 2 || st.Cache.Hits != 1 || st.Cache.Misses != 1 || gb.calls.Load() != 1 {
		t.Errorf("after a repeat: queries %d, cache %+v, engine computes %d; want 2 queries, 1 hit, 1 miss, 1 compute",
			st.Queries, st.Cache, gb.calls.Load())
	}
	refC := analysis.NewCounts()
	coldRef(t, dir, spec, refC)
	if got := envelopeCounts(t, second); got != refC.Counts {
		t.Errorf("cached envelope diverged from the cold scan:\n got %+v\nwant %+v", got, refC.Counts)
	}

	// The same numbers over the shard's own HTTP surface.
	stats := getAnswer(t, ts.URL, "/v1/stats")
	if c := stats["cache"].(map[string]any); c["Hits"].(float64) != 1 || stats["queries"].(float64) != 2 {
		t.Errorf("/v1/stats on the shard surface: queries %v, cache %v", stats["queries"], c)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	exposition, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, line := range []string{"comm_serve_cache_hits_total 1", "comm_serve_queries_total 2"} {
		if !bytes.Contains(exposition, []byte(line+"\n")) {
			t.Errorf("/metrics on the shard surface lacks %q", line)
		}
	}

	// N concurrent POSTs of one uncached spec: the leader is held inside
	// the engine until every follower has looked the key up (each lookup
	// is a cache miss) and joined its flight.
	const n = 8
	spec2 := spec
	spec2.Window.To = testDay.Add(21 * time.Hour)
	before := s.Stats(ctx)
	sg := gb.arm()
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bodies[i] = postState(t, ts.URL, spec2)
		}()
	}
	<-sg.entered
	deadline := time.Now().Add(10 * time.Second)
	for s.Stats(ctx).Cache.Misses < before.Cache.Misses+n {
		if time.Now().After(deadline) {
			t.Fatal("followers never reached the cache")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond) // from the miss to the flight group is a few instructions
	gb.open(sg)
	wg.Wait()
	after := s.Stats(ctx)
	if after.Deduped-before.Deduped != n-1 || gb.calls.Load() != 2 {
		t.Errorf("%d concurrent specs: deduped %d, engine computes %d; want %d followers of one compute",
			n, after.Deduped-before.Deduped, gb.calls.Load()-1, n-1)
	}
	for i := 1; i < n; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("concurrent envelope %d diverged", i)
		}
	}
}

// TestServeFigure2SharesYearStates pins figure2's per-year sub-specs
// onto the same cache: two overlapping series share the overlapping
// year's state, and every row equals a cold scan of its year.
func TestServeFigure2SharesYearStates(t *testing.T) {
	cfg := smallCfg()
	cfg.Day = time.Date(2019, 3, 15, 0, 0, 0, 0, time.UTC)
	_, sources := workload.DaySources(cfg)
	dir := buildStore(t, stream.Concat(sources...))
	appendDay(t, dir, cfg, 366) // 2020-03-15
	s, _, err := serve.New(context.Background(), serve.Config{Dir: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	checkRows := func(ans *serve.Answer, fromYear int) {
		t.Helper()
		rows := ans.Data.([]serve.Figure2Row)
		if len(rows) != 2 {
			t.Fatalf("figure2 returned %d rows, want 2", len(rows))
		}
		for i, row := range rows {
			y := fromYear + i
			ref := analysis.NewCounts()
			coldRef(t, dir, serve.QuerySpec{Window: evstore.TimeRange{
				From: time.Date(y, 1, 1, 0, 0, 0, 0, time.UTC),
				To:   time.Date(y+1, 1, 1, 0, 0, 0, 0, time.UTC)}}, ref)
			if row.Year != y || row.Total != ref.Counts.Announcements() || row.Counts.Withdrawals != ref.Counts.Withdrawals ||
				!reflect.DeepEqual(row.Counts.ByType, countsByType(ref.Counts)) {
				t.Errorf("figure2 row %d diverged from the cold scan of %d:\n got %+v\nwant %+v", i, y, row, ref.Counts)
			}
		}
		if fromYear <= 2020 && rows[2020-fromYear].Total == 0 {
			t.Error("figure2 2020 row is empty")
		}
	}
	first, err := s.Answer(ctx, serve.QuerySpec{Kind: serve.KindFigure2, FromYear: 2019, ToYear: 2020})
	if err != nil {
		t.Fatal(err)
	}
	checkRows(first, 2019)
	before := s.Stats(ctx).Cache
	second, err := s.Answer(ctx, serve.QuerySpec{Kind: serve.KindFigure2, FromYear: 2020, ToYear: 2021})
	if err != nil {
		t.Fatal(err)
	}
	checkRows(second, 2020)
	// The series itself and 2021 miss; 2020's state is the first run's.
	if after := s.Stats(ctx).Cache; after.Hits != before.Hits+1 || after.Misses != before.Misses+2 {
		t.Errorf("overlapping figure2: cache %+v → %+v, want one hit (2020) and two misses", before, after)
	}
}

// TestServeInvalidation pins the one invalidation site: a seal +
// Refresh drops cached answers and cached state envelopes alike and
// counts one refresh, a Refresh that finds nothing new touches neither
// the cache nor the counter, and a compute that straddles a refresh is
// returned to its caller but never stored.
func TestServeInvalidation(t *testing.T) {
	cfg := smallCfg()
	_, sources := workload.DaySources(cfg)
	dir := buildStore(t, stream.Concat(sources...))
	s, gb := gatedServer(t, dir, nil)
	ts := httptest.NewServer(s.StateHandler())
	defer ts.Close()
	ctx := context.Background()
	spec := serve.QuerySpec{Kind: serve.KindTable2}
	cold := func() classify.Counts {
		t.Helper()
		ref := analysis.NewCounts()
		coldRef(t, dir, spec, ref)
		return ref.Counts
	}
	answerCounts := func(wantSource string) int {
		t.Helper()
		ans, err := s.Answer(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		if (ans.Source == "cache") != (wantSource == "cache") {
			t.Fatalf("answer source %q, want %s", ans.Source, wantSource)
		}
		return ans.Data.(serve.CountsData).Announcements
	}

	answerCounts("computed")
	answerCounts("cache")
	stale := postState(t, ts.URL, spec)
	if st := s.Stats(ctx); st.Cache.Entries != 2 || st.Refreshes != 0 {
		t.Fatalf("one answer + one envelope cached: %+v, refreshes %d", st.Cache, st.Refreshes)
	}

	// A refresh that finds nothing new is not a refresh.
	if rs, err := s.Refresh(ctx); err != nil || rs.Changed {
		t.Fatalf("idle refresh: %+v, %v", rs, err)
	}
	if st := s.Stats(ctx); st.Cache.Entries != 2 || st.Refreshes != 0 {
		t.Errorf("idle refresh moved the cache (%+v) or the counter (%d)", st.Cache, st.Refreshes)
	}

	// Seal + refresh: both entry kinds go, the counter moves once, and
	// what is recomputed equals the cold reference over the grown store.
	appendDay(t, dir, cfg, 1)
	if rs, err := s.Refresh(ctx); err != nil || !rs.Changed {
		t.Fatalf("refresh after a seal: %+v, %v", rs, err)
	}
	if st := s.Stats(ctx); st.Cache.Entries != 0 || st.Refreshes != 1 {
		t.Errorf("after seal + refresh: cache %+v, refreshes %d; want empty and 1", st.Cache, st.Refreshes)
	}
	computes := gb.calls.Load()
	want := cold()
	if got := answerCounts("computed"); got != want.Announcements() {
		t.Errorf("recomputed answer: %d announcements, cold scan %d", got, want.Announcements())
	}
	fresh := postState(t, ts.URL, spec)
	if bytes.Equal(fresh, stale) {
		t.Error("/v1/state served the pre-seal envelope after the refresh")
	}
	if got := envelopeCounts(t, fresh); got != want {
		t.Errorf("recomputed envelope diverged from the cold scan:\n got %+v\nwant %+v", got, want)
	}
	if gb.calls.Load() != computes+2 {
		t.Errorf("%d engine computes after the refresh, want 2", gb.calls.Load()-computes)
	}

	// The put guard: hold an Answer compute and a State compute inside
	// the engine, seal and refresh underneath them, let them finish.
	spec.Window.To = testDay.Add(72 * time.Hour) // a key not cached yet
	sg := gb.arm()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		if _, err := s.Answer(ctx, spec); err != nil {
			t.Error(err)
		}
	}()
	go func() {
		defer wg.Done()
		if _, err := s.State(ctx, spec); err != nil {
			t.Error(err)
		}
	}()
	<-sg.entered
	<-sg.entered
	appendDay(t, dir, cfg, 2)
	if _, err := s.Refresh(ctx); err != nil {
		t.Fatal(err)
	}
	gb.open(sg)
	wg.Wait()
	if st := s.Stats(ctx); st.Cache.Entries != 0 || st.Refreshes != 2 {
		t.Errorf("computes that straddled a refresh left cache %+v, refreshes %d; want nothing stored", st.Cache, st.Refreshes)
	}
	computes = gb.calls.Load()
	want = cold()
	if got := answerCounts("computed"); got != want.Announcements() {
		t.Errorf("answer after the straddle: %d announcements, cold scan %d", got, want.Announcements())
	}
	env, err := s.State(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := envelopeCounts(t, serve.AppendStateEnvelope(nil, env)); got != want {
		t.Errorf("state after the straddle diverged from the cold scan:\n got %+v\nwant %+v", got, want)
	}
	if gb.calls.Load() != computes+2 {
		t.Errorf("%d engine computes after the straddle, want 2 (nothing was stored)", gb.calls.Load()-computes)
	}
}

// TestServeHTTP drives the JSON API end to end.
func TestServeHTTP(t *testing.T) {
	_, sources := workload.DaySources(smallCfg())
	dir := buildStore(t, stream.Concat(sources...))
	s, _, err := serve.New(context.Background(), serve.Config{Dir: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	getJSON := func(path string, wantStatus int) map[string]any {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Fatalf("GET %s: status %d, want %d", path, resp.StatusCode, wantStatus)
		}
		var m map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return m
	}

	from := testDay.Format(time.RFC3339)
	to := testDay.Add(24 * time.Hour).Format(time.RFC3339)
	ans := getJSON("/v1/table2?from="+from+"&to="+to, 200)
	if ans["source"] != "snapshots" {
		t.Errorf("table2 source %v, want snapshots", ans["source"])
	}
	data := ans["data"].(map[string]any)
	if data["announcements"].(float64) <= 0 {
		t.Error("table2 served zero announcements")
	}
	if again := getJSON("/v1/table2?from="+from+"&to="+to, 200); again["source"] != "cache" {
		t.Errorf("repeat table2 source %v, want cache", again["source"])
	}

	getJSON("/v1/table1?from="+from+"&to="+to, 200)
	getJSON("/v1/figure/6", 200)
	getJSON("/v1/infer/peers", 200)
	getJSON("/v1/infer/ingress", 200)
	getJSON("/v1/stats", 200)
	getJSON("/healthz", 200)
	getJSON("/v1/figure/3?collector=rrc00&prefix=84.205.64.0/24", 200)
	getJSON("/v1/figure/9", 404)
	getJSON("/v1/figure/3", 400)               // missing params
	getJSON("/v1/table2?from=not-a-time", 400) // bad time
	getJSON("/v1/figure/2?fromyear=2020&toyear=2019", 400)
	getJSON("/v1/figure/2?fromyear=1000&toyear=3000", 400) // range too large

	// A per-event filter runs through the same planner but trusts no
	// sidecar: the answer is still a cold scan, in body and tier header.
	filtered := fmt.Sprintf("/v1/table2?from=%s&to=%s&peeras=%d", from, to, firstPeerAS(t, dir)[0])
	resp, err := http.Get(ts.URL + filtered)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if tier := resp.Header.Get("X-Comm-Tier"); tier != "cold-scan" {
		t.Errorf("filtered table2 tier %q, want cold-scan", tier)
	}
	if ans := getJSON(filtered+"&collectors=rrc00", 200); ans["source"] != "scan" {
		t.Errorf("filtered table2 source %v, want scan", ans["source"])
	} else if plan := ans["plan"].(map[string]any); plan["Merged"].(float64) != 0 || plan["Jumped"].(float64) != 0 || plan["Scanned"].(float64) == 0 {
		t.Errorf("filtered table2 plan %v, want scans only", plan)
	}

	stats := getJSON("/v1/stats", 200)
	if stats["partitions"].(float64) == 0 {
		t.Error("stats report zero partitions")
	}
}

// TestServeCanonicalFilters pins one key per filter: however a
// per-event filter is spelled — host bits set in the prefix range, the
// peer-AS list reordered or repeated — it is one CacheKey, so the second
// spelling is answered from the first one's cache entry instead of a
// second cold scan, over HTTP and through the CSQ1 codec alike.
func TestServeCanonicalFilters(t *testing.T) {
	_, sources := workload.DaySources(smallCfg())
	dir := buildStore(t, stream.Concat(sources...))
	s, _, err := serve.New(context.Background(), serve.Config{Dir: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	get := func(query string) map[string]any {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/table2?" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil || resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d, %v", query, resp.StatusCode, err)
		}
		return m
	}
	infos, err := evstore.Stat(dir)
	if err != nil {
		t.Fatal(err)
	}
	a, b := infos[0].PeerAS[0], infos[len(infos)-1].PeerAS[len(infos[len(infos)-1].PeerAS)-1]
	if a == b {
		t.Fatalf("store offers one peer AS (%d); need two", a)
	}
	for _, spellings := range [][]string{
		{"prefixrange=10.0.5.7/20", "prefixrange=10.0.0.0/20", "prefixrange=10.0.15.255/20"},
		{fmt.Sprintf("peeras=%d,%d", a, b), fmt.Sprintf("peeras=%d,%d", b, a), fmt.Sprintf("peeras=%d,%d,%d,%d", b, a, a, b)},
	} {
		first := get(spellings[0])
		if first["source"] != "scan" || first["data"].(map[string]any)["announcements"].(float64) == 0 {
			t.Fatalf("%s: source %v, data %v; want a non-empty cold scan", spellings[0], first["source"], first["data"])
		}
		for _, other := range spellings[1:] {
			if ans := get(other); ans["source"] != "cache" || !reflect.DeepEqual(ans["data"], first["data"]) {
				t.Errorf("%s after %s: source %v, want the same answer from cache", other, spellings[0], ans["source"])
			}
		}
	}

	// A spec that arrives over CSQ1 keeps its spelling and its key.
	spelled := serve.QuerySpec{Kind: serve.KindTable2, PeerAS: []uint32{b, a, b}, PrefixRange: netip.MustParsePrefix("10.0.5.7/20")}
	canonical := serve.QuerySpec{Kind: serve.KindTable2, PeerAS: []uint32{a, b}, PrefixRange: netip.MustParsePrefix("10.0.0.0/20")}
	decoded, err := serve.DecodeQuerySpec(serve.AppendQuerySpec(nil, spelled))
	if err != nil {
		t.Fatal(err)
	}
	if decoded.CacheKey() != canonical.CacheKey() || spelled.CacheKey() != canonical.CacheKey() {
		t.Errorf("cache keys differ: decoded %q, spelled %q, canonical %q", decoded.CacheKey(), spelled.CacheKey(), canonical.CacheKey())
	}
	if other := (serve.QuerySpec{Kind: serve.KindTable2, PeerAS: []uint32{a}, PrefixRange: netip.MustParsePrefix("10.0.0.0/21")}); other.CacheKey() == canonical.CacheKey() {
		t.Errorf("distinct filters share the key %q", other.CacheKey())
	}
}

// TestServeHTTPLoadSmoke is the load smoke: 128 concurrent clients —
// deliberately held until at least 100 requests are simultaneously
// in flight inside the server — issue mixed cached/uncached windowed
// queries against the live HTTP API. Everything must succeed and
// identical queries must agree. Gated behind -short because it holds
// a hundred-plus connections open.
func TestServeHTTPLoadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("load smoke skipped in -short mode")
	}
	_, sources := workload.DaySources(smallCfg())
	dir := buildStore(t, stream.Concat(sources...))
	s, _, err := serve.New(context.Background(), serve.Config{Dir: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	const clients = 128
	const barrier = 100
	var inFlight, peak atomic.Int64
	var gate sync.WaitGroup
	gate.Add(barrier)
	var gateOnce [barrier]sync.Once
	handler := s.Handler()
	wrapped := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cur := inFlight.Add(1)
		defer inFlight.Add(-1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		// The first `barrier` requests wait for each other: the server
		// must sustain that many simultaneously in-flight queries.
		if idx := cur - 1; idx < barrier {
			gateOnce[idx].Do(gate.Done)
			gate.Wait()
		}
		handler.ServeHTTP(w, r)
	})
	ts := httptest.NewServer(wrapped)
	defer ts.Close()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}

	paths := make([]string, 16)
	for i := range paths {
		from := testDay.Add(time.Duration(i) * time.Hour).Format(time.RFC3339)
		to := testDay.Add(time.Duration(20+i) * time.Hour).Format(time.RFC3339)
		kind := []string{"table2", "table1", "infer/peers", "figure/6"}[i%4]
		paths[i] = fmt.Sprintf("/v1/%s?from=%s&to=%s", kind, from, to)
	}

	results := make([]map[string]int, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := make(map[string]int)
			for rep := 0; rep < 3; rep++ {
				path := paths[(c+rep)%len(paths)]
				resp, err := client.Get(ts.URL + path)
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				var m map[string]any
				err = json.NewDecoder(resp.Body).Decode(&m)
				resp.Body.Close()
				if err != nil || resp.StatusCode != 200 {
					t.Errorf("client %d: status %d err %v", c, resp.StatusCode, err)
					return
				}
				if data, ok := m["data"].(map[string]any); ok {
					if v, ok := data["announcements"].(float64); ok {
						got[path] = int(v)
					}
				}
			}
			results[c] = got
		}()
	}
	wg.Wait()
	if p := peak.Load(); p < barrier {
		t.Errorf("peak in-flight %d, want >= %d", p, barrier)
	}
	// Identical paths must have returned identical counts everywhere.
	agreed := make(map[string]int)
	for c, got := range results {
		for path, v := range got {
			if want, ok := agreed[path]; ok && want != v {
				t.Fatalf("client %d: %s returned %d, others saw %d", c, path, v, want)
			}
			agreed[path] = v
		}
	}
	st := s.Stats(context.Background())
	t.Logf("load smoke: peak in-flight %d, %d queries, cache %+v, deduped %d",
		peak.Load(), st.Queries, st.Cache, st.Deduped)
}

// TestServeWatchRefreshesOnIngest wires the full live loop: daemon
// watching, ingest seals a new day, watcher refreshes, queries see it.
func TestServeWatchRefreshesOnIngest(t *testing.T) {
	cfg := smallCfg()
	cfg.Collectors = 1
	_, sources := workload.DaySources(cfg)
	dir := buildStore(t, stream.Concat(sources...))
	s, _, err := serve.New(context.Background(), serve.Config{Dir: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	before, err := s.Answer(context.Background(), serve.QuerySpec{Kind: serve.KindTable2})
	if err != nil {
		t.Fatal(err)
	}

	refreshed := make(chan struct{}, 1)
	ctx, cancel := context.WithCancel(context.Background())
	watching := make(chan struct{})
	go func() {
		defer close(watching)
		s.Watch(ctx, 10*time.Millisecond, func(bs serve.RefreshStats, err error) {
			// A refresh still running when the test cancels ends with the
			// test's own cancellation, not a failure.
			if err != nil && ctx.Err() == nil {
				t.Error(err)
			}
			select {
			case refreshed <- struct{}{}:
			default:
			}
		})
	}()
	defer func() {
		cancel()
		<-watching
	}()

	day2 := cfg
	day2.Day = cfg.Day.Add(24 * time.Hour)
	_, sources2 := workload.DaySources(day2)
	w, err := evstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Ingest(stream.Concat(sources2...)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	select {
	case <-refreshed:
	case <-time.After(10 * time.Second):
		t.Fatal("watcher never refreshed after ingest")
	}
	after, err := s.Answer(context.Background(), serve.QuerySpec{Kind: serve.KindTable2})
	if err != nil {
		t.Fatal(err)
	}
	if after.Data.(serve.CountsData).Announcements <= before.Data.(serve.CountsData).Announcements {
		t.Fatal("watched daemon still serves the old store")
	}
}

// BenchmarkServeWarmVsCold is the serving speedup: the same windowed
// Table-2 question answered (a) by a cold shard-parallel scan, (b) by
// the warm daemon — snapshot merges on first sight, the LRU cache on
// repeats. The acceptance bar is warm ≥ 5x cold.
func BenchmarkServeWarmVsCold(b *testing.B) {
	cfg := workload.DefaultDayConfig(testDay)
	cfg.Collectors = 3
	dir := buildStore(b, workload.MultiDaySource(cfg, 2))
	window := evstore.TimeRange{From: testDay, To: testDay.Add(24 * time.Hour)}

	b.Run("cold-scanparallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			counts := analysis.NewCounts()
			if _, err := evstore.ScanParallel(context.Background(), dir, evstore.Query{}, window, 0, counts); err != nil {
				b.Fatal(err)
			}
		}
	})
	s, _, err := serve.New(context.Background(), serve.Config{Dir: dir})
	if err != nil {
		b.Fatal(err)
	}
	spec := serve.QuerySpec{Kind: serve.KindTable2, Window: window}
	b.Run("warm-snapshots-nocache", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			// Vary the window end by one nanosecond per iteration: every
			// query misses the cache but still plans onto the same
			// partition snapshots.
			sp := spec
			sp.Window.To = window.To.Add(time.Duration(i + 1))
			if _, err := s.Answer(context.Background(), sp); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm-cached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := s.Answer(context.Background(), spec); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// gatedAnalyzer wraps an analyzer; its Fresh copies share one gate, and
// the first Merge into any of them announces itself on entered and then
// blocks until release closes — a query held open mid-plan, after the
// planner took its view.
type gatedAnalyzer struct {
	classify.Analyzer
	once             *sync.Once
	entered, release chan struct{}
}

func (g gatedAnalyzer) Fresh() classify.Analyzer {
	return gatedAnalyzer{Analyzer: g.Analyzer.Fresh(), once: g.once, entered: g.entered, release: g.release}
}

func (g gatedAnalyzer) Merge(o classify.Analyzer) {
	g.once.Do(func() {
		close(g.entered)
		<-g.release
	})
	if og, ok := o.(gatedAnalyzer); ok {
		o = og.Analyzer
	}
	g.Analyzer.Merge(o)
}

// TestLocalStateStampsPlannedGeneration pins an envelope's generation to
// the index view its query planned from: a query held mid-merge while a
// partition seals and a Refresh completes answers for the store it
// planned over, and says so with the pre-refresh fingerprint — in the
// envelope and in its provenance — never the refreshed one. The Server
// above takes that past generation for what it is: the refresh already
// cleared the cache once, and the straddling answer clears it again
// neither when it lands nor when the next compute reports the present.
func TestLocalStateStampsPlannedGeneration(t *testing.T) {
	cfg := smallCfg()
	_, sources := workload.DaySources(cfg)
	dir := buildStore(t, stream.Concat(sources...))
	ctx := context.Background()
	lb, rs0, err := serve.NewLocalBackend(ctx, serve.Config{Dir: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	s, _, err := serve.New(ctx, serve.Config{Backend: lb})
	if err != nil {
		t.Fatal(err)
	}
	before := rs0.Generation
	spec := serve.QuerySpec{Kind: serve.KindTable2}
	want := analysis.NewCounts()
	coldRef(t, dir, spec, want)

	entered, release := make(chan struct{}), make(chan struct{})
	serve.SetAnalyzers(lb, func(spec serve.QuerySpec) ([]evstore.NamedAnalyzer, error) {
		named, err := serve.StateAnalyzers(spec)
		if err != nil {
			return nil, err
		}
		named[0].Proto = gatedAnalyzer{Analyzer: named[0].Proto, once: new(sync.Once), entered: entered, release: release}
		return named, nil
	})
	type result struct {
		env *serve.StateEnvelope
		err error
	}
	done := make(chan result, 1)
	go func() {
		env, err := s.State(ctx, spec)
		done <- result{env, err}
	}()
	<-entered
	appendDay(t, dir, cfg, 1)
	rs, err := s.Refresh(ctx)
	if err != nil || !rs.Changed || rs.Generation == before {
		t.Fatalf("refresh after a seal: %+v, %v (generation before %d)", rs, err, before)
	}
	close(release)
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.env.Generation != before || r.env.Shards[0].Generation != before {
		t.Errorf("straddling answer stamped %d (provenance %d), want the planned view's %d; refreshed to %d",
			r.env.Generation, r.env.Shards[0].Generation, before, rs.Generation)
	}
	if got := envelopeCounts(t, serve.AppendStateEnvelope(nil, r.env)); got != want.Counts {
		t.Errorf("straddling answer is not the pre-seal store's:\n got %+v\nwant %+v", got, want.Counts)
	}

	// The next query, ungated, plans from the refreshed view, says so,
	// and is cached: one clear in all, the refresh's.
	serve.SetAnalyzers(lb, serve.StateAnalyzers)
	env, err := s.State(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if env.Generation != rs.Generation {
		t.Errorf("post-refresh answer stamped %d, want %d", env.Generation, rs.Generation)
	}
	grown := analysis.NewCounts()
	coldRef(t, dir, spec, grown)
	if got := envelopeCounts(t, serve.AppendStateEnvelope(nil, env)); got != grown.Counts {
		t.Errorf("post-refresh answer diverged from the cold scan:\n got %+v\nwant %+v", got, grown.Counts)
	}
	if st := s.Stats(ctx); st.Refreshes != 1 || st.Cache.Entries != 1 {
		t.Errorf("after a straddled refresh: %d cache clears, %d entries; want 1 and 1", st.Refreshes, st.Cache.Entries)
	}
}

// TestServeQueryLog pins the debug query record to the plan and the
// store version an answer came from: the planner's split and the
// generation, on the computed answer and on its cache hit alike.
func TestServeQueryLog(t *testing.T) {
	_, sources := workload.DaySources(smallCfg())
	dir := buildStore(t, stream.Concat(sources...))
	var logs bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&logs, &slog.HandlerOptions{Level: slog.LevelDebug}))
	s, rs, err := serve.New(context.Background(), serve.Config{Dir: dir, Workers: 2, Logger: logger})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for range 2 {
		resp, err := http.Get(ts.URL + "/v1/table2")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	var records []map[string]any
	for _, line := range bytes.Split(bytes.TrimSpace(logs.Bytes()), []byte("\n")) {
		var rec map[string]any
		dec := json.NewDecoder(bytes.NewReader(line))
		dec.UseNumber() // a generation does not fit a float64
		if err := dec.Decode(&rec); err != nil {
			t.Fatal(err)
		}
		if rec["msg"] == "query" {
			records = append(records, rec)
		}
	}
	if len(records) != 2 {
		t.Fatalf("%d query records, want 2:\n%s", len(records), logs.String())
	}
	for i, rec := range records {
		if m := rec["merged"]; m == nil || m == json.Number("0") || rec["jumped"] == nil || rec["scanned"] == nil || rec["skipped"] == nil {
			t.Errorf("record %d lacks the plan split: %v", i, rec)
		}
		if gen := rec["generation"]; gen != json.Number(strconv.FormatUint(rs.Generation, 10)) {
			t.Errorf("record %d says generation %v, want %d", i, gen, rs.Generation)
		}
	}
}
