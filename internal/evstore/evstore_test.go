package evstore_test

import (
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/bgp"
	"repro/internal/classify"
	"repro/internal/collector"
	"repro/internal/evstore"
	"repro/internal/pipeline"
	"repro/internal/registry"
	"repro/internal/stream"
	"repro/internal/workload"
)

var testDay = time.Date(2020, 3, 15, 0, 0, 0, 0, time.UTC)

// smallDayConfig keeps the generated workload quick but non-trivial:
// two collectors, multiple sessions, v4 and v6 prefixes, withdrawals.
func smallDayConfig() workload.DayConfig {
	cfg := workload.DefaultDayConfig(testDay)
	cfg.Collectors = 2
	cfg.PeersPerCollector = 3
	cfg.PrefixesV4 = 40
	cfg.PrefixesV6 = 8
	return cfg
}

func eventsEqual(a, b classify.Event) bool {
	return a.Time.Equal(b.Time) &&
		a.Collector == b.Collector &&
		a.PeerAS == b.PeerAS &&
		a.PeerAddr == b.PeerAddr &&
		a.Prefix == b.Prefix &&
		a.Withdraw == b.Withdraw &&
		a.ASPath.Equal(b.ASPath) &&
		a.Communities.Equal(b.Communities) &&
		a.HasMED == b.HasMED &&
		a.MED == b.MED
}

// ingest writes src into a fresh store under t.TempDir with small
// blocks (so pushdown has block granularity to work with).
func ingest(t *testing.T, src stream.EventSource) string {
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

// TestScanRoundTripSingleDay checks event-level fidelity: every event
// of a generated day comes back byte-equivalent, in per-session order.
func TestScanRoundTripSingleDay(t *testing.T) {
	cfg := smallDayConfig()
	_, sources := workload.DaySources(cfg)
	want := stream.Collect(stream.Concat(sources...))
	dir := ingest(t, stream.FromSlice(want))

	var scanErr error
	got := stream.Collect(evstore.Scan(dir, evstore.Query{}, &scanErr))
	if scanErr != nil {
		t.Fatal(scanErr)
	}
	if len(got) != len(want) {
		t.Fatalf("scan returned %d of %d events", len(got), len(want))
	}
	// The scan's collector-major order is a permutation of the ingest
	// order; compare per session to assert order where it matters.
	bySession := func(evs []classify.Event) map[classify.SessionKey][]classify.Event {
		m := make(map[classify.SessionKey][]classify.Event)
		for _, e := range evs {
			m[e.Session()] = append(m[e.Session()], e)
		}
		return m
	}
	wantBy, gotBy := bySession(want), bySession(got)
	if len(wantBy) != len(gotBy) {
		t.Fatalf("session count: got %d want %d", len(gotBy), len(wantBy))
	}
	for key, wevs := range wantBy {
		gevs := gotBy[key]
		if len(gevs) != len(wevs) {
			t.Fatalf("session %v: %d of %d events", key, len(gevs), len(wevs))
		}
		for i := range wevs {
			if !eventsEqual(gevs[i], wevs[i]) {
				t.Fatalf("session %v event %d:\n got %+v\nwant %+v", key, i, gevs[i], wevs[i])
			}
		}
	}
}

// TestScanClassifiesLikeMultiDaySource is the headline equivalence
// property: classification (and the combined Table 1 + Table 2 report)
// over a scan of an ingested multi-day workload must equal the direct
// streaming path it replaces.
func TestScanClassifiesLikeMultiDaySource(t *testing.T) {
	cfg := smallDayConfig()
	const days = 3
	dir := ingest(t, workload.MultiDaySource(cfg, days))

	direct := countTypes(workload.MultiDaySource(cfg, days), nil)
	var scanErr error
	scanned := countTypes(evstore.Scan(dir, evstore.Query{}, &scanErr), nil)
	if scanErr != nil {
		t.Fatal(scanErr)
	}
	if direct != scanned {
		t.Errorf("counts diverge:\n direct %+v\nscanned %+v", direct, scanned)
	}
}

// TestScanReportsLikeDirSources checks the MRT-archive path: archives
// written from a generated day, ingested through the §4 normalizer,
// must report identically whether analyses read the archives or the
// store.
func TestScanReportsLikeDirSources(t *testing.T) {
	cfg := smallDayConfig()
	peers, sources := workload.DaySources(cfg)
	mrtDir := t.TempDir()
	if _, err := collector.WriteSourcesDir(peers, sources, mrtDir); err != nil {
		t.Fatal(err)
	}
	newSources := func() []stream.EventSource {
		norm := pipeline.NewNormalizer(registry.Synthetic(time.Date(2009, 1, 1, 0, 0, 0, 0, time.UTC)))
		var srcErr error
		_, srcs, err := pipeline.DirSources(norm, mrtDir, &srcErr)
		if err != nil {
			t.Fatal(err)
		}
		return srcs
	}

	dir := ingest(t, stream.Concat(newSources()...))
	directT1, directCounts := analysisReport(stream.Concat(newSources()...))
	var scanErr error
	scanT1, scanCounts := analysisReport(evstore.Scan(dir, evstore.Query{}, &scanErr))
	if scanErr != nil {
		t.Fatal(scanErr)
	}
	if directCounts != scanCounts {
		t.Errorf("counts diverge:\n direct %+v\nscanned %+v", directCounts, scanCounts)
	}
	if directT1 != scanT1 {
		t.Errorf("Table 1 diverges:\n direct %+v\nscanned %+v", directT1, scanT1)
	}
}

// TestPushdownMatchesFilter: for a spread of queries, a pushdown scan
// must classify identically to stream.Filter(direct, q.Match) over the
// unfiltered stream — and actually prune for the selective ones.
func TestPushdownMatchesFilter(t *testing.T) {
	cfg := smallDayConfig()
	const days = 3
	direct := func() stream.EventSource { return workload.MultiDaySource(cfg, days) }
	dir := ingest(t, direct())

	peers, _ := workload.DaySources(cfg)
	var v4 netip.Prefix
	for e := range direct() {
		if e.Prefix.IsValid() && e.Prefix.Addr().Is4() {
			v4 = e.Prefix
			break
		}
	}
	if !v4.IsValid() {
		t.Fatal("no v4 prefix in workload")
	}
	parent16 := netip.PrefixFrom(v4.Addr(), 16).Masked()

	queries := []struct {
		name      string
		q         evstore.Query
		wantPrune bool
	}{
		{"all", evstore.Query{}, false},
		{"window-2h-day2", evstore.Query{Window: evstore.TimeRange{
			From: testDay.Add(24*time.Hour + 6*time.Hour),
			To:   testDay.Add(24*time.Hour + 8*time.Hour),
		}}, true},
		{"one-collector", evstore.Query{Collectors: []string{peers[0].Collector}}, true},
		{"one-peer", evstore.Query{PeerAS: []uint32{peers[0].AS}}, false},
		// Every block of this workload holds nearly every prefix, so
		// prefix queries verify equivalence only; block-level prefix
		// pruning is exercised in TestPrefixFilterPrunesBlocks.
		{"exact-prefix", evstore.Query{PrefixRange: v4}, false},
		{"prefix-slash16", evstore.Query{PrefixRange: parent16}, false},
		{"combined", evstore.Query{
			Window:     evstore.TimeRange{From: testDay, To: testDay.Add(24 * time.Hour)},
			Collectors: []string{peers[0].Collector},
			PeerAS:     []uint32{peers[0].AS},
		}, true},
	}
	for _, tc := range queries {
		t.Run(tc.name, func(t *testing.T) {
			want := countTypes(stream.Filter(direct(), tc.q.Match), nil)
			var scanErr error
			var st evstore.ScanStats
			got := countTypes(evstore.ScanWithStats(dir, tc.q, &scanErr, &st), nil)
			if scanErr != nil {
				t.Fatal(scanErr)
			}
			if got != want {
				t.Errorf("counts diverge:\n filter %+v\n   scan %+v", want, got)
			}
			if want.Announcements()+want.Withdrawals == 0 {
				t.Fatal("query selected nothing; widen the test inputs")
			}
			pruned := st.PartitionsPruned + st.BlocksPruned
			if tc.wantPrune && pruned == 0 {
				t.Errorf("expected pushdown pruning, stats: %+v", st)
			}
		})
	}
}

// TestPrefixFilterPrunesBlocks pins the bloom pushdown: blocks whose
// address ranges all overlap (sentinel low/high prefixes in every
// block) can still be pruned by the membership filter when the queried
// prefix lives in exactly one of them.
func TestPrefixFilterPrunesBlocks(t *testing.T) {
	const blockEvents, nblocks = 256, 8
	var events []classify.Event
	mk := func(i int, prefix string) classify.Event {
		return classify.Event{
			Time:      testDay.Add(time.Duration(i) * time.Second),
			Collector: "rrc00",
			PeerAS:    65000,
			PeerAddr:  netip.MustParseAddr("192.0.2.1"),
			Prefix:    netip.MustParsePrefix(prefix),
			ASPath:    bgp.NewASPath(65000, 64512),
		}
	}
	for k := 0; k < nblocks; k++ {
		for i := 0; i < blockEvents; i++ {
			idx := k*blockEvents + i
			switch i {
			case 0:
				events = append(events, mk(idx, "10.0.0.0/24"))
			case blockEvents - 1:
				events = append(events, mk(idx, "10.255.0.0/24"))
			default:
				p := netip.AddrFrom4([4]byte{10, byte(k + 1), byte(i % 4), 0})
				events = append(events, mk(idx, netip.PrefixFrom(p, 24).String()))
			}
		}
	}
	dir := t.TempDir()
	w, err := evstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	w.BlockEvents = blockEvents
	if err := w.Ingest(stream.FromSlice(events)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	q := evstore.Query{PrefixRange: netip.MustParsePrefix("10.4.1.0/24")}
	var scanErr error
	var st evstore.ScanStats
	got := stream.Collect(evstore.ScanWithStats(dir, q, &scanErr, &st))
	if scanErr != nil {
		t.Fatal(scanErr)
	}
	want := stream.Collect(stream.Filter(stream.FromSlice(events), q.Match))
	if len(got) != len(want) || len(got) == 0 {
		t.Fatalf("scan returned %d events, filter %d", len(got), len(want))
	}
	if st.BlocksDecoded != 1 || st.BlocksPruned != nblocks-1 {
		t.Errorf("bloom pushdown decoded %d / pruned %d of %d blocks (stats %+v)",
			st.BlocksDecoded, st.BlocksPruned, nblocks, st)
	}
}

// TestAppendIngest: a second ingest lands in new sequence files, and a
// scan sees the union.
func TestAppendIngest(t *testing.T) {
	cfg := smallDayConfig()
	_, sources := workload.DaySources(cfg)
	events := stream.Collect(stream.Concat(sources...))
	half := len(events) / 2
	dir := ingest(t, stream.FromSlice(events[:half]))

	w, err := evstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Ingest(stream.FromSlice(events[half:])); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	var scanErr error
	if n := stream.Count(evstore.Scan(dir, evstore.Query{}, &scanErr)); n != len(events) || scanErr != nil {
		t.Fatalf("after append scan saw %d of %d events (err %v)", n, len(events), scanErr)
	}
	infos, err := evstore.Stat(dir)
	if err != nil {
		t.Fatal(err)
	}
	seqs := make(map[int]bool)
	for _, info := range infos {
		seqs[info.Seq] = true
	}
	if !seqs[0] || !seqs[1] {
		t.Errorf("expected seq 0 and 1 partitions, got %v", seqs)
	}
}

// TestWriterConstantMemory: the open-partition set stays bounded by the
// collector count regardless of how many days stream through.
func TestWriterConstantMemory(t *testing.T) {
	cfg := smallDayConfig()
	cfg.PrefixesV4, cfg.PrefixesV6 = 12, 2
	const days = 6
	dir := t.TempDir()
	w, err := evstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	w.BlockEvents = 128
	if err := w.Ingest(workload.MultiDaySource(cfg, days)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	// Day k's stream may straddle partition days (warm-up before, a few
	// spillover minutes after), and sealing lags two days behind, so
	// the bound is collectors × 4 — not a function of the day count.
	if limit := cfg.Collectors * 4; st.PeakActive > limit {
		t.Errorf("peak open partitions %d exceeds %d (days=%d)", st.PeakActive, limit, days)
	}
	if st.Partitions < cfg.Collectors*days {
		t.Errorf("only %d partitions for %d collector-days", st.Partitions, cfg.Collectors*days)
	}
	if st.Events == 0 || st.Blocks == 0 || st.Bytes == 0 {
		t.Errorf("implausible stats %+v", st)
	}
}

// TestIngestRollsBackOnError: a failed ingest must leave the store
// exactly as it was — a sealed partial store would be silently trusted
// by later runs (`evstore query` and commservd read any partition).
func TestIngestRollsBackOnError(t *testing.T) {
	cfg := smallDayConfig()
	_, sources := workload.DaySources(cfg)
	events := stream.Collect(stream.Concat(sources...))
	dir := ingest(t, stream.FromSlice(events[:100]))
	before, err := evstore.Stat(dir)
	if err != nil {
		t.Fatal(err)
	}

	// Deferred-error veto (the archive-source *errp pattern): the
	// stream drains fine but the source reports a failure afterwards.
	srcErr := fmt.Errorf("archive corrupted mid-file")
	if _, err := evstore.Ingest(dir, stream.FromSlice(events[100:]),
		func() error { return srcErr }); err == nil {
		t.Fatal("Ingest committed despite the source error")
	}
	after, err := evstore.Stat(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) {
		t.Fatalf("failed ingest changed the store: %d -> %d partitions", len(before), len(after))
	}
	var scanErr error
	if n := stream.Count(evstore.Scan(dir, evstore.Query{}, &scanErr)); n != 100 || scanErr != nil {
		t.Errorf("store holds %d events after rollback, want 100 (err %v)", n, scanErr)
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 0 {
		t.Errorf("rollback left temp files: %v", tmps)
	}
}

// TestWriterSealsPerCollector: concatenated per-collector multi-day
// inputs (one archive per collector, each restarting at day one) must
// not accumulate open partitions — sealing tracks each collector's own
// day high-water mark.
func TestWriterSealsPerCollector(t *testing.T) {
	const collectors, days, perDay = 2, 6, 40
	var events []classify.Event
	for c := 0; c < collectors; c++ {
		name := []string{"rrc00", "rrc01"}[c]
		for d := 0; d < days; d++ {
			for i := 0; i < perDay; i++ {
				events = append(events, classify.Event{
					Time:      testDay.Add(time.Duration(d)*24*time.Hour + time.Duration(i)*time.Minute),
					Collector: name,
					PeerAS:    65000 + uint32(c),
					PeerAddr:  netip.MustParseAddr("192.0.2.1"),
					Prefix:    netip.MustParsePrefix("10.0.0.0/24"),
					ASPath:    bgp.NewASPath(65000, 64512),
				})
			}
		}
	}
	dir := t.TempDir()
	w, err := evstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	w.BlockEvents = 16
	if err := w.Ingest(stream.FromSlice(events)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	if st.Partitions != collectors*days {
		t.Errorf("partitions = %d, want %d", st.Partitions, collectors*days)
	}
	// Each collector holds at most a three-day window open; a finished
	// collector's tail stays open until Close. Crucially the bound does
	// not grow with the day count (the global-high-water bug kept every
	// later collector's days open).
	if limit := collectors * 3; st.PeakActive > limit {
		t.Errorf("peak open partitions %d exceeds %d for %d collector-days",
			st.PeakActive, limit, collectors*days)
	}
	var scanErr error
	if n := stream.Count(evstore.Scan(dir, evstore.Query{}, &scanErr)); n != len(events) || scanErr != nil {
		t.Fatalf("scan saw %d of %d events (err %v)", n, len(events), scanErr)
	}
}

// TestStatAndPartitionSource exercises the inspection APIs used by
// `evstore dump` and `evstore dump -stats`.
func TestStatAndPartitionSource(t *testing.T) {
	cfg := smallDayConfig()
	_, sources := workload.DaySources(cfg)
	events := stream.Collect(stream.Concat(sources...))
	dir := ingest(t, stream.FromSlice(events))

	if !evstore.IsStoreDir(dir) {
		t.Error("IsStoreDir = false on a populated store")
	}
	if evstore.IsStoreDir(t.TempDir()) {
		t.Error("IsStoreDir = true on an empty dir")
	}
	infos, err := evstore.Stat(dir)
	if err != nil {
		t.Fatal(err)
	}
	total, blocks := 0, 0
	for _, info := range infos {
		total += info.Events
		blocks += len(info.Blocks)
		if info.Collector == "" || info.Events == 0 || len(info.PeerAS) == 0 {
			t.Errorf("thin partition info: %+v", info)
		}
		if info.TimeMin.After(info.TimeMax) {
			t.Errorf("inverted time range: %+v", info)
		}
		var perr error
		n := stream.Count(evstore.PartitionSource(info.Path, evstore.Query{}, &perr))
		if perr != nil || n != info.Events {
			t.Errorf("%s: PartitionSource saw %d of %d events (err %v)",
				info.Path, n, info.Events, perr)
		}
	}
	if total != len(events) {
		t.Errorf("Stat counted %d of %d events", total, len(events))
	}
	if blocks < 2 {
		t.Errorf("expected multiple blocks, got %d", blocks)
	}
}

// TestScanErrors: an empty store reports an error through errp; a
// corrupt partition file fails cleanly rather than yielding garbage.
func TestScanErrors(t *testing.T) {
	var scanErr error
	if n := stream.Count(evstore.Scan(t.TempDir(), evstore.Query{}, &scanErr)); n != 0 || scanErr == nil {
		t.Errorf("empty store: n=%d err=%v", n, scanErr)
	}

	cfg := smallDayConfig()
	_, sources := workload.DaySources(cfg)
	dir := ingest(t, stream.Concat(sources...))
	// Truncate the first partition to break its footer.
	infos, err := evstore.Stat(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := truncateFile(infos[0].Path, infos[0].SizeBytes/2); err != nil {
		t.Fatal(err)
	}
	scanErr = nil
	stream.Count(evstore.Scan(dir, evstore.Query{}, &scanErr))
	if scanErr == nil {
		t.Error("scan of a truncated partition reported no error")
	}
	if _, err := evstore.StatPartition(filepath.Join(dir, "nope.evp")); err == nil {
		t.Error("StatPartition on a missing file reported no error")
	}
}

// TestEarlyExitStopsScan: breaking out of a scan must not read further
// blocks (a consumer that takes the first N events and stops).
func TestEarlyExitStopsScan(t *testing.T) {
	cfg := smallDayConfig()
	_, sources := workload.DaySources(cfg)
	dir := ingest(t, stream.Concat(sources...))
	var scanErr error
	var st evstore.ScanStats
	n := 0
	for range evstore.ScanWithStats(dir, evstore.Query{}, &scanErr, &st) {
		if n++; n == 10 {
			break
		}
	}
	if n != 10 || scanErr != nil {
		t.Fatalf("first 10 events of a scan: n=%d err=%v", n, scanErr)
	}
	if st.BlocksDecoded > 1 {
		t.Errorf("early exit decoded %d blocks", st.BlocksDecoded)
	}
}

// TestQueryMatchPrefixSemantics pins the PrefixRange contract:
// subnet-of-or-equal, family-strict.
func TestQueryMatchPrefixSemantics(t *testing.T) {
	mk := func(p string) classify.Event {
		return classify.Event{Time: testDay, Prefix: netip.MustParsePrefix(p)}
	}
	q := evstore.Query{PrefixRange: netip.MustParsePrefix("84.205.0.0/16")}
	if !q.Match(mk("84.205.64.0/24")) {
		t.Error("subnet not matched")
	}
	if !q.Match(mk("84.205.0.0/16")) {
		t.Error("equal prefix not matched")
	}
	if q.Match(mk("84.0.0.0/8")) {
		t.Error("covering supernet matched")
	}
	if q.Match(mk("85.0.0.0/16")) {
		t.Error("disjoint prefix matched")
	}
	if q.Match(mk("2001:db8::/48")) {
		t.Error("other family matched")
	}
}

// analysisReport runs the combined Table 1 + Table 2 pass.
func analysisReport(src stream.EventSource) (analysis.Table1, classify.Counts) {
	t1, counts := analysis.NewTable1(), analysis.NewCounts()
	analysis.RunAll(src, nil, t1, counts)
	return t1.Table1(), counts.Counts
}

// countTypes classifies src in one pass and returns the Table 2 counts of
// its in-window events (nil counts every event).
func countTypes(src stream.EventSource, inWindow func(classify.Event) bool) classify.Counts {
	counts := analysis.NewCounts()
	analysis.RunAll(src, inWindow, counts)
	return counts.Counts
}

func truncateFile(path string, size int64) error {
	return os.Truncate(path, size)
}
