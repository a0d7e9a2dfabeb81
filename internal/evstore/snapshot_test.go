package evstore_test

import (
	"context"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/bgp"
	"repro/internal/classify"
	"repro/internal/evstore"
	"repro/internal/stream"
	"repro/internal/workload"
)

// snapNamed returns fresh named analyzer prototypes — the registry the
// snapshot tests build and query with.
func snapNamed() []evstore.NamedAnalyzer {
	return []evstore.NamedAnalyzer{
		{Key: "table1", Proto: analysis.NewTable1()},
		{Key: "counts", Proto: analysis.NewCounts()},
		{Key: "peers", Proto: analysis.NewPeerBehavior()},
		{Key: "ingress", Proto: analysis.NewIngress()},
	}
}

// TestSnapshotSidecarRoundTrip pins the sidecar codec.
func TestSnapshotSidecarRoundTrip(t *testing.T) {
	dir := t.TempDir()
	part := filepath.Join(dir, "rrc00__20200315__0000.evp")
	results := make([]byte, 42)
	for i := range results {
		results[i] = classify.EncodeResult(classify.Result{Type: classify.Types()[i%6], MEDChanged: i%4 == 0}, i%7 == 0)
	}
	want := &evstore.PartitionSnapshot{
		Partition:  "rrc00__20200315__0000.evp",
		Size:       12345,
		Collector:  "rrc00",
		Events:     42,
		TMin:       1584230400000000000,
		TMax:       1584316799999999999,
		Classifier: []byte{1, 2, 3, 4},
		Results:    results,
		States: map[string][]byte{
			"counts": {9, 8, 7},
			"table1": {},
		},
	}
	if err := evstore.WriteSnapshot(part, want); err != nil {
		t.Fatal(err)
	}
	got, err := evstore.ReadSnapshot(part)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("sidecar round trip diverged:\n got %+v\nwant %+v", got, want)
	}
}

// appendLiveDays ingests n generated days, starting at cfg.Day plus
// first days, the way live ingest lays them out: each day's sessions
// merged into one time-ordered feed and partitions sealed every
// maxEvents events, so a collector's shard is a run of short,
// time-disjoint partitions rather than one per day — of a few small
// blocks each, so a window edge inside a partition also prunes blocks.
func appendLiveDays(t *testing.T, dir string, cfg workload.DayConfig, first, n, maxEvents int) {
	t.Helper()
	w, err := evstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	w.BlockEvents = 16
	w.Seal = evstore.SealPolicy{MaxEvents: maxEvents}
	for d, day := range workload.MultiDayConfigs(cfg, first+n)[first:] {
		_, sources := workload.DaySources(day)
		src := stream.Merge(sources...)
		if first+d > 0 {
			// Later days' warm-ups would replay announcements the streams
			// already carry over (see workload.MultiDaySource).
			src = stream.Filter(src, func(e classify.Event) bool { return !e.Time.Before(day.Day) })
		}
		if err := w.Ingest(src); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// liveShapedStore is a fresh store holding two days in that layout.
func liveShapedStore(t *testing.T, cfg workload.DayConfig, maxEvents int) string {
	t.Helper()
	dir := t.TempDir()
	appendLiveDays(t, dir, cfg, 0, 2, maxEvents)
	return dir
}

// cutInstant returns an instant strictly inside the partition's event
// span, so a window edge placed there cuts the partition.
func cutInstant(t *testing.T, snap *evstore.PartitionSnapshot) time.Time {
	t.Helper()
	if snap.TMax-snap.TMin < 2 {
		t.Fatalf("%s spans %d ns; cannot cut it", snap.Partition, snap.TMax-snap.TMin)
	}
	return time.Unix(0, snap.TMin+(snap.TMax-snap.TMin)/2).UTC()
}

// checkSnapshotQuery pins one query's equivalence — the index's answer
// against a cold ScanParallel of the full collector timelines tallying
// the same window — and the lazy chain's restore bound.
func checkSnapshotQuery(t *testing.T, ix *evstore.SnapshotIndex, q evstore.Query) evstore.ServeStats {
	t.Helper()
	return checkSnapshotQueryFor(t, ix, q, snapNamed)
}

// checkSnapshotQueryFor is checkSnapshotQuery for the analyzer set
// named returns (fresh prototypes per call).
func checkSnapshotQueryFor(t *testing.T, ix *evstore.SnapshotIndex, q evstore.Query, named func() []evstore.NamedAnalyzer) evstore.ServeStats {
	t.Helper()
	ref := named()
	refAnalyzers := make([]classify.Analyzer, len(ref))
	for i, na := range ref {
		refAnalyzers[i] = na.Proto
	}
	cold := q
	cold.Window = evstore.TimeRange{}
	ps, err := evstore.ScanParallel(context.Background(), ix.Dir(), cold, q.Window, 2, refAnalyzers...)
	if err != nil {
		t.Fatal(err)
	}

	got := named()
	ss, err := ix.Query(context.Background(), q, 2, got...)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		g, w := got[i].Proto.Finish(), ref[i].Proto.Finish()
		if !reflect.DeepEqual(g, w) {
			t.Errorf("analyzer %q diverged:\n got %+v\nwant %+v", got[i].Key, g, w)
		}
	}
	// Only a partition that is classified can cost a restore; one with a
	// trusted sidecar is replayed. With every partition snapshotted and no
	// per-event filter, that is all of them.
	if ss.Replayed > ss.Plan.Scanned || ss.Restores > ss.Plan.Scanned-ss.Replayed {
		t.Errorf("%d restores and %d replays for %d scanned partitions (plan %+v)",
			ss.Restores, ss.Replayed, ss.Plan.Scanned, ss.Plan)
	}
	// A filtered query plans as the cold run, and its stats are a function
	// of store and query: the cold run's, field for field.
	filtered := len(q.PeerAS) > 0 || q.PrefixRange.IsValid()
	if filtered && ss.Scan != ps.Total {
		t.Errorf("filtered query's scan stats %+v, the cold run's %+v", ss.Scan, ps.Total)
	}
	if parts, snapped := ix.Coverage(); !filtered && snapped == parts && (ss.Restores != 0 || ss.Replayed != ss.Plan.Scanned) {
		t.Errorf("fully snapshotted store: %d restores, %d of %d scanned partitions replayed; want 0 and all",
			ss.Restores, ss.Replayed, ss.Plan.Scanned)
	}
	return ss
}

// TestSnapshotQueryMatchesScanParallel is the tentpole equivalence: a
// snapshot-merge query must be bit-identical to a cold shard-parallel
// scan of the full collector timelines tallying the same window — for
// unbounded, day-aligned, partition-cutting, collector-filtered, and
// empty windows alike, on the one-partition-per-collector-day layout
// batch ingest writes and on the many-short-partitions layout live
// ingest writes — replaying every scanned partition that has a trusted
// sidecar and decoding a classifier state only for one that has none;
// and a query with per-event filters must plan as that cold scan itself,
// trusting no sidecar.
func TestSnapshotQueryMatchesScanParallel(t *testing.T) {
	cfg := smallDayConfig()
	cfg.Collectors = 3
	dir := ingest(t, workload.MultiDaySource(cfg, 2))

	ix, bs, err := evstore.OpenSnapshotIndex(context.Background(), dir, snapNamed())
	if err != nil {
		t.Fatal(err)
	}
	if bs.Built == 0 {
		t.Fatal("index build wrote no sidecars")
	}
	parts, snapped := ix.Coverage()
	if parts == 0 || snapped != parts {
		t.Fatalf("coverage %d/%d, want full", snapped, parts)
	}

	cases := []struct {
		name string
		q    evstore.Query
		// wantResidual: <0 means "don't check"; otherwise the exact
		// number of partitions the planner may scan.
		wantResidual int
	}{
		{"unbounded", evstore.Query{}, 0},
		{"full-day", evstore.Query{Window: evstore.TimeRange{
			From: testDay, To: testDay.Add(24 * time.Hour)}}, 0},
		{"cuts-partitions", evstore.Query{Window: evstore.TimeRange{
			From: testDay.Add(3 * time.Hour), To: testDay.Add(27 * time.Hour)}}, -1},
		{"one-collector", evstore.Query{Collectors: []string{"rrc00"},
			Window: evstore.TimeRange{From: testDay, To: testDay.Add(24 * time.Hour)}}, 0},
		{"before-data", evstore.Query{Window: evstore.TimeRange{
			From: testDay.Add(-100 * 24 * time.Hour), To: testDay.Add(-99 * 24 * time.Hour)}}, -1},
		{"after-data", evstore.Query{Window: evstore.TimeRange{
			From: testDay.Add(99 * 24 * time.Hour), To: testDay.Add(100 * 24 * time.Hour)}}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ss := checkSnapshotQuery(t, ix, tc.q)
			if tc.wantResidual >= 0 && ss.Plan.Scanned != tc.wantResidual {
				t.Errorf("planner scanned %d partitions, want %d (plan %+v)",
					ss.Plan.Scanned, tc.wantResidual, ss.Plan)
			}
			if ss.Plan.Scanned == 0 && ss.Restores != 0 {
				t.Errorf("all-merge answer restored %d classifier states", ss.Restores)
			}
		})
	}

	t.Run("live-shaped", func(t *testing.T) {
		dir := liveShapedStore(t, cfg, 40)
		ix, _, err := evstore.OpenSnapshotIndex(context.Background(), dir, snapNamed())
		if err != nil {
			t.Fatal(err)
		}
		shards, err := evstore.ScanShards(dir, evstore.Query{})
		if err != nil {
			t.Fatal(err)
		}
		var paths []string
		for _, sh := range shards {
			if len(sh.Partitions()) < 10 {
				t.Fatalf("%s: %d partitions, want >= 10", sh.Collector, len(sh.Partitions()))
			}
			if sh.Collector == "rrc00" {
				paths = sh.Partitions()
			}
		}
		inside := func(i int) time.Time {
			snap, err := evstore.ReadSnapshot(paths[i])
			if err != nil {
				t.Fatal(err)
			}
			return cutInstant(t, snap)
		}
		n := len(paths)
		one := []string{"rrc00"}

		// jump·jump·scan·merge·merge·scan·skip…
		cut := evstore.Query{Collectors: one, Window: evstore.TimeRange{From: inside(2), To: inside(5)}}
		ss := checkSnapshotQuery(t, ix, cut)
		want := evstore.PlanStats{Shards: 1, Partitions: n, Jumped: 2, Scanned: 2, Merged: 2, Skipped: n - 6}
		if ss.Plan != want {
			t.Errorf("plan %+v, want %+v", ss.Plan, want)
		}
		if ss.Restores != 0 || ss.Replayed != 2 {
			t.Errorf("%d restores, %d replays; want 0 and 2: both cut partitions have sidecars", ss.Restores, ss.Replayed)
		}

		// An analyzer no sidecar holds a state for (figure 4/5's, keyed "")
		// turns every in-window merge into a scan — still a replay.
		withUnkeyed := func() []evstore.NamedAnalyzer {
			return append(snapNamed(), evstore.NamedAnalyzer{Proto: analysis.NewCounts()})
		}
		ss = checkSnapshotQueryFor(t, ix, cut, withUnkeyed)
		want = evstore.PlanStats{Shards: 1, Partitions: n, Jumped: 2, Scanned: 4, Skipped: n - 6}
		if ss.Plan != want || ss.Restores != 0 || ss.Replayed != 4 {
			t.Errorf("unkeyed analyzer: plan %+v, %d restores, %d replays; want %+v, 0, 4", ss.Plan, ss.Restores, ss.Replayed, want)
		}

		// The same cut across every collector's shard, and windows whose
		// edges fall on the layout's ends.
		checkSnapshotQuery(t, ix, evstore.Query{Window: cut.Window})
		checkSnapshotQuery(t, ix, evstore.Query{Collectors: one, Window: evstore.TimeRange{To: inside(4)}})
		checkSnapshotQuery(t, ix, evstore.Query{Collectors: one, Window: evstore.TimeRange{From: inside(n - 2)}})
		if ss := checkSnapshotQuery(t, ix, evstore.Query{}); ss.Plan.Scanned != 0 || ss.Restores != 0 {
			t.Errorf("unbounded: scanned %d, restored %d; want an all-merge answer", ss.Plan.Scanned, ss.Restores)
		}

		// Per-event filters select events WITHIN sessions, which whole-
		// partition states cannot answer: no merge, no jump, no restore —
		// every partition scans except the tail the window end rules out,
		// here by file-name day alone (the second day's partitions).
		var sample classify.Event
		for e := range evstore.PartitionSource(paths[0], evstore.Query{}, nil) {
			if !e.Withdraw {
				sample = e
				break
			}
		}
		day2 := 0
		for _, p := range paths {
			if strings.Contains(filepath.Base(p), "__"+testDay.Add(24*time.Hour).Format("20060102")+"__") {
				day2++
			}
		}
		firstDay := evstore.TimeRange{From: inside(2), To: testDay.Add(24 * time.Hour)}
		for _, q := range []evstore.Query{
			{Collectors: one, PeerAS: []uint32{sample.PeerAS}, Window: firstDay},
			{Collectors: one, PrefixRange: netip.PrefixFrom(sample.Prefix.Addr(), 8), Window: firstDay},
		} {
			ss := checkSnapshotQuery(t, ix, q)
			want := evstore.PlanStats{Shards: 1, Partitions: n, Scanned: n - day2, Skipped: day2}
			if day2 == 0 || ss.Plan != want {
				t.Errorf("filtered plan %+v, want %+v (q=%+v)", ss.Plan, want, q)
			}
			if ss.Restores != 0 || ss.Merges != 0 {
				t.Errorf("filtered query restored %d classifier and merged %d analyzer states; want none", ss.Restores, ss.Merges)
			}
			if ss.Scan.Events == 0 {
				t.Errorf("filtered query matched no events (q=%+v)", q)
			}
		}

		// A mid-shard partition with no sidecar (deleted on disk and
		// unknown to the index, as one sealed after the last refresh's
		// build pass is) is classified between merges: the chain settles
		// before it — the query's one restore — while the partitions the
		// window cuts are replayed.
		if err := os.Remove(evstore.SnapshotPath(paths[4])); err != nil {
			t.Fatal(err)
		}
		evstore.DropSnapshot(ix, paths[4])
		wide := evstore.Query{Collectors: one, Window: evstore.TimeRange{From: inside(2), To: inside(7)}}
		ss = checkSnapshotQuery(t, ix, wide)
		want = evstore.PlanStats{Shards: 1, Partitions: n, Jumped: 2, Scanned: 3, Merged: 3, Skipped: n - 8}
		if ss.Plan != want {
			t.Errorf("plan with a sidecar missing %+v, want %+v", ss.Plan, want)
		}
		if ss.Restores != 1 || ss.Replayed != 2 {
			t.Errorf("%d restores, %d replays; want 1 and 2", ss.Restores, ss.Replayed)
		}
		checkSnapshotQuery(t, ix, evstore.Query{Window: wide.Window})

		// Two sidecar-less partitions in a row: one restore before the
		// first, and the live classifier carries into the second.
		if err := os.Remove(evstore.SnapshotPath(paths[5])); err != nil {
			t.Fatal(err)
		}
		evstore.DropSnapshot(ix, paths[5])
		ss = checkSnapshotQuery(t, ix, wide)
		want = evstore.PlanStats{Shards: 1, Partitions: n, Jumped: 2, Scanned: 4, Merged: 2, Skipped: n - 8}
		if ss.Plan != want || ss.Restores != 1 || ss.Replayed != 2 {
			t.Errorf("two sidecars missing: plan %+v, %d restores, %d replays; want %+v, 1, 2", ss.Plan, ss.Restores, ss.Replayed, want)
		}

		// The next refresh rebuilds exactly those sidecars, restoring only
		// their predecessor's end state, and the query is all replay again.
		bs, err := ix.Refresh(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if bs.Built != 2 || bs.SidecarsRead != 0 || bs.Restores != 1 {
			t.Errorf("healing refresh built %d, read %d sidecars, restored %d; want 2, 0, 1",
				bs.Built, bs.SidecarsRead, bs.Restores)
		}
		if ss := checkSnapshotQuery(t, ix, wide); ss.Restores != 0 || ss.Replayed != 2 {
			t.Errorf("after the healing refresh: %d restores, %d replays; want 0 and 2", ss.Restores, ss.Replayed)
		}
	})

	// Partitions of several blocks: a replay decodes only the blocks the
	// window reaches, and reads their codes at the right column offset
	// past the ones it prunes.
	t.Run("multi-block", func(t *testing.T) {
		dir := liveShapedStore(t, cfg, 400)
		ix, _, err := evstore.OpenSnapshotIndex(context.Background(), dir, snapNamed())
		if err != nil {
			t.Fatal(err)
		}
		shards, err := evstore.ScanShards(dir, evstore.Query{})
		if err != nil {
			t.Fatal(err)
		}
		var info evstore.PartitionInfo
		for _, path := range shards[0].Partitions() {
			if info, err = evstore.StatPartition(path); err != nil {
				t.Fatal(err)
			}
			if len(info.Blocks) >= 4 {
				break
			}
		}
		if len(info.Blocks) < 4 {
			t.Fatalf("no partition of %s has >= 4 blocks", shards[0].Collector)
		}
		// From the third block's first event to the last block's: the
		// first two blocks hold nothing in the window.
		q := evstore.Query{Collectors: []string{shards[0].Collector}, Window: evstore.TimeRange{
			From: info.Blocks[2].TimeMin, To: info.Blocks[len(info.Blocks)-1].TimeMin}}
		ss := checkSnapshotQuery(t, ix, q)
		if ss.Plan.Scanned != 1 || ss.Replayed != 1 || ss.Scan.BlocksPruned < 2 ||
			ss.Scan.BlocksDecoded+ss.Scan.BlocksPruned != len(info.Blocks) {
			t.Errorf("plan %+v, %d replays, %d of %d blocks pruned and %d decoded; want 1 replayed scan pruning >= 2",
				ss.Plan, ss.Replayed, ss.Scan.BlocksPruned, len(info.Blocks), ss.Scan.BlocksDecoded)
		}
		checkSnapshotQuery(t, ix, evstore.Query{Window: q.Window})
	})

	// A store whose ingest order disagrees with its timestamps: the
	// 10:00 duplicate is the only event tallied, and its recorded code
	// says nn — classified against the 12:00 announcement that precedes
	// it in the partition, which the window never decodes for a verdict.
	t.Run("out-of-order", func(t *testing.T) {
		late := classify.Event{Time: testDay.Add(12 * time.Hour), Collector: "rrc00", PeerAS: 64500,
			PeerAddr: netip.MustParseAddr("10.0.0.1"), Prefix: netip.MustParsePrefix("192.0.2.0/24"),
			ASPath: bgp.NewASPath(64500, 64501)}
		early := late
		early.Time = testDay.Add(10 * time.Hour)
		dir := ingest(t, stream.FromSlice([]classify.Event{late, early}))
		ix, _, err := evstore.OpenSnapshotIndex(context.Background(), dir, snapNamed())
		if err != nil {
			t.Fatal(err)
		}
		q := evstore.Query{Window: evstore.TimeRange{To: testDay.Add(11 * time.Hour)}}
		ss := checkSnapshotQuery(t, ix, q)
		want := evstore.PlanStats{Shards: 1, Partitions: 1, Scanned: 1}
		if ss.Plan != want || ss.Replayed != 1 {
			t.Errorf("plan %+v with %d replays, want %+v replayed", ss.Plan, ss.Replayed, want)
		}
		counts := analysis.NewCounts()
		if _, err := ix.Query(context.Background(), q, 1, evstore.NamedAnalyzer{Key: "counts", Proto: counts}); err != nil {
			t.Fatal(err)
		}
		if counts.Counts.Of(classify.NN) != 1 || counts.Counts.Announcements() != 1 {
			t.Errorf("tallied %+v, want exactly one nn", counts.Counts)
		}
	})

	// Two collectors whose names sanitize to one file-name prefix share a
	// shard, and a sidecar's codes were recorded with both in the chain;
	// a query for one of them replays only its own partitions.
	t.Run("name-collision", func(t *testing.T) {
		two := cfg
		two.Collectors = 2
		rename := map[string]string{"rrc00": "rrc/0", "rrc01": "rrc_0"}
		dir := t.TempDir()
		w, err := evstore.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		w.BlockEvents = 64
		w.Seal = evstore.SealPolicy{MaxEvents: 40}
		_, sources := workload.DaySources(two)
		merged := stream.Merge(sources...)
		err = w.Ingest(func(yield func(classify.Event) bool) {
			for e := range merged {
				e.Collector = rename[e.Collector]
				if !yield(e) {
					return
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		ix, _, err := evstore.OpenSnapshotIndex(context.Background(), dir, snapNamed())
		if err != nil {
			t.Fatal(err)
		}
		shards, err := evstore.ScanShards(dir, evstore.Query{})
		if err != nil {
			t.Fatal(err)
		}
		if len(shards) != 1 {
			t.Fatalf("%d shards, want the two collectors in one", len(shards))
		}
		paths := shards[0].Partitions()
		mid, err := evstore.ReadSnapshot(paths[len(paths)/2])
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"rrc/0", "rrc_0"} {
			q := evstore.Query{Collectors: []string{name}, Window: evstore.TimeRange{
				From: cutInstant(t, mid), To: testDay.Add(20 * time.Hour)}}
			ss := checkSnapshotQuery(t, ix, q)
			if ss.Plan.Skipped == 0 || ss.Plan.Merged == 0 || ss.Scan.Events == 0 {
				t.Errorf("%s: plan %+v tallying %d scanned events; want the other collector's partitions skipped", name, ss.Plan, ss.Scan.Events)
			}
		}
		checkSnapshotQuery(t, ix, evstore.Query{Window: evstore.TimeRange{From: cutInstant(t, mid)}})
	})
}

// TestSnapshotIncrementalRefresh pins the incremental half: after live
// ingest seals new partitions, Refresh builds sidecars for exactly
// those, reuses the rest, and queries stay bit-identical to a cold
// rescan of the grown store.
func TestSnapshotIncrementalRefresh(t *testing.T) {
	cfg := smallDayConfig()
	cfg.Collectors = 2
	_, sources := workload.DaySources(cfg)
	dir := ingest(t, stream.Concat(sources...))

	ix, bs0, err := evstore.OpenSnapshotIndex(context.Background(), dir, snapNamed())
	if err != nil {
		t.Fatal(err)
	}
	before, _ := ix.Coverage()
	if bs0.Built != before {
		t.Fatalf("initial build wrote %d sidecars for %d partitions", bs0.Built, before)
	}

	// Live append: a second day arrives while the index is open.
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

	bs, err := ix.Refresh(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	after, snapped := ix.Coverage()
	if after <= before {
		t.Fatalf("no new partitions after second ingest (%d -> %d)", before, after)
	}
	if snapped != after {
		t.Fatalf("coverage %d/%d after refresh", snapped, after)
	}
	if bs.Built != after-before || bs.Reused != before {
		t.Errorf("refresh built %d reused %d, want %d built %d reused",
			bs.Built, bs.Reused, after-before, before)
	}
	// The delta: the index already holds every reused sidecar, and only
	// the one before each new partition has its classifier decoded.
	if bs.SidecarsRead != 0 || bs.Restores > bs.Built {
		t.Errorf("refresh read %d sidecars and restored %d classifier states for %d built",
			bs.SidecarsRead, bs.Restores, bs.Built)
	}

	// Grown store still answers identically to a cold rescan.
	checkSnapshotQuery(t, ix, evstore.Query{Window: evstore.TimeRange{From: day2.Day, To: day2.Day.Add(24 * time.Hour)}})

	// Exactly one more partition seals: one build, nothing read back,
	// at most one restore.
	day3 := cfg
	day3.Day = cfg.Day.Add(48 * time.Hour)
	peers3, sources3 := workload.DaySources(day3)
	one := peers3[0].Collector
	w, err = evstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	err = w.Ingest(stream.Filter(stream.Concat(sources3...), func(e classify.Event) bool {
		return e.Collector == one && !e.Time.Before(day3.Day)
	}))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	bs, err = ix.Refresh(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if parts, snapped := ix.Coverage(); parts != after+1 || snapped != parts {
		t.Fatalf("coverage %d/%d after one more partition, want %d/%d", snapped, parts, after+1, after+1)
	}
	if bs.Built != 1 || bs.Reused != after || bs.SidecarsRead != 0 || bs.Restores > 1 {
		t.Errorf("refresh after one new partition: built %d reused %d read %d restored %d; want 1, %d, 0, <= 1",
			bs.Built, bs.Reused, bs.SidecarsRead, bs.Restores, after)
	}
	checkSnapshotQuery(t, ix, evstore.Query{Window: evstore.TimeRange{From: day3.Day, To: day3.Day.Add(24 * time.Hour)}})
}

// TestSnapshotBackfillInvalidatesChain pins the chain fingerprint: a
// partition ingested EARLIER in a shard's timeline (a backfilled day)
// changes what every later partition's classifier should have seen, so
// all downstream sidecars must rebuild — reusing them would serve
// states classified against the old chain and break the
// bit-identical-to-cold-scan contract.
func TestSnapshotBackfillInvalidatesChain(t *testing.T) {
	cfg := smallDayConfig()
	cfg.Collectors = 1
	day2 := cfg
	day2.Day = cfg.Day.Add(24 * time.Hour)

	// Ingest only the LATER day first and snapshot it.
	_, sources2 := workload.DaySources(day2)
	dir := ingest(t, stream.Concat(sources2...))
	ix, _, err := evstore.OpenSnapshotIndex(context.Background(), dir, snapNamed())
	if err != nil {
		t.Fatal(err)
	}
	laterParts, _ := ix.Coverage()

	// Backfill the EARLIER day: its partitions sort before the existing
	// ones, so the existing sidecars' classifier chains are now wrong.
	_, sources1 := workload.DaySources(cfg)
	w, err := evstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Ingest(stream.Concat(sources1...)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	bs, err := ix.Refresh(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	total, snapped := ix.Coverage()
	if snapped != total {
		t.Fatalf("coverage %d/%d after backfill refresh", snapped, total)
	}
	// Every pre-existing sidecar sits downstream of the backfill and
	// must have been rebuilt, not reused.
	if bs.Built != total || bs.Reused != 0 {
		t.Errorf("backfill refresh built %d reused %d over %d partitions; stale chains were reused (later-day partitions before backfill: %d)",
			bs.Built, bs.Reused, total, laterParts)
	}

	// And the answers really match a cold rescan of the merged timeline.
	ref := snapNamed()
	refAnalyzers := make([]classify.Analyzer, len(ref))
	for i, na := range ref {
		refAnalyzers[i] = na.Proto
	}
	if _, err := evstore.ScanParallel(context.Background(), dir, evstore.Query{}, evstore.TimeRange{}, 2, refAnalyzers...); err != nil {
		t.Fatal(err)
	}
	got := snapNamed()
	if _, err := ix.Query(context.Background(), evstore.Query{}, 2, got...); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if g, w := got[i].Proto.Finish(), ref[i].Proto.Finish(); !reflect.DeepEqual(g, w) {
			t.Errorf("analyzer %q diverged after backfill", got[i].Key)
		}
	}
}

// snapshottedShard builds a one-collector live-shaped store with every
// sidecar in place and returns it with its partition paths and their
// first four sidecars as read back.
func snapshottedShard(t *testing.T) (dir string, paths []string, snaps []*evstore.PartitionSnapshot) {
	t.Helper()
	cfg := smallDayConfig()
	cfg.Collectors = 1
	dir = liveShapedStore(t, cfg, 40)
	if _, err := evstore.BuildSnapshots(context.Background(), dir, snapNamed()); err != nil {
		t.Fatal(err)
	}
	shards, err := evstore.ScanShards(dir, evstore.Query{})
	if err != nil {
		t.Fatal(err)
	}
	paths = shards[0].Partitions()
	if len(paths) < 4 {
		t.Fatalf("%d partitions, want >= 4", len(paths))
	}
	snaps = make([]*evstore.PartitionSnapshot, 4)
	for i := range snaps {
		if snaps[i], err = evstore.ReadSnapshot(paths[i]); err != nil {
			t.Fatal(err)
		}
	}
	return dir, paths, snaps
}

// wantErrNaming fails unless err names the file named (by base name)
// and not the file notNamed.
func wantErrNaming(t *testing.T, err error, named, notNamed string) {
	t.Helper()
	if err == nil {
		t.Fatal("corrupt sidecar content was consumed without an error")
	}
	if msg := err.Error(); !strings.Contains(msg, filepath.Base(named)) ||
		(notNamed != "" && strings.Contains(msg, filepath.Base(notNamed))) {
		t.Errorf("error %q: want it to name %s, not %s", msg, filepath.Base(named), filepath.Base(notNamed))
	}
}

// TestSnapshotCorruptClassifierProvenance pins what the lazy chain does
// with a classifier blob that does not decode: only a pass that must
// classify a sidecar-less partition right after it consumes it, and that
// pass (a query, or a sidecar build) fails naming the sidecar the blob
// came from, not the partition about to be decoded; one followed by
// jumps, merges and replays is never decoded, so it neither fails nor
// changes the answer.
func TestSnapshotCorruptClassifierProvenance(t *testing.T) {
	dir, paths, snaps := snapshottedShard(t)
	// rewrite replaces partition i's sidecar, classifier blob truncated
	// mid-record when corrupt.
	rewrite := func(i int, corrupt bool) {
		t.Helper()
		snap := *snaps[i]
		if corrupt {
			snap.Classifier = snap.Classifier[:len(snap.Classifier)/2]
		}
		if err := evstore.WriteSnapshot(paths[i], &snap); err != nil {
			t.Fatal(err)
		}
	}
	// The window cuts partition 2: partitions 0 and 1 are jumps, and
	// partition 2 is replayed from its own sidecar — no end state is read.
	cut := evstore.Query{Window: evstore.TimeRange{From: cutInstant(t, snaps[2])}}

	rewrite(0, true)
	rewrite(1, true)
	ix, _, err := evstore.OpenSnapshotIndex(context.Background(), dir, snapNamed())
	if err != nil {
		t.Fatalf("open over corrupt blobs no build consumes: %v", err)
	}
	if ss := checkSnapshotQuery(t, ix, cut); ss.Plan.Jumped != 2 || ss.Plan.Scanned != 1 || ss.Restores != 0 {
		t.Errorf("plan %+v with %d restores; want 2 jumps, 1 replayed scan, no restore", ss.Plan, ss.Restores)
	}
	checkSnapshotQuery(t, ix, evstore.Query{})

	// Partition 2 loses its sidecar: classifying it needs partition 1's
	// end state — and only partition 1's.
	if err := os.Remove(evstore.SnapshotPath(paths[2])); err != nil {
		t.Fatal(err)
	}
	evstore.DropSnapshot(ix, paths[2])
	_, err = ix.Query(context.Background(), cut, 2, snapNamed()...)
	wantErrNaming(t, err, evstore.SnapshotPath(paths[1]), paths[2])

	// A build pass that must decode partition 2 consumes the same blob.
	_, err = evstore.BuildSnapshots(context.Background(), dir, snapNamed())
	wantErrNaming(t, err, evstore.SnapshotPath(paths[1]), paths[2])

	// (A new index: the one above holds the corrupt blob in memory and
	// would not read the repaired file.)
	rewrite(1, false)
	if ix, _, err = evstore.OpenSnapshotIndex(context.Background(), dir, snapNamed()); err != nil {
		t.Fatalf("open over a corrupt blob (partition 0's) no build consumes: %v", err)
	}
	if ss := checkSnapshotQuery(t, ix, cut); ss.Restores != 0 {
		t.Errorf("%d restores once partition 2 has a sidecar again", ss.Restores)
	}
}

// TestSnapshotCorruptResults pins that a damaged Results column never
// yields an answer: a column of the wrong length or holding an unknown
// code is not a sidecar at all (ReadSnapshot names it, the next build
// pass replaces it), and one that parses but does not belong to its
// partition's events fails the replay that reads it, naming the sidecar.
func TestSnapshotCorruptResults(t *testing.T) {
	dir, paths, snaps := snapshottedShard(t)
	cut := evstore.Query{Window: evstore.TimeRange{From: cutInstant(t, snaps[2])}}
	sidecar := evstore.SnapshotPath(paths[2])
	last := len(snaps[2].Results) - 1
	doctored := func(edit func(snap *evstore.PartitionSnapshot)) {
		t.Helper()
		snap := *snaps[2]
		snap.Results = append([]byte{}, snap.Results...)
		edit(&snap)
		if err := evstore.WriteSnapshot(paths[2], &snap); err != nil {
			t.Fatal(err)
		}
	}

	for name, edit := range map[string]func(*evstore.PartitionSnapshot){
		"bad code":     func(snap *evstore.PartitionSnapshot) { snap.Results[last] = 0x47 },
		"short column": func(snap *evstore.PartitionSnapshot) { snap.Results = snap.Results[:last] },
	} {
		doctored(edit)
		_, err := evstore.ReadSnapshot(paths[2])
		wantErrNaming(t, err, sidecar, "")
		ix, bs, err := evstore.OpenSnapshotIndex(context.Background(), dir, snapNamed())
		if err != nil {
			t.Fatal(err)
		}
		if bs.Built != 1 {
			t.Errorf("%s: open rebuilt %d sidecars, want exactly the rejected one", name, bs.Built)
		}
		checkSnapshotQuery(t, ix, cut)
	}

	// Columns that parse. The last event is in the window, so the replay
	// reads its code.
	flipped := byte(0x80)
	if snaps[2].Results[last] == flipped {
		flipped = classify.EncodeResult(classify.Result{Type: classify.NN}, false)
	}
	for name, edit := range map[string]func(*evstore.PartitionSnapshot){
		"flipped withdrawal bit": func(snap *evstore.PartitionSnapshot) { snap.Results[last] = flipped },
		"one event short":        func(snap *evstore.PartitionSnapshot) { snap.Results, snap.Events = snap.Results[:last], last },
	} {
		doctored(edit)
		ix, bs, err := evstore.OpenSnapshotIndex(context.Background(), dir, snapNamed())
		if err != nil {
			t.Fatal(err)
		}
		if bs.Built != 0 {
			t.Fatalf("%s: the doctored sidecar was rebuilt, not trusted", name)
		}
		_, err = ix.Query(context.Background(), cut, 2, snapNamed()...)
		wantErrNaming(t, err, sidecar, "")
		checkSnapshotQuery(t, ix, evstore.Query{}) // all-merge: the column is never read

		// Deleting the sidecar is the repair: the next pass rebuilds it.
		if err := os.Remove(sidecar); err != nil {
			t.Fatal(err)
		}
		if ix, bs, err = evstore.OpenSnapshotIndex(context.Background(), dir, snapNamed()); err != nil || bs.Built != 1 {
			t.Fatalf("%s: reopen built %d sidecars (err %v), want 1", name, bs.Built, err)
		}
		checkSnapshotQuery(t, ix, cut)
	}
}

// TestDoctoredFooterCount pins that no path trusts a footer's event
// counts over the blocks themselves: with two blocks' counts shifted so
// the partition total still adds up, a cold scan fails naming the
// partition, and a replay — whose column offsets are sums of those
// counts — fails naming the sidecar instead of answering from codes that
// belong to other events.
func TestDoctoredFooterCount(t *testing.T) {
	dir, paths, _ := snapshottedShard(t)
	ix, _, err := evstore.OpenSnapshotIndex(context.Background(), dir, snapNamed())
	if err != nil {
		t.Fatal(err)
	}
	var part string
	for _, path := range paths {
		if info, err := evstore.StatPartition(path); err != nil {
			t.Fatal(err)
		} else if len(info.Blocks) >= 2 {
			part = path
			break
		}
	}
	if part == "" {
		t.Fatal("no partition has two blocks")
	}
	snap, err := evstore.ReadSnapshot(part)
	if err != nil {
		t.Fatal(err)
	}
	err = evstore.SetFooterCounts(part, func(counts []int) {
		counts[0]++
		counts[1]--
	})
	if err != nil {
		t.Fatal(err)
	}
	q := evstore.Query{Window: evstore.TimeRange{From: time.Unix(0, snap.TMin), To: time.Unix(0, snap.TMax)}}
	ss, err := ix.Query(context.Background(), q, 1, snapNamed()...)
	wantErrNaming(t, err, evstore.SnapshotPath(part), "")
	if ss.Plan.Scanned != 1 {
		t.Errorf("plan %+v, want the doctored partition as the one scan", ss.Plan)
	}
	_, err = evstore.ScanAnalyze(context.Background(), dir, evstore.Query{}, evstore.TimeRange{}, analysis.NewCounts())
	wantErrNaming(t, err, part, evstore.SnapshotPath(part))
	var scanErr error
	for range evstore.Scan(dir, evstore.Query{}, &scanErr) {
	}
	wantErrNaming(t, scanErr, part, evstore.SnapshotPath(part))
}

// TestSnapshotConcurrentRefresh runs concurrent Refresh and Query calls
// while live ingest seals partitions (run it under -race): refreshes
// serialize, every answer over the already-sealed day equals the cold
// scan, and once ingest stops the index ends at full coverage answering
// like a cold scan of the grown store.
func TestSnapshotConcurrentRefresh(t *testing.T) {
	cfg := smallDayConfig()
	dir := liveShapedStore(t, cfg, 40)
	ix, _, err := evstore.OpenSnapshotIndex(context.Background(), dir, snapNamed())
	if err != nil {
		t.Fatal(err)
	}
	// Partitions sealing after the window cannot change its answer, so
	// one cold reference holds throughout.
	frozen := evstore.Query{Window: evstore.TimeRange{
		From: testDay.Add(3 * time.Hour), To: testDay.Add(30 * time.Hour)}}
	ref := snapNamed()
	refAnalyzers := make([]classify.Analyzer, len(ref))
	for i, na := range ref {
		refAnalyzers[i] = na.Proto
	}
	if _, err := evstore.ScanParallel(context.Background(), dir, evstore.Query{}, frozen.Window, 2, refAnalyzers...); err != nil {
		t.Fatal(err)
	}
	want := make([]any, len(ref))
	for i, na := range ref {
		want[i] = na.Proto.Finish()
	}

	sealed := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for {
				if _, err := ix.Refresh(context.Background()); err != nil {
					t.Errorf("refresh: %v", err)
					return
				}
				select {
				case <-sealed:
					return
				default:
				}
			}
		}()
		go func() {
			defer wg.Done()
			for {
				got := snapNamed()
				ss, err := ix.Query(context.Background(), frozen, 2, got...)
				if err != nil {
					t.Errorf("query: %v", err)
					return
				}
				for i := range got {
					if g := got[i].Proto.Finish(); !reflect.DeepEqual(g, want[i]) {
						t.Errorf("analyzer %q diverged from the cold scan mid-ingest", got[i].Key)
						return
					}
				}
				if ss.Restores > ss.Plan.Scanned-ss.Replayed {
					t.Errorf("%d restores for %d scanned partitions, %d of them replayed", ss.Restores, ss.Plan.Scanned, ss.Replayed)
				}
				select {
				case <-sealed:
					return
				default:
				}
			}
		}()
	}

	// Live append: two more days seal 40 events at a time.
	appendLiveDays(t, dir, cfg, 2, 2, 40)
	close(sealed)
	wg.Wait()

	before, _ := ix.Coverage()
	if _, err := ix.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	parts, snapped := ix.Coverage()
	if parts < before || snapped != parts {
		t.Fatalf("coverage %d/%d after the last refresh (%d partitions before it)", snapped, parts, before)
	}
	m, err := evstore.LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if parts != len(m.Partitions) {
		t.Fatalf("index holds %d partitions, store has %d", parts, len(m.Partitions))
	}
	if ss := checkSnapshotQuery(t, ix, evstore.Query{}); ss.Plan.Scanned != 0 {
		t.Errorf("grown store still scans %d partitions (plan %+v)", ss.Plan.Scanned, ss.Plan)
	}
	checkSnapshotQuery(t, ix, frozen)
}

// TestManifestDiffAndWatch covers the change-detection API the daemon
// hangs off: Diff reports newly sealed partitions, and Watch invokes
// its callback when they appear.
func TestManifestDiffAndWatch(t *testing.T) {
	dir := t.TempDir()
	m0, err := evstore.LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(m0.Partitions) != 0 {
		t.Fatalf("empty store manifest has %d partitions", len(m0.Partitions))
	}

	changes := make(chan []evstore.PartitionRef, 8)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	watchDone := make(chan error, 1)
	go func() {
		watchDone <- evstore.Watch(ctx, m0, 10*time.Millisecond, func(m evstore.Manifest, added []evstore.PartitionRef) {
			changes <- added
		})
	}()

	cfg := smallDayConfig()
	cfg.Collectors = 1
	_, sources := workload.DaySources(cfg)
	storeDir := dir // watcher watches this dir
	w, err := evstore.Open(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Ingest(stream.Concat(sources...)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	m1, err := evstore.LoadManifest(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	added, changed := m1.Diff(m0)
	if !changed || len(added) != len(m1.Partitions) {
		t.Fatalf("Diff reported %d added (changed=%v), want %d", len(added), changed, len(m1.Partitions))
	}
	if added2, changed2 := m1.Diff(m1); changed2 || len(added2) != 0 {
		t.Fatal("self-Diff reported changes")
	}

	select {
	case got := <-changes:
		if len(got) == 0 {
			t.Fatal("watcher fired with no added partitions")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("watcher never observed the sealed partitions")
	}
	cancel()
	if err := <-watchDone; err != context.Canceled {
		t.Fatalf("watcher exited with %v, want context.Canceled", err)
	}
}

// finishedAnswers returns each analyzer's Finish, in order.
func finishedAnswers(named []evstore.NamedAnalyzer) []any {
	out := make([]any, len(named))
	for i, na := range named {
		out[i] = na.Proto.Finish()
	}
	return out
}

// coldAnswers is the reference for a query over dir: a cold ScanParallel
// of the full collector timelines tallying q's window.
func coldAnswers(t *testing.T, dir string, q evstore.Query) []any {
	t.Helper()
	ref := snapNamed()
	protos := make([]classify.Analyzer, len(ref))
	for i, na := range ref {
		protos[i] = na.Proto
	}
	cold := q
	cold.Window = evstore.TimeRange{}
	if _, err := evstore.ScanParallel(context.Background(), dir, cold, q.Window, 2, protos...); err != nil {
		t.Fatal(err)
	}
	return finishedAnswers(ref)
}

// TestSnapshotQueryPlansFromView pins what a warm query plans from: the
// index's view as of its last Refresh — one listing, held — while every
// per-partition check still runs per query. A partition sealed since
// that Refresh and a stray *.evp file are not planned (same partition
// count, no error, the answer of a cold scan over the view's own
// partitions) until the next Refresh lists them; a partition removed
// since fails the query by name rather than shrink its total; one
// rewritten to another size has its sidecar — and every later one of
// its shard — untrusted by the per-query trust walk, and the answer is
// still the cold scan's.
func TestSnapshotQueryPlansFromView(t *testing.T) {
	ctx := context.Background()
	cfg := smallDayConfig()
	dir := liveShapedStore(t, cfg, 60)
	ix, _, err := evstore.OpenSnapshotIndex(ctx, dir, snapNamed())
	if err != nil {
		t.Fatal(err)
	}
	queries := []evstore.Query{
		{},
		{Window: evstore.TimeRange{From: testDay.Add(3 * time.Hour), To: testDay.Add(30 * time.Hour)}},
	}
	query := func(q evstore.Query) ([]any, evstore.ServeStats, error) {
		got := snapNamed()
		ss, err := ix.Query(ctx, q, 2, got...)
		return finishedAnswers(got), ss, err
	}

	// The view's partitions, hard-linked into a directory of their own.
	viewDir := t.TempDir()
	view := ix.Manifest().Partitions
	for _, p := range view {
		if err := os.Link(p.Path, filepath.Join(viewDir, filepath.Base(p.Path))); err != nil {
			t.Fatal(err)
		}
	}
	gen := ix.Generation()
	before := make([]evstore.ServeStats, len(queries))
	for i, q := range queries {
		if _, before[i], err = query(q); err != nil {
			t.Fatal(err)
		}
	}

	// Seal a third day and drop a foreign, undecodable partition name.
	appendLiveDays(t, dir, cfg, 2, 1, 60)
	junk := filepath.Join(dir, "zz"+evstore.Extension)
	if err := os.WriteFile(junk, []byte("not a partition"), 0o644); err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		got, ss, err := query(q)
		if err != nil {
			t.Fatalf("query %d after a seal and a stray file, before Refresh: %v", i, err)
		}
		if ss.Plan.Partitions != before[i].Plan.Partitions || ss.Generation != gen {
			t.Errorf("query %d planned %d partitions at generation %d; the view holds %d at %d",
				i, ss.Plan.Partitions, ss.Generation, before[i].Plan.Partitions, gen)
		}
		if want := coldAnswers(t, viewDir, q); !reflect.DeepEqual(got, want) {
			t.Errorf("query %d is not the view's cold answer:\n got %+v\nwant %+v", i, got, want)
		}
	}
	// The stray file goes (a Refresh would fail building its sidecar, a
	// cold scan decoding it); the sealed day stays, and must matter.
	if err := os.Remove(junk); err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(coldAnswers(t, viewDir, queries[0]), coldAnswers(t, dir, queries[0])) {
		t.Fatal("the sealed day does not change the unbounded answer; the test cannot tell views apart")
	}

	// The next Refresh lists the day: answers are the cold scan of the
	// directory.
	if _, err := ix.Refresh(ctx); err != nil {
		t.Fatal(err)
	}
	if ix.Generation() == gen {
		t.Fatal("Refresh after a seal kept the generation")
	}
	for _, q := range queries {
		checkSnapshotQuery(t, ix, q)
	}

	// A partition removed since the Refresh fails the query by name.
	view = ix.Manifest().Partitions
	gone := view[1].Path
	if err := os.Remove(gone); err != nil {
		t.Fatal(err)
	}
	if _, _, err := query(queries[0]); err == nil || !strings.Contains(err.Error(), gone) {
		t.Errorf("query over a removed partition: %v; want an error naming %s", err, gone)
	}
	if err := os.Link(filepath.Join(viewDir, filepath.Base(gone)), gone); err != nil {
		t.Fatal(err)
	}

	// A partition rewritten to another size since the Refresh: the same
	// events in smaller blocks.
	rewritten := view[2].Path
	var serr error
	var events []classify.Event
	for e := range evstore.PartitionSource(rewritten, evstore.Query{}, &serr) {
		events = append(events, e)
	}
	if serr != nil || len(events) == 0 {
		t.Fatalf("%d events read back (%v)", len(events), serr)
	}
	tmp := t.TempDir()
	w, err := evstore.Open(tmp)
	if err != nil {
		t.Fatal(err)
	}
	w.BlockEvents = 4
	if err := w.Ingest(stream.FromSlice(events)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	out, err := filepath.Glob(filepath.Join(tmp, "*"+evstore.Extension))
	if err != nil || len(out) != 1 {
		t.Fatalf("rewrite produced %v (%v), want one partition", out, err)
	}
	if err := os.Rename(out[0], rewritten); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(rewritten); err != nil || fi.Size() == view[2].Size {
		t.Fatalf("rewritten partition: %v, size unchanged at %d", err, view[2].Size)
	}
	for i, q := range queries {
		got, ss, err := query(q)
		if err != nil {
			t.Fatal(err)
		}
		if ss.Plan.Scanned == 0 || ss.Replayed == ss.Plan.Scanned {
			t.Errorf("query %d trusted the rewritten partition's sidecar: plan %+v, %d replayed", i, ss.Plan, ss.Replayed)
		}
		if want := coldAnswers(t, dir, q); !reflect.DeepEqual(got, want) {
			t.Errorf("query %d over a rewritten partition diverged from the cold scan:\n got %+v\nwant %+v", i, got, want)
		}
	}
}
