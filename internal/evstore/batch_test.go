package evstore_test

import (
	"context"
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/classify"
	"repro/internal/evstore"
	"repro/internal/stream"
	"repro/internal/workload"
)

// checkEngines pins every engine to the row-path reference for one
// (query, tally) pair: ScanAnalyze, ScanParallel and — where the query
// has no scan window, which the index cannot express — SnapshotIndex.Query
// must each produce results bit-identical to classify.RunAll over Scan's
// event stream, for every analyzer named returns.
func checkEngines(t *testing.T, ix *evstore.SnapshotIndex, label string, q evstore.Query, tally evstore.TimeRange, named func() []evstore.NamedAnalyzer) {
	t.Helper()
	protos := func() []classify.Analyzer {
		var as []classify.Analyzer
		for _, na := range named() {
			as = append(as, na.Proto)
		}
		return as
	}
	ref := protos()
	var refErr error
	inWindow := func(e classify.Event) bool { return tally.Contains(e.Time) }
	analysis.RunAll(evstore.Scan(ix.Dir(), q, &refErr), inWindow, ref...)
	if refErr != nil {
		t.Fatal(refErr)
	}
	check := func(engine string, got []classify.Analyzer) {
		t.Helper()
		for i, a := range got {
			if g, w := a.Finish(), ref[i].Finish(); !reflect.DeepEqual(g, w) {
				t.Errorf("%s (q=%+v tally=%+v): %s %T diverged:\n got %+v\nwant %+v", label, q, tally, engine, a, g, w)
			}
		}
	}

	seq := protos()
	if _, err := evstore.ScanAnalyze(context.Background(), ix.Dir(), q, tally, seq...); err != nil {
		t.Fatal(err)
	}
	check("ScanAnalyze", seq)

	par := protos()
	if _, err := evstore.ScanParallel(context.Background(), ix.Dir(), q, tally, 3, par...); err != nil {
		t.Fatal(err)
	}
	check("ScanParallel", par)

	if q.Window == (evstore.TimeRange{}) {
		warm := named()
		iq := q
		iq.Window = tally
		if _, err := ix.Query(context.Background(), iq, 3, warm...); err != nil {
			t.Fatal(err)
		}
		var got []classify.Analyzer
		for _, na := range warm {
			got = append(got, na.Proto)
		}
		check("SnapshotIndex.Query", got)
	}
}

// TestBatchPathMatchesRowPath is the batch==row property pin: for
// random queries (residual windows, collector/peer/prefix filters) and
// random tally windows, every engine over the one executor — ScanAnalyze,
// ScanParallel, SnapshotIndex.Query — must produce results bit-identical
// to the row-path reference for every analyzer, batch-capable and
// row-fallback alike; and on a store whose ingest order disagrees with
// its timestamps the tally window's end must not cut classifier history.
func TestBatchPathMatchesRowPath(t *testing.T) {
	cfg := smallDayConfig()
	cfg.Collectors = 3
	_, sources := workload.DaySources(cfg)
	dir := ingest(t, stream.Concat(sources...))

	// A real route off the store for the filtered analyzers.
	var sample classify.Event
	var scanErr error
	for e := range evstore.Scan(dir, evstore.Query{}, &scanErr) {
		if !e.Withdraw && len(e.ASPath) > 0 {
			sample = e
			break
		}
	}
	if scanErr != nil {
		t.Fatal(scanErr)
	}
	if sample.Collector == "" {
		t.Fatal("no announcement found in the generated day")
	}

	// Batch-capable analyzers (Table1, Counts, SessionMix, Cumulative)
	// mixed with row-fallback ones (PeerBehavior, Ingress) in one run,
	// so both observation paths execute against the same batches.
	named := func() []evstore.NamedAnalyzer {
		return []evstore.NamedAnalyzer{
			{Key: "table1", Proto: analysis.NewTable1()},
			{Key: "counts", Proto: analysis.NewCounts()},
			{Key: "sessionmix", Proto: analysis.NewSessionMix(sample.Collector, sample.Prefix)},
			{Key: "cumulative", Proto: analysis.NewCumulative(sample.Session(), sample.Prefix, sample.ASPath.String())},
			{Key: "peers", Proto: analysis.NewPeerBehavior()},
			{Key: "ingress", Proto: analysis.NewIngress()},
		}
	}
	ix, _, err := evstore.OpenSnapshotIndex(context.Background(), dir, named())
	if err != nil {
		t.Fatal(err)
	}

	rnd := rand.New(rand.NewSource(11))
	hour := func() time.Time { return testDay.Add(time.Duration(rnd.Intn(25)) * time.Hour) }
	for trial := 0; trial < 10; trial++ {
		var q evstore.Query
		var tally evstore.TimeRange
		if trial > 0 { // trial 0: the unfiltered full-store pass
			if rnd.Intn(2) == 0 {
				q.Window = evstore.TimeRange{From: hour(), To: hour()}
			}
			if rnd.Intn(3) == 0 {
				q.Collectors = []string{"rrc00"}
			}
			if rnd.Intn(3) == 0 {
				q.PeerAS = []uint32{sample.PeerAS}
			}
			if rnd.Intn(3) == 0 {
				q.PrefixRange = netip.PrefixFrom(sample.Prefix.Addr(), 8)
			}
			if rnd.Intn(2) == 0 {
				tally = evstore.TimeRange{From: hour(), To: hour()}
			}
		}
		checkEngines(t, ix, fmt.Sprintf("trial %d", trial), q, tally, named)
	}

	// The out-of-order store: one stream's later-stamped announcement
	// is ingested BEFORE an earlier-stamped duplicate. Tallying up to
	// 11:00 counts only the 10:00 event, but it must still be classified
	// against the 12:00 one that precedes it (nn) — a scan that stopped
	// at tally.To by timestamp would call it the stream's first (pn).
	late := sample
	late.Time = testDay.Add(12 * time.Hour)
	early := sample
	early.Time = testDay.Add(10 * time.Hour)
	ooo, _, err := evstore.OpenSnapshotIndex(context.Background(),
		ingest(t, stream.FromSlice([]classify.Event{late, early})), named())
	if err != nil {
		t.Fatal(err)
	}
	upTo11 := evstore.TimeRange{To: testDay.Add(11 * time.Hour)}
	checkEngines(t, ooo, "out-of-order", evstore.Query{}, upTo11, named)
	counts := analysis.NewCounts()
	if _, err := evstore.ScanAnalyze(context.Background(), ooo.Dir(), evstore.Query{}, upTo11, counts); err != nil {
		t.Fatal(err)
	}
	if got := counts.Counts.Of(classify.NN); got != 1 || counts.Counts.Announcements() != 1 {
		t.Errorf("out-of-order store: tallied %+v, want exactly one nn", counts.Counts)
	}
}

// filterNamed is a mixed analyzer set for the filtered-scan pins:
// batch-capable (Table1, Counts) beside row-fallback (PeerBehavior,
// Ingress), so both observation paths read the selection-first batches.
func filterNamed() []evstore.NamedAnalyzer {
	return []evstore.NamedAnalyzer{
		{Key: "table1", Proto: analysis.NewTable1()},
		{Key: "counts", Proto: analysis.NewCounts()},
		{Key: "peers", Proto: analysis.NewPeerBehavior()},
		{Key: "ingress", Proto: analysis.NewIngress()},
	}
}

// filterStoreConfig is three collectors of five peers over 200 IPv4
// prefixes: one peer AS is a 1-of-15 filter, one /22 about 2% of the
// events.
func filterStoreConfig() workload.DayConfig {
	cfg := smallDayConfig()
	cfg.Collectors = 3
	cfg.PeersPerCollector = 5
	cfg.PrefixesV4 = 200
	return cfg
}

// shardStats lists the store's partitions per collector shard, in shard
// order, and fails unless every shard has at least min of them.
func shardStats(t *testing.T, dir string, min int) [][]evstore.PartitionInfo {
	t.Helper()
	shards, err := evstore.ScanShards(dir, evstore.Query{})
	if err != nil {
		t.Fatal(err)
	}
	var out [][]evstore.PartitionInfo
	for _, sh := range shards {
		var infos []evstore.PartitionInfo
		for _, path := range sh.Partitions() {
			info, err := evstore.StatPartition(path)
			if err != nil {
				t.Fatal(err)
			}
			infos = append(infos, info)
		}
		if len(infos) < min {
			t.Fatalf("shard %s has %d partitions, want a live-shaped run of at least %d", sh.Collector, len(infos), min)
		}
		out = append(out, infos)
	}
	return out
}

// TestFilteredScanOnLiveShapedStore is the batch==row pin where the
// selection-first decode matters: a store sealed every few dozen events
// (ten and more partitions per collector), queried with a 1-of-15 peer
// AS and a ~2% prefix range, so most decoded rows are unselected and
// most path and community entries never interned. Every engine must
// still agree bit for bit with the sequential row pass, the parallel
// run's summed stats must equal the sequential run's, and the index must
// answer from no sidecar at all: the classifier's stream key has no peer
// AS in it, so a recorded classification is not a filtered one.
func TestFilteredScanOnLiveShapedStore(t *testing.T) {
	cfg := filterStoreConfig()
	dir := liveShapedStore(t, cfg, 96)
	ix, _, err := evstore.OpenSnapshotIndex(context.Background(), dir, filterNamed())
	if err != nil {
		t.Fatal(err)
	}
	peerAS := shardStats(t, dir, 10)[1][0].PeerAS
	if len(peerAS) == 0 {
		t.Fatal("no peer AS in the second shard's first partition")
	}
	filters := map[string]evstore.Query{
		"peeras":      {PeerAS: peerAS[:1]},
		"prefixrange": {PrefixRange: netip.MustParsePrefix("10.0.8.0/22")},
	}
	tallies := map[string]evstore.TimeRange{
		"all":     {},
		"morning": {From: testDay.Add(3 * time.Hour), To: testDay.Add(30 * time.Hour)},
		"day-two": {From: testDay.Add(26 * time.Hour), To: testDay.Add(41*time.Hour + 17*time.Minute)},
	}
	ctx := context.Background()
	for fname, q := range filters {
		for tname, tally := range tallies {
			label := fname + "/" + tname
			checkEngines(t, ix, label, q, tally, filterNamed)

			// The stats count the chunks a decode opens, so every run
			// compared here decodes the same projection: filterNamed's,
			// which holds row-fallback analyzers and so is every column,
			// what the row scan and the index query decode too.
			protos := func() []classify.Analyzer {
				var as []classify.Analyzer
				for _, na := range filterNamed() {
					as = append(as, na.Proto)
				}
				return as
			}
			seq, err := evstore.ScanAnalyze(ctx, dir, q, tally, protos()...)
			if err != nil {
				t.Fatal(err)
			}
			par, err := evstore.ScanParallel(ctx, dir, q, tally, 3, protos()...)
			if err != nil {
				t.Fatal(err)
			}
			if par.Total != seq {
				t.Errorf("%s: parallel stats %+v, sequential %+v", label, par.Total, seq)
			}
			if seq.Events == 0 || seq.BlocksDecoded == 0 {
				t.Errorf("%s: the filter selected nothing (%+v); the pin is vacuous", label, seq)
			}
			if tally == (evstore.TimeRange{}) {
				var row evstore.ScanStats
				var rowErr error
				for range evstore.ScanWithStats(dir, q, &rowErr, &row) {
				}
				if rowErr != nil || row != seq {
					t.Errorf("%s: row scan stats %+v (err %v), sequential %+v", label, row, rowErr, seq)
				}
			}

			iq := q
			iq.Window = tally
			ss, err := ix.Query(ctx, iq, 3, filterNamed()...)
			if err != nil {
				t.Fatal(err)
			}
			if ss.Plan.Merged != 0 || ss.Plan.Jumped != 0 || ss.Replayed != 0 || ss.Merges != 0 || ss.Restores != 0 {
				t.Errorf("%s: a filtered query used sidecars: %+v", label, ss)
			}
			if ss.Scan != seq {
				t.Errorf("%s: index scan stats %+v, sequential %+v", label, ss.Scan, seq)
			}
		}
	}
}

// provablyAfter counts, shard by shard, the longest run of tail
// partitions whose footer puts every event at or after to — what the
// cold planner may skip, and all it may.
func provablyAfter(shards [][]evstore.PartitionInfo, to time.Time) (perShard []int, total int) {
	for _, infos := range shards {
		n := 0
		for i := len(infos) - 1; i >= 0 && infos[i].Events > 0 && !infos[i].TimeMin.Before(to); i-- {
			n++
		}
		perShard = append(perShard, n)
		total += n
	}
	return perShard, total
}

// TestColdTailRuleReadsFooter pins the cold plan's stop-early rule. A
// window ending inside a day leaves the file-name day no bound to offer,
// but each tail partition's footer does: on a time-ordered shard exactly
// the partitions whose earliest event is at or after the window's end
// are skipped. On a shard whose last partition holds early events the
// walk stops there, nothing before it is skipped however late its
// events are, and the answer is the full pass's — those later-stamped
// partitions precede the early events in classifier order.
func TestColdTailRuleReadsFooter(t *testing.T) {
	cfg := filterStoreConfig()
	dir := liveShapedStore(t, cfg, 96)
	ctx := context.Background()
	// The window ends at 06:00 of the store's last day: every partition
	// file is named for a day that starts before it.
	to := testDay.Add(30 * time.Hour)
	upTo := evstore.TimeRange{To: to}
	plan := func(ix *evstore.SnapshotIndex) evstore.ServeStats {
		t.Helper()
		// Any per-event filter makes the index plan cold; this one keeps
		// every event.
		ss, err := ix.Query(ctx, evstore.Query{Window: upTo, PrefixRange: netip.MustParsePrefix("0.0.0.0/0")}, 2, filterNamed()...)
		if err != nil {
			t.Fatal(err)
		}
		if ss.Plan.Scanned != ss.Scan.Partitions || ss.Plan.Skipped+ss.Plan.Scanned != ss.Plan.Partitions {
			t.Fatalf("plan %+v does not add up with scan %+v", ss.Plan, ss.Scan)
		}
		return ss
	}

	ix, _, err := evstore.OpenSnapshotIndex(ctx, dir, filterNamed())
	if err != nil {
		t.Fatal(err)
	}
	shards := shardStats(t, dir, 10)
	perShard, want := provablyAfter(shards, to)
	for i, n := range perShard {
		if n < 3 {
			t.Fatalf("shard %d has %d partitions after %v; the pin needs a tail to skip", i, n, to)
		}
	}
	if got := plan(ix).Plan.Skipped; got != want {
		t.Errorf("time-ordered store: skipped %d partitions, the footers put %d after the window", got, want)
	}
	checkEngines(t, ix, "time-ordered", evstore.Query{}, upTo, filterNamed)

	// Append early-stamped events to the first collector's last day: they
	// seal into that day's next partition, the shard's new tail.
	var early []classify.Event
	var scanErr error
	collector := shards[0][0].Collector
	for e := range evstore.Scan(dir, evstore.Query{Collectors: []string{collector}}, &scanErr) {
		if !e.Withdraw && !e.Time.Before(to) {
			e.Time = testDay.Add(25*time.Hour + time.Duration(len(early))*time.Second)
			if early = append(early, e); len(early) == 8 {
				break
			}
		}
	}
	if scanErr != nil || len(early) != 8 {
		t.Fatalf("collected %d events to re-stamp (err %v)", len(early), scanErr)
	}
	w, err := evstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Ingest(stream.FromSlice(early)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	ooo, _, err := evstore.OpenSnapshotIndex(ctx, dir, filterNamed())
	if err != nil {
		t.Fatal(err)
	}
	after := shardStats(t, dir, 10)
	if last := after[0][len(after[0])-1]; len(after[0]) != len(shards[0])+1 || !last.TimeMax.Before(to) {
		t.Fatalf("the early events did not seal as shard %s's tail: %+v", collector, last)
	}
	if got, want := plan(ooo).Plan.Skipped, want-perShard[0]; got != want {
		t.Errorf("out-of-order store: skipped %d partitions, want %d (none of shard %s, whose tail is inside the window)", got, want, collector)
	}
	checkEngines(t, ooo, "out-of-order", evstore.Query{}, upTo, filterNamed)
	checkEngines(t, ooo, "out-of-order/peeras", evstore.Query{PeerAS: []uint32{early[0].PeerAS}}, upTo, filterNamed)
}
