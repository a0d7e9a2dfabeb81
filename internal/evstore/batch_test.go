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
