package evstore_test

import (
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/classify"
	"repro/internal/evstore"
	"repro/internal/stream"
	"repro/internal/workload"
)

// TestScanShardsConcatEqualsScan checks the sharding invariant:
// concatenating the shard sources in order reproduces the sequential
// scan event for event, and the per-shard stats sum to the sequential
// stats.
func TestScanShardsConcatEqualsScan(t *testing.T) {
	cfg := smallDayConfig()
	_, sources := workload.DaySources(cfg)
	dir := ingest(t, stream.Concat(sources...))

	for _, q := range []evstore.Query{
		{},
		{Window: evstore.TimeRange{From: testDay.Add(3 * time.Hour), To: testDay.Add(9 * time.Hour)}},
		{Collectors: []string{"rrc00"}},
	} {
		var seqErr error
		var seqStats evstore.ScanStats
		want := stream.Collect(evstore.ScanWithStats(dir, q, &seqErr, &seqStats))
		if seqErr != nil {
			t.Fatal(seqErr)
		}

		shards, err := evstore.ScanShards(dir, q)
		if err != nil {
			t.Fatal(err)
		}
		if len(shards) != cfg.Collectors {
			t.Fatalf("query %+v: %d shards, want %d", q, len(shards), cfg.Collectors)
		}
		var got []classify.Event
		var total evstore.ScanStats
		for _, sh := range shards {
			if len(sh.Partitions()) == 0 {
				t.Fatalf("shard %q has no partitions", sh.Collector)
			}
			var shErr error
			var st evstore.ScanStats
			got = append(got, stream.Collect(sh.Events(&shErr, &st))...)
			if shErr != nil {
				t.Fatal(shErr)
			}
			total.Add(st)
		}
		if len(got) != len(want) {
			t.Fatalf("query %+v: shards yielded %d events, scan %d", q, len(got), len(want))
		}
		for i := range got {
			if !eventsEqual(got[i], want[i]) {
				t.Fatalf("query %+v: event %d differs: %+v vs %+v", q, i, got[i], want[i])
			}
		}
		if total != seqStats {
			t.Errorf("query %+v: shard stats %+v != sequential %+v", q, total, seqStats)
		}
	}
}

// TestScanParallelMatchesSequential runs the full analyzer suite
// shard-parallel at several worker counts and requires bit-identical
// results to the sequential scan pass, plus stats totals equal to the
// sequential scan's.
func TestScanParallelMatchesSequential(t *testing.T) {
	cfg := smallDayConfig()
	cfg.Collectors = 3
	_, sources := workload.DaySources(cfg)
	dir := ingest(t, stream.Concat(sources...))
	win := evstore.TimeRange{From: cfg.Day, To: cfg.Day.Add(24 * time.Hour)}
	inWindow := func(e classify.Event) bool { return win.Contains(e.Time) }

	protos := func() []classify.Analyzer {
		return []classify.Analyzer{analysis.NewTable1(), analysis.NewCounts(), analysis.NewPeerBehavior(), analysis.NewIngress()}
	}
	var seqErr error
	var seqStats evstore.ScanStats
	seq := protos()
	analysis.RunAll(evstore.ScanWithStats(dir, evstore.Query{}, &seqErr, &seqStats), inWindow, seq...)
	if seqErr != nil {
		t.Fatal(seqErr)
	}
	want := make([]any, len(seq))
	for i, a := range seq {
		want[i] = a.Finish()
	}

	for _, workers := range []int{1, 2, 4, 0} {
		par := protos()
		ps, err := evstore.ScanParallel(context.Background(), dir, evstore.Query{}, win, workers, par...)
		if err != nil {
			t.Fatal(err)
		}
		for i, a := range par {
			if got := a.Finish(); !reflect.DeepEqual(got, want[i]) {
				t.Errorf("workers=%d analyzer %T diverged:\n got %+v\nwant %+v", workers, a, got, want[i])
			}
		}
		if ps.Total != seqStats {
			t.Errorf("workers=%d total stats %+v != sequential %+v", workers, ps.Total, seqStats)
		}
		if len(ps.Shards) != cfg.Collectors {
			t.Errorf("workers=%d: %d shard stats, want %d", workers, len(ps.Shards), cfg.Collectors)
		}
		if ps.Merges != len(ps.Shards)*len(par) {
			t.Errorf("workers=%d: %d merges, want %d", workers, ps.Merges, len(ps.Shards)*len(par))
		}
	}
}

// TestScanParallelMultiDay pins the shard boundary choice: a
// collector's classifier state must carry across its days, so shards
// are per collector, not per partition. A fresh-per-partition split
// would re-First every stream at each day boundary and inflate pc/pn.
func TestScanParallelMultiDay(t *testing.T) {
	cfg := smallDayConfig()
	dir := ingest(t, workload.MultiDaySource(cfg, 2))

	shards, err := evstore.ScanShards(dir, evstore.Query{})
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range shards {
		if len(sh.Partitions()) < 2 {
			t.Fatalf("shard %q has %d partitions, want the collector's full 2-day timeline", sh.Collector, len(sh.Partitions()))
		}
	}

	var seqErr error
	want := countTypes(evstore.Scan(dir, evstore.Query{}, &seqErr), nil)
	if seqErr != nil {
		t.Fatal(seqErr)
	}
	counts := analysis.NewCounts()
	if _, err := evstore.ScanParallel(context.Background(), dir, evstore.Query{}, evstore.TimeRange{}, 4, counts); err != nil {
		t.Fatal(err)
	}
	if counts.Counts != want {
		t.Errorf("parallel multi-day counts %+v != sequential %+v", counts.Counts, want)
	}
}

// corruptOnePartition truncates the first partition, breaking its
// footer.
func corruptOnePartition(t *testing.T, dir string) {
	t.Helper()
	infos, err := evstore.Stat(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := truncateFile(infos[0].Path, infos[0].SizeBytes/2); err != nil {
		t.Fatal(err)
	}
}

// TestScanParallelErrors covers the failure paths: an empty store and
// a corrupt partition must surface an error, not a partial result.
func TestScanParallelErrors(t *testing.T) {
	if _, err := evstore.ScanParallel(context.Background(), t.TempDir(), evstore.Query{}, evstore.TimeRange{}, 2, analysis.NewCounts()); err == nil {
		t.Error("empty store: want error")
	}

	cfg := smallDayConfig()
	_, sources := workload.DaySources(cfg)
	dir := ingest(t, stream.Concat(sources...))
	corruptOnePartition(t, dir)
	if _, err := evstore.ScanParallel(context.Background(), dir, evstore.Query{}, evstore.TimeRange{}, 2, analysis.NewCounts()); err == nil {
		t.Error("corrupt partition: want error")
	}
}
