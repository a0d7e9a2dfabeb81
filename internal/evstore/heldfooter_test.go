package evstore_test

import (
	"context"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/classify"
	"repro/internal/evstore"
	"repro/internal/stream"
)

// rewritePartition replaces the partition at path with one holding the
// same events in four-event blocks — another size and block directory,
// the same answers — renamed over it the way Recode replaces one.
func rewritePartition(t *testing.T, path string) {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	var serr error
	var events []classify.Event
	for e := range evstore.PartitionSource(path, evstore.Query{}, &serr) {
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
	if err := os.Rename(out[0], path); err != nil {
		t.Fatal(err)
	}
	if after, err := os.Stat(path); err != nil || after.Size() == fi.Size() {
		t.Fatalf("rewritten partition: %v, size unchanged at %d", err, fi.Size())
	}
}

// TestHeldFooters pins what the index's held footers save and what they
// must not change. Opening an index parses each partition's footer
// once — handed over by the decode that built its sidecar, or read
// beside a sidecar found on disk. A Refresh after one seal parses
// exactly the new partition's footer, and one with nothing new none. A
// warm filtered query parses no footer, answers and counts exactly like
// a cold ScanParallel, and never opens a partition its summaries prune:
// with those files gone it still answers the same. A partition
// rewritten to another size since the Refresh is read as it is now.
func TestHeldFooters(t *testing.T) {
	ctx := context.Background()
	dir := liveShapedStore(t, filterStoreConfig(), 96)
	parsed := func(do func()) int64 {
		t.Helper()
		before := evstore.FooterParses()
		do()
		return evstore.FooterParses() - before
	}
	var ix *evstore.SnapshotIndex
	for _, open := range []string{"building every sidecar", "over sidecars on disk"} {
		var bs evstore.SnapshotBuildStats
		n := parsed(func() {
			var err error
			if ix, bs, err = evstore.OpenSnapshotIndex(ctx, dir, snapNamed()); err != nil {
				t.Fatal(err)
			}
		})
		if parts, _ := ix.Coverage(); n != int64(parts) {
			t.Errorf("open %s (built %d) parsed %d footers for %d partitions; want each once", open, bs.Built, n, parts)
		}
	}

	// One more partition seals: a few of the first collector's events,
	// restamped onto a later day.
	var late []classify.Event
	var serr error
	for e := range evstore.Scan(dir, evstore.Query{}, &serr) {
		e.Time = e.Time.Add(72 * time.Hour)
		if late = append(late, e); len(late) == 12 {
			break
		}
	}
	if serr != nil {
		t.Fatal(serr)
	}
	w, err := evstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Ingest(stream.FromSlice(late)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	for i, want := range []int64{1, 0} {
		var bs evstore.SnapshotBuildStats
		n := parsed(func() {
			if bs, err = ix.Refresh(ctx); err != nil {
				t.Fatal(err)
			}
		})
		if n != want || bs.Built != int(want) {
			t.Errorf("refresh %d parsed %d footers and built %d sidecars; want %d of each", i, n, bs.Built, want)
		}
	}

	shards := shardStats(t, dir, 10)
	peer := evstore.Query{PeerAS: shards[1][0].PeerAS[:1]}
	queries := []evstore.Query{
		peer,
		{PeerAS: peer.PeerAS, Window: evstore.TimeRange{From: testDay.Add(3 * time.Hour), To: testDay.Add(30 * time.Hour)}},
		{PrefixRange: netip.MustParsePrefix("10.0.8.0/22"), Window: evstore.TimeRange{To: testDay.Add(30 * time.Hour)}},
	}
	// Each query runs twice: counted here, then held to the cold scan.
	query := func(q evstore.Query) (ss evstore.ServeStats, n int64) {
		t.Helper()
		n = parsed(func() {
			if ss, err = ix.Query(ctx, q, 2, snapNamed()...); err != nil {
				t.Fatal(err)
			}
		})
		checkSnapshotQuery(t, ix, q)
		return ss, n
	}
	for i, q := range queries {
		ss, n := query(q)
		if n != 0 {
			t.Errorf("warm filtered query %d parsed %d footers; want none", i, n)
		}
		if i == 0 && ss.Scan.PartitionsPruned == 0 {
			t.Fatalf("the peer-AS filter pruned no partition (%+v); the pin is vacuous", ss.Scan)
		}
	}

	// A partition rewritten since the Refresh, in the shard the peer-AS
	// filter reads: a query that opens it parses its footer afresh.
	rewritten := shards[1][2]
	rewritePartition(t, rewritten.Path)
	opens := int64(0) // by the unbounded peer-AS query, which prunes by peer AS alone
	if slices.Contains(rewritten.PeerAS, peer.PeerAS[0]) {
		opens = 1
	}
	for i, q := range queries {
		if _, n := query(q); n > 1 || i == 0 && n != opens {
			t.Errorf("filtered query %d over one rewritten partition parsed %d footers; want at most 1 (query 0: %d)", i, n, opens)
		}
	}

	// The partitions the peer-AS summaries prune leave the store: the warm
	// query never opens them, so its answer and its stats stand.
	want := snapNamed()
	wantSS, err := ix.Query(ctx, peer, 2, want...)
	if err != nil {
		t.Fatal(err)
	}
	removed := 0
	for _, infos := range shards {
		for _, info := range infos {
			if !slices.Contains(info.PeerAS, peer.PeerAS[0]) {
				if err := os.Remove(info.Path); err != nil {
					t.Fatal(err)
				}
				removed++
			}
		}
	}
	if removed != wantSS.Scan.PartitionsPruned {
		t.Errorf("removed %d partitions the peer AS is absent from; the query pruned %d", removed, wantSS.Scan.PartitionsPruned)
	}
	got := snapNamed()
	ss, err := ix.Query(ctx, peer, 2, got...)
	if err != nil {
		t.Fatalf("warm filtered query opened a partition its summaries prune: %v", err)
	}
	if ss.Scan != wantSS.Scan || !reflect.DeepEqual(finishedAnswers(got), finishedAnswers(want)) {
		t.Errorf("answer over the pruned partitions' absence: stats %+v, want %+v", ss.Scan, wantSS.Scan)
	}
}

// TestHeldFooterConcurrentRefresh runs filtered queries while live
// ingest seals partitions and a sealed one is rewritten to another size,
// with one goroutine refreshing the index throughout (run it under
// -race). Every answer must equal a cold scan of the view it planned
// from: the partitions of the manifest its generation stamps.
func TestHeldFooterConcurrentRefresh(t *testing.T) {
	ctx := context.Background()
	cfg := smallDayConfig()
	dir := liveShapedStore(t, cfg, 60)
	ix, _, err := evstore.OpenSnapshotIndex(ctx, dir, snapNamed())
	if err != nil {
		t.Fatal(err)
	}
	info, err := evstore.StatPartition(ix.Manifest().Partitions[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	queries := []evstore.Query{
		{PeerAS: info.PeerAS[:1]},
		{PrefixRange: netip.MustParsePrefix("10.0.0.0/12")},
		{PeerAS: info.PeerAS[:1], Window: evstore.TimeRange{From: testDay.Add(3 * time.Hour), To: testDay.Add(50 * time.Hour)}},
	}
	type planned struct {
		gen uint64
		q   int
	}
	type answer struct {
		planned
		got []any
	}
	var mu sync.Mutex // guards views and answers
	views := map[uint64][]evstore.PartitionRef{ix.Generation(): ix.Manifest().Partitions}
	var answers []answer

	done := make(chan struct{})
	var wg sync.WaitGroup
	var once sync.Once
	stop := func() { once.Do(func() { close(done); wg.Wait() }) }
	defer stop()
	wg.Add(1)
	go func() {
		// The one refresher: each view it swaps in is recorded before the
		// next, so every generation a query stamps is known.
		defer wg.Done()
		for {
			if _, err := ix.Refresh(ctx); err != nil {
				t.Errorf("refresh: %v", err)
				return
			}
			m := ix.Manifest()
			mu.Lock()
			views[m.Fingerprint()] = m.Partitions
			mu.Unlock()
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	for g := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; ; i++ {
				qi := i % len(queries)
				got := snapNamed()
				ss, err := ix.Query(ctx, queries[qi], 2, got...)
				if err != nil {
					t.Errorf("query: %v", err)
					return
				}
				mu.Lock()
				answers = append(answers, answer{planned{ss.Generation, qi}, finishedAnswers(got)})
				mu.Unlock()
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	// Each change is followed by a wait until a query has answered for the
	// store as the change left it, so the answers span every step.
	caughtUp := func() {
		t.Helper()
		m, err := evstore.LoadManifest(dir)
		if err != nil {
			t.Fatal(err)
		}
		for deadline := time.Now().Add(time.Minute); time.Now().Before(deadline) && !t.Failed(); time.Sleep(time.Millisecond) {
			mu.Lock()
			seen := slices.ContainsFunc(answers, func(a answer) bool { return a.gen == m.Fingerprint() })
			mu.Unlock()
			if seen {
				return
			}
		}
		t.Fatalf("no query answered at the store's generation %x", m.Fingerprint())
	}
	caughtUp()
	appendLiveDays(t, dir, cfg, 2, 1, 60)
	caughtUp()
	rewritePartition(t, ix.Manifest().Partitions[1].Path)
	caughtUp()
	appendLiveDays(t, dir, cfg, 3, 1, 60)
	caughtUp()
	stop()

	// The cold reference of each view is a scan of its partitions alone,
	// hard-linked into a directory of their own.
	want := map[planned][]any{}
	viewDirs := map[uint64]string{}
	for _, a := range answers {
		if _, ok := want[a.planned]; !ok {
			if _, ok := viewDirs[a.gen]; !ok {
				view, ok := views[a.gen]
				if !ok {
					t.Fatalf("a query planned from generation %x, which no refresh published", a.gen)
				}
				viewDirs[a.gen] = t.TempDir()
				for _, p := range view {
					if err := os.Link(p.Path, filepath.Join(viewDirs[a.gen], filepath.Base(p.Path))); err != nil {
						t.Fatal(err)
					}
				}
			}
			want[a.planned] = coldAnswers(t, viewDirs[a.gen], queries[a.q])
		}
		if !reflect.DeepEqual(a.got, want[a.planned]) {
			t.Errorf("query %d at generation %x is not its view's cold answer:\n got %+v\nwant %+v", a.q, a.gen, a.got, want[a.planned])
		}
	}
	if len(viewDirs) < 4 {
		t.Errorf("the answers span %d generations, want at least the four the steps leave", len(viewDirs))
	}
	if _, err := ix.Refresh(ctx); err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		checkSnapshotQuery(t, ix, q)
	}
}
