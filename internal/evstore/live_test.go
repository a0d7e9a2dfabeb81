package evstore_test

import (
	"context"
	"errors"
	"fmt"
	"net/netip"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/classify"
	"repro/internal/evstore"
	"repro/internal/stream"
)

// liveEvents builds n sequential announcements for one collector-day
// session starting at offset into the day.
func liveEvents(day time.Time, collector string, offset time.Duration, n int) []classify.Event {
	evs := make([]classify.Event, 0, n)
	for i := 0; i < n; i++ {
		evs = append(evs, classify.Event{
			Time:      day.Add(offset + time.Duration(i)*time.Second),
			Collector: collector,
			PeerAS:    64500,
			PeerAddr:  netip.MustParseAddr("10.0.0.1"),
			Prefix:    netip.MustParsePrefix(fmt.Sprintf("192.0.%d.0/24", i%200)),
		})
	}
	return evs
}

// TestWriterContinuesSequence pins the live-append contract: ingesting
// into a non-empty store dir continues each (collector, day) partition
// sequence instead of colliding with or shadowing existing files.
func TestWriterContinuesSequence(t *testing.T) {
	dir := t.TempDir()
	day := time.Date(2020, 3, 15, 0, 0, 0, 0, time.UTC)

	ingest := func(offset time.Duration, n int) {
		t.Helper()
		w, err := evstore.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Ingest(stream.FromSlice(liveEvents(day, "rrc00", offset, n))); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	ingest(0, 100)
	ingest(time.Hour, 50)
	ingest(2*time.Hour, 25)

	paths, _ := filepath.Glob(filepath.Join(dir, "*"+evstore.Extension))
	if len(paths) != 3 {
		t.Fatalf("got %d partitions, want 3: %v", len(paths), paths)
	}
	for i, p := range paths {
		want := fmt.Sprintf("rrc00__20200315__%04d%s", i, evstore.Extension)
		if filepath.Base(p) != want {
			t.Errorf("partition %d named %s, want %s", i, filepath.Base(p), want)
		}
	}
	var scanErr error
	if n := stream.Count(evstore.Scan(dir, evstore.Query{}, &scanErr)); n != 175 || scanErr != nil {
		t.Fatalf("store holds %d events (err %v), want 175", n, scanErr)
	}
}

// TestConcurrentWritersNeverShadow pins the seal-time exclusivity fix:
// two writers opened against the same dir BEFORE either seals (so both
// computed the same next sequence number at Open) must still publish
// distinct partition files — no events lost to a rename over an
// existing partition.
func TestConcurrentWritersNeverShadow(t *testing.T) {
	dir := t.TempDir()
	day := time.Date(2020, 3, 15, 0, 0, 0, 0, time.UTC)

	w1, err := evstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := evstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := w1.Ingest(stream.FromSlice(liveEvents(day, "rrc00", 0, 60))); err != nil {
		t.Fatal(err)
	}
	if err := w1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w2.Ingest(stream.FromSlice(liveEvents(day, "rrc00", time.Hour, 40))); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}

	paths, _ := filepath.Glob(filepath.Join(dir, "*"+evstore.Extension))
	if len(paths) != 2 {
		t.Fatalf("got %d partitions, want 2: %v", len(paths), paths)
	}
	var scanErr error
	if n := stream.Count(evstore.Scan(dir, evstore.Query{}, &scanErr)); n != 100 || scanErr != nil {
		t.Fatalf("store holds %d events (err %v), want 100 — a writer shadowed the other's partition", n, scanErr)
	}
	// No temp litter left behind.
	tmps, _ := filepath.Glob(filepath.Join(dir, "ingest-*"))
	if len(tmps) != 0 {
		t.Errorf("temp files left after sealing: %v", tmps)
	}
}

// TestScanDuringIngest races store scans against a live
// Ingest+seal cycle: a reader must never observe a partial partition —
// every scan sees a prefix of the sealed partitions, each complete —
// and once ingest finishes, scans classify identically to a
// post-ingest scan. Run under -race this also proves the reader and
// writer share no unsynchronized state.
func TestScanDuringIngest(t *testing.T) {
	dir := t.TempDir()
	day := time.Date(2020, 3, 15, 0, 0, 0, 0, time.UTC)

	const readers = 4
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var scanErr error
				for range evstore.Scan(dir, evstore.Query{}, &scanErr) {
				}
				// An empty store is legal while the first partition is
				// still open; any OTHER error means a scan saw a torn
				// partition.
				if scanErr != nil && !isNoPartitions(scanErr) {
					select {
					case errs <- fmt.Errorf("scan error during ingest: %w", scanErr):
					default:
					}
					return
				}
			}
		}()
	}

	// Ingest several collector-days in separate seal cycles so readers
	// race many rename-into-place instants.
	for round := 0; round < 6; round++ {
		w, err := evstore.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		collector := fmt.Sprintf("rrc%02d", round%3)
		src := stream.FromSlice(liveEvents(day.Add(time.Duration(round)*24*time.Hour), collector, 0, 400))
		if err := w.Ingest(src); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	// The final store classifies like a freshly scanned one.
	var aErr, bErr error
	a := countTypes(evstore.Scan(dir, evstore.Query{}, &aErr), nil)
	b := countTypes(evstore.Scan(dir, evstore.Query{}, &bErr), nil)
	if aErr != nil || bErr != nil {
		t.Fatalf("post-ingest scans errored: %v / %v", aErr, bErr)
	}
	if a != b {
		t.Fatalf("post-ingest scans diverged: %+v != %+v", a, b)
	}
	if total := a.Announcements() + a.Withdrawals; total != 6*400 {
		t.Fatalf("post-ingest scan saw %d events, want %d", total, 6*400)
	}
}

// isNoPartitions matches the empty-store error without a sentinel:
// the message prefix is part of the scan contract.
func isNoPartitions(err error) bool {
	return err != nil && strings.HasPrefix(err.Error(), "evstore: no partitions")
}

// cancelAfter is a row-fallback analyzer that cancels the scan's context
// once it has observed limit events. Fresh returns the analyzer itself,
// so it is only good for a one-worker scan.
type cancelAfter struct {
	n, limit int
	cancel   context.CancelFunc
}

func (a *cancelAfter) Observe(classify.Result, classify.Event) {
	if a.n++; a.n == a.limit {
		a.cancel()
	}
}
func (a *cancelAfter) Merge(classify.Analyzer)    {}
func (a *cancelAfter) Finish() any                { return a.n }
func (a *cancelAfter) Fresh() classify.Analyzer   { return a }
func (a *cancelAfter) Snapshot(dst []byte) []byte { return dst }
func (a *cancelAfter) Restore([]byte) error       { return nil }

// TestScanCancellation pins the cancellation contract: cancelling the
// context stops a scan at the end of the block in flight and surfaces
// the context's error; a pre-cancelled ScanParallel returns it
// outright. With 64-event blocks and the cancel at the 100th event,
// the scan classifies exactly the first two blocks.
func TestScanCancellation(t *testing.T) {
	dir := t.TempDir()
	day := time.Date(2020, 3, 15, 0, 0, 0, 0, time.UTC)
	w, err := evstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	w.BlockEvents = 64 // many blocks, so cancellation has boundaries to hit
	if err := w.Ingest(stream.FromSlice(liveEvents(day, "rrc00", 0, 2048))); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	seen := &cancelAfter{limit: 100, cancel: cancel}
	_, err = evstore.ScanParallel(ctx, dir, evstore.Query{}, evstore.TimeRange{}, 1, seen)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled scan reported %v, want context.Canceled", err)
	}
	if seen.n != 128 {
		t.Fatalf("cancelled scan classified %d events, want 128 (the end of the block holding the cancel)", seen.n)
	}

	cancelled, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, err := evstore.ScanParallel(cancelled, dir, evstore.Query{}, evstore.TimeRange{}, 2, &classify.CountsAnalyzer{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled ScanParallel returned %v, want context.Canceled", err)
	}
}
