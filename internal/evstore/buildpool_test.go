package evstore_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/classify"
	"repro/internal/evstore"
	"repro/internal/wire"
)

// copyStore copies src's partition files into a fresh directory.
func copyStore(t *testing.T, src string) string {
	t.Helper()
	dir := t.TempDir()
	parts, err := filepath.Glob(filepath.Join(src, "*"+evstore.Extension))
	if err != nil || len(parts) == 0 {
		t.Fatalf("partitions %v (%v)", parts, err)
	}
	for _, p := range parts {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(p)), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// buildOn runs one BuildSnapshots pass with GOMAXPROCS set to procs.
func buildOn(t *testing.T, procs int, ctx context.Context, dir string, named []evstore.NamedAnalyzer) (evstore.SnapshotBuildStats, error) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	return evstore.BuildSnapshots(ctx, dir, named)
}

// classifierStreams restores a classifier blob and returns its stream
// set: one encoded record per (session, prefix) stream, sorted — the
// blob's content independent of the map order it was written in.
func classifierStreams(t *testing.T, blob []byte) []string {
	t.Helper()
	cl := classify.New()
	if err := cl.Restore(blob); err != nil {
		t.Fatal(err)
	}
	enc := cl.Snapshot(nil)
	r := wire.NewReader(enc)
	streams := make([]string, r.Count(1))
	for i := range streams {
		start := r.Pos()
		classify.ReadSessionKey(r)
		r.Prefix()
		r.Path()
		r.Comms()
		r.Bytes(1)
		r.Uvarint()
		streams[i] = string(enc[start:r.Pos()])
	}
	if err := r.Err(); err != nil || r.Remaining() != 0 {
		t.Fatalf("re-encoded classifier state does not parse: %v, %d bytes left", err, r.Remaining())
	}
	slices.Sort(streams)
	return streams
}

// stateAnswers restores each analyzer state of snap into a fresh
// prototype registered under its key and returns what the analyzers
// answer — the states' content independent of the map order an encoding
// may follow.
func stateAnswers(t *testing.T, snap *evstore.PartitionSnapshot) map[string]any {
	t.Helper()
	answers := make(map[string]any, len(snap.States))
	for _, na := range snapNamed() {
		state, ok := snap.States[na.Key]
		if !ok {
			t.Fatalf("%s: no %q state", snap.Partition, na.Key)
		}
		if err := na.Proto.Restore(state); err != nil {
			t.Fatal(err)
		}
		answers[na.Key] = na.Proto.Finish()
	}
	if len(answers) != len(snap.States) {
		t.Fatalf("%s: %d states, want %d", snap.Partition, len(snap.States), len(answers))
	}
	return answers
}

// noTempSidecars fails if a sidecar temp file is left in dir.
func noTempSidecars(t *testing.T, dir string) {
	t.Helper()
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*"+evstore.SnapshotExtension+".tmp")); len(tmps) != 0 {
		t.Errorf("sidecar temp files left behind: %v", tmps)
	}
}

// sidecarFiles returns every sidecar file's bytes by partition base name.
func sidecarFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*"+evstore.Extension))
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string]string, len(paths))
	for _, p := range paths {
		raw, err := os.ReadFile(evstore.SnapshotPath(p))
		if err != nil {
			t.Fatal(err)
		}
		files[filepath.Base(p)] = string(raw)
	}
	return files
}

// cancelAtEvent is a row-fallback analyzer that cancels the build's
// context once its copies have observed limit events between them; safe
// for a pass on any number of workers.
type cancelAtEvent struct {
	seen   *atomic.Int64
	limit  int64
	cancel context.CancelFunc
}

func (a cancelAtEvent) Observe(classify.Result, classify.Event) {
	if a.seen.Add(1) == a.limit {
		a.cancel()
	}
}
func (a cancelAtEvent) Merge(classify.Analyzer)    {}
func (a cancelAtEvent) Finish() any                { return a.seen.Load() }
func (a cancelAtEvent) Fresh() classify.Analyzer   { return a }
func (a cancelAtEvent) Snapshot(dst []byte) []byte { return dst }
func (a cancelAtEvent) Restore([]byte) error       { return nil }

// TestBuildSnapshotsParallel pins the build pass on the worker pool
// (run it under -race): on a live-shaped store of four collectors, a
// pass on four workers builds what a pass on one builds — the same
// counts, sidecars with equal chain, size, time bounds and result codes,
// analyzer states that restore to the same answers and classifier blobs
// that restore to the same streams — and both stores answer a warm query
// like a cold scan. A corrupt
// partition fails the pass naming it, and once it is gone the next pass
// rebuilds only the rest of its shard. A cancelled pass returns the
// context's error and leaves every sidecar whole or absent.
func TestBuildSnapshotsParallel(t *testing.T) {
	cfg := smallDayConfig()
	cfg.Collectors = 4
	src := liveShapedStore(t, cfg, 40)
	shards, err := evstore.ScanShards(src, evstore.Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) < 4 {
		t.Fatalf("%d shards, want >= 4", len(shards))
	}

	seqDir, parDir := copyStore(t, src), copyStore(t, src)
	seq, err := buildOn(t, 1, context.Background(), seqDir, snapNamed())
	if err != nil {
		t.Fatal(err)
	}
	par, err := buildOn(t, 4, context.Background(), parDir, snapNamed())
	if err != nil {
		t.Fatal(err)
	}
	if seq.Workers != 1 || par.Workers != 4 {
		t.Errorf("passes ran on %d and %d workers, want 1 and 4", seq.Workers, par.Workers)
	}
	if seq.Built == 0 || seq.Built != seq.Partitions {
		t.Errorf("fresh store: %+v, want every partition built", seq)
	}
	seqCounts, parCounts := seq, par
	seqCounts.Workers, seqCounts.Elapsed, parCounts.Workers, parCounts.Elapsed = 0, 0, 0, 0
	if seqCounts != parCounts {
		t.Errorf("build counts differ:\n 1 worker  %+v\n 4 workers %+v", seqCounts, parCounts)
	}
	for _, sh := range shards {
		for _, path := range sh.Partitions() {
			base := filepath.Base(path)
			a, err := evstore.ReadSnapshot(filepath.Join(seqDir, base))
			if err != nil {
				t.Fatal(err)
			}
			b, err := evstore.ReadSnapshot(filepath.Join(parDir, base))
			if err != nil {
				t.Fatal(err)
			}
			if a.Chain != b.Chain || a.Size != b.Size || a.TMin != b.TMin || a.TMax != b.TMax ||
				a.Collector != b.Collector || a.Events != b.Events ||
				!slices.Equal(a.Results, b.Results) || !reflect.DeepEqual(stateAnswers(t, a), stateAnswers(t, b)) {
				t.Errorf("%s: sidecars differ between 1 and 4 workers", base)
			}
			if !slices.Equal(classifierStreams(t, a.Classifier), classifierStreams(t, b.Classifier)) {
				t.Errorf("%s: classifier end states differ between 1 and 4 workers", base)
			}
		}
	}
	for _, dir := range []string{seqDir, parDir} {
		ix, bs, err := evstore.OpenSnapshotIndex(context.Background(), dir, snapNamed())
		if err != nil {
			t.Fatal(err)
		}
		if bs.Built != 0 || bs.Reused != bs.Partitions {
			t.Errorf("open over a built store: %+v, want everything reused", bs)
		}
		checkSnapshotQuery(t, ix, evstore.Query{})
		paths := shards[1].Partitions()
		snap, err := evstore.ReadSnapshot(filepath.Join(dir, filepath.Base(paths[len(paths)/2])))
		if err != nil {
			t.Fatal(err)
		}
		checkSnapshotQuery(t, ix, evstore.Query{Window: evstore.TimeRange{From: cutInstant(t, snap)}})
	}

	t.Run("corrupt partition", func(t *testing.T) {
		dir := parDir
		paths := shards[1].Partitions()
		m := len(paths) / 2
		corrupt := filepath.Join(dir, filepath.Base(paths[m]))
		if err := os.WriteFile(corrupt, []byte("not a partition"), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := buildOn(t, 4, context.Background(), dir, snapNamed())
		wantErrNaming(t, err, corrupt, "")
		noTempSidecars(t, dir)

		if err := os.Remove(corrupt); err != nil {
			t.Fatal(err)
		}
		if err := os.Remove(evstore.SnapshotPath(corrupt)); err != nil {
			t.Fatal(err)
		}
		before := sidecarFiles(t, dir)
		bs, err := buildOn(t, 4, context.Background(), dir, snapNamed())
		if err != nil {
			t.Fatal(err)
		}
		rest := paths[m+1:]
		if bs.Built != len(rest) || bs.Reused != bs.Partitions-len(rest) {
			t.Errorf("repair pass %+v, want the %d partitions after the removed one built and nothing else", bs, len(rest))
		}
		after := sidecarFiles(t, dir)
		for _, p := range rest {
			delete(before, filepath.Base(p))
			delete(after, filepath.Base(p))
		}
		if !reflect.DeepEqual(before, after) {
			t.Error("the repair pass rewrote a sidecar outside the corrupt partition's shard tail")
		}
		ix, _, err := evstore.OpenSnapshotIndex(context.Background(), dir, snapNamed())
		if err != nil {
			t.Fatal(err)
		}
		checkSnapshotQuery(t, ix, evstore.Query{})
	})

	t.Run("cancelled", func(t *testing.T) {
		dir := copyStore(t, src)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, err := buildOn(t, 4, ctx, dir, snapNamed())
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("pre-cancelled pass returned %v, want context.Canceled", err)
		}
		noTempSidecars(t, dir)

		ctx, cancel = context.WithCancel(context.Background())
		defer cancel()
		named := append(snapNamed(), evstore.NamedAnalyzer{
			Key: "cancel", Proto: cancelAtEvent{seen: new(atomic.Int64), limit: 500, cancel: cancel}})
		cut, err := buildOn(t, 4, ctx, dir, named)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("pass cancelled mid-build returned %v, want context.Canceled", err)
		}
		noTempSidecars(t, dir)
		if cut.Built == 0 || cut.Built >= seq.Partitions {
			t.Fatalf("cancelled pass built %d of %d partitions, want it stopped midway", cut.Built, seq.Partitions)
		}
		for _, sh := range shards {
			for _, path := range sh.Partitions() {
				part := filepath.Join(dir, filepath.Base(path))
				if _, err := evstore.ReadSnapshot(part); err != nil && !errors.Is(err, os.ErrNotExist) {
					t.Errorf("cancelled pass left a torn sidecar: %v", err)
				}
			}
		}
		bs, err := buildOn(t, 4, context.Background(), dir, snapNamed())
		if err != nil {
			t.Fatal(err)
		}
		if bs.Built+cut.Built != bs.Partitions {
			t.Errorf("resumed pass built %d after %d, want %d in all", bs.Built, cut.Built, bs.Partitions)
		}
	})
}
