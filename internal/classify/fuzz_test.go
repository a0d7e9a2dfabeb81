package classify_test

import (
	"context"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/internal/classify"
	"repro/internal/evstore"
	"repro/internal/wire"
	"repro/internal/workload"
)

// streamSet returns a classifier's stream set: one encoded record per
// (session, prefix) stream, sorted — its state independent of the map
// order Snapshot writes it in.
func streamSet(t *testing.T, cl *classify.Classifier) []string {
	t.Helper()
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
		t.Fatalf("Snapshot output does not parse: %v, %d bytes left", err, r.Remaining())
	}
	slices.Sort(streams)
	return streams
}

// builtClassifierBlob returns the classifier end state a real sidecar
// build pass writes for the first partition of a small generated store.
func builtClassifierBlob(f *testing.F) []byte {
	f.Helper()
	cfg := workload.DefaultDayConfig(time.Date(2020, 3, 15, 0, 0, 0, 0, time.UTC))
	cfg.Collectors = 1
	cfg.PeersPerCollector = 2
	cfg.PrefixesV4 = 12
	cfg.PrefixesV6 = 3
	dir := f.TempDir()
	w, err := evstore.Open(dir)
	if err != nil {
		f.Fatal(err)
	}
	w.Seal = evstore.SealPolicy{MaxEvents: 200}
	if err := w.Ingest(workload.MultiDaySource(cfg, 1)); err != nil {
		f.Fatal(err)
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	named := []evstore.NamedAnalyzer{{Key: "counts", Proto: &classify.CountsAnalyzer{}}}
	if _, err := evstore.BuildSnapshots(context.Background(), dir, named); err != nil {
		f.Fatal(err)
	}
	parts, err := filepath.Glob(filepath.Join(dir, "*"+evstore.Extension))
	if err != nil || len(parts) == 0 {
		f.Fatalf("partitions %v (%v)", parts, err)
	}
	snap, err := evstore.ReadSnapshot(parts[0])
	if err != nil {
		f.Fatal(err)
	}
	if len(snap.Classifier) == 0 {
		f.Fatal("the build pass wrote an empty classifier state")
	}
	return snap.Classifier
}

// FuzzClassifierRestore feeds Classifier.Restore — which decodes the
// classifier end state a sidecar file carries — arbitrary bytes: it
// must never panic, and whatever it accepts must round-trip, Snapshot →
// Restore → Snapshot holding the same stream set.
//
//	go test -run '^$' -fuzz FuzzClassifierRestore -fuzztime 60s -fuzzminimizetime 1s ./internal/classify/
func FuzzClassifierRestore(f *testing.F) {
	blob := builtClassifierBlob(f)
	f.Add(blob)
	f.Add(blob[:len(blob)/2])
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f})

	f.Fuzz(func(t *testing.T, data []byte) {
		cl := classify.New()
		if cl.Restore(data) != nil {
			return
		}
		want := streamSet(t, cl)
		again := classify.New()
		if err := again.Restore(cl.Snapshot(nil)); err != nil {
			t.Fatalf("accepted input's own snapshot refused: %v", err)
		}
		if got := streamSet(t, again); !slices.Equal(got, want) {
			t.Fatalf("round trip changed the stream set: %d streams, want %d", len(got), len(want))
		}
	})
}
