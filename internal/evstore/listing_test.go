package evstore

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"
)

// globPartitions is the listing as the "*.evp" glob produced it: the
// oracle listPartitions must reproduce entry for entry.
func globPartitions(t testing.TB, dir string) []storeEntry {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*"+Extension))
	if err != nil {
		t.Fatal(err)
	}
	entries := make([]storeEntry, 0, len(paths))
	for _, p := range paths {
		e := storeEntry{path: p}
		if collector, day, seq, ok := parsePartitionName(filepath.Base(p)); ok {
			e.collector, e.dayUnix, e.seq, e.parsed = collector, day.Unix(), seq, true
		}
		entries = append(entries, e)
	}
	sort.Slice(entries, func(i, j int) bool {
		a, b := entries[i], entries[j]
		if a.collector != b.collector {
			return a.collector < b.collector
		}
		if a.dayUnix != b.dayUnix {
			return a.dayUnix < b.dayUnix
		}
		if a.seq != b.seq {
			return a.seq < b.seq
		}
		return a.path < b.path
	})
	return entries
}

// touch creates empty files named names in dir.
func touch(t testing.TB, dir string, names ...string) {
	t.Helper()
	for _, name := range names {
		if err := os.WriteFile(filepath.Join(dir, name), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestListPartitionsDecoys pins the one directory read every listing
// path shares (a Refresh, Watch's manifest poll, a cold scan) to what
// the "*.evp" glob listed: the same entries in the same order, with
// sidecars, sidecar temp files, the writer's and Recode's temp
// partitions and other near-misses left out, foreign names kept for the
// catch-all shard, and a missing directory listing as empty.
func TestListPartitionsDecoys(t *testing.T) {
	dir := t.TempDir()
	touch(t, dir,
		"rrc01__20200316__0000.evp",
		"rrc00__20200316__0001.evp",
		"rrc00__20200316__0000.evp",
		"rrc00__20200315__0002.evp",
		"zz.evp", "foreign.evp", ".evp", // foreign names: the catch-all shard
		// decoys
		"rrc00__20200315__0002.evp.evps",
		"rrc00__20200315__0002.evp.evps.tmp",
		"ingest-1234.evp-tmp",
		"recode-99.evp-tmp",
		"rrc00__20200315__0003.EVP",
		"rrc00__20200315__0004.evp.bak",
		"notes.txt",
	)
	if err := os.Mkdir(filepath.Join(dir, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	touch(t, filepath.Join(dir, "sub"), "rrc02__20200315__0000.evp")

	got, err := listPartitions(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range got {
		names = append(names, filepath.Base(e.path))
	}
	want := []string{
		".evp", "foreign.evp", "zz.evp",
		"rrc00__20200315__0002.evp", "rrc00__20200316__0000.evp", "rrc00__20200316__0001.evp",
		"rrc01__20200316__0000.evp",
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("listing order:\n got %q\nwant %q", names, want)
	}
	if oracle := globPartitions(t, dir); !reflect.DeepEqual(got, oracle) {
		t.Errorf("listing diverged from the glob:\n got %+v\nwant %+v", got, oracle)
	}

	m, err := LoadManifest(dir)
	if err != nil || len(m.Partitions) != len(want) {
		t.Fatalf("manifest of %d partitions (%v), want %d", len(m.Partitions), err, len(want))
	}

	missing := filepath.Join(dir, "absent")
	if got, err := listPartitions(missing); err != nil || len(got) != 0 {
		t.Errorf("missing directory listed %d entries, %v; want none and no error", len(got), err)
	}
	if m, err := LoadManifest(missing); err != nil || len(m.Partitions) != 0 {
		t.Errorf("missing directory: manifest of %d partitions, %v; want empty", len(m.Partitions), err)
	}
	if IsStoreDir(missing) || IsStoreDir(filepath.Join(dir, "notes.txt")) {
		t.Error("a missing directory or a plain file reads as a store")
	}
	if !IsStoreDir(dir) {
		t.Error("the decoy directory holds partitions but does not read as a store")
	}
}

// BenchmarkListPartitions lists a directory shaped like the benchmark's
// live store: 200 partitions across 10 collectors and 2 days, each with
// its sidecar beside it.
func BenchmarkListPartitions(b *testing.B) {
	dir := b.TempDir()
	day := time.Date(2020, 3, 15, 0, 0, 0, 0, time.UTC)
	for i := range 200 {
		name := partitionName(fmt.Sprintf("rrc%02d", i%10), day.Add(time.Duration(i/100)*24*time.Hour), i/10%10)
		touch(b, dir, name, name+SnapshotExtension)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		entries, err := listPartitions(dir)
		if err != nil || len(entries) != 200 {
			b.Fatalf("%d entries, %v", len(entries), err)
		}
	}
}
