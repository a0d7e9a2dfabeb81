package evstore

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"time"
)

// PartitionRef identifies one sealed partition. Partitions are
// immutable once published (the writer links complete files into
// place), so the path alone is a durable identity; Size is carried so
// derived artifacts (snapshot sidecars) can detect that a file they
// describe was replaced wholesale.
type PartitionRef struct {
	Path string
	Size int64
}

// Manifest is the sealed-partition inventory of a store at one
// instant, in scan order. It is the unit of change detection for the
// serving layer: live ingest only ever ADDS partitions, so comparing
// two manifests tells a daemon exactly which partitions appeared.
type Manifest struct {
	Dir        string
	Partitions []PartitionRef
}

// LoadManifest lists the store's sealed partitions. An empty store
// yields an empty manifest, not an error — a serving daemon may start
// before the first ingest seals anything.
func LoadManifest(dir string) (Manifest, error) {
	entries, err := listPartitions(dir)
	if err != nil {
		return Manifest{}, err
	}
	m := Manifest{Dir: dir, Partitions: make([]PartitionRef, 0, len(entries))}
	for _, e := range entries {
		fi, err := os.Stat(e.path)
		if err != nil {
			// Sealed then removed between listing and stat (store rebuild);
			// skip — the next poll sees the steady state.
			continue
		}
		m.Partitions = append(m.Partitions, PartitionRef{Path: e.path, Size: fi.Size()})
	}
	return m, nil
}

// Fingerprint folds the manifest into a single store-version number:
// it changes whenever a partition is added, removed, or replaced, and
// is stable across processes and restarts (a pure function of sorted
// partition file names and sizes, not paths — two stores holding the
// same partitions fingerprint identically wherever they live on disk).
// The serving tier uses it as the cache generation and shard
// provenance "generation" field. An empty manifest has a well-known
// non-zero fingerprint; 0 is reserved to mean "unknown".
func (m Manifest) Fingerprint() uint64 {
	h := fnv.New64a()
	for _, p := range m.Partitions {
		io.WriteString(h, filepath.Base(p.Path))
		var sz [8]byte
		binary.LittleEndian.PutUint64(sz[:], uint64(p.Size))
		h.Write(sz[:])
		h.Write([]byte{0xff})
	}
	if s := h.Sum64(); s != 0 {
		return s
	}
	return 1
}

// Diff returns the partitions present in m but not in old, in scan
// order — the newly sealed partitions when old precedes m. Changed
// reports whether the manifests differ at all (including removals or
// size changes, which appear only during store rebuilds).
func (m Manifest) Diff(old Manifest) (added []PartitionRef, changed bool) {
	prev := make(map[string]int64, len(old.Partitions))
	for _, p := range old.Partitions {
		prev[p.Path] = p.Size
	}
	seen := 0
	for _, p := range m.Partitions {
		size, ok := prev[p.Path]
		if !ok {
			added = append(added, p)
			continue
		}
		seen++
		if size != p.Size {
			changed = true
		}
	}
	if len(added) > 0 || seen != len(old.Partitions) {
		changed = true
	}
	return added, changed
}

// Watch polls the store on the given interval and invokes onChange
// with the new manifest and the newly sealed partitions whenever the
// inventory changes relative to since (the baseline the caller loaded
// — typically the manifest its snapshot index was built from, so no
// seal between load and watch start can be missed). It blocks until
// ctx is cancelled — run it on its own goroutine. Polling (rather
// than fs notification) keeps the watcher portable and matches the
// seal granularity: partitions appear at most every few seconds under
// live ingest, so a sub-second interval observes every seal without
// racing half-written files (the writer links only complete
// partitions into place).
func Watch(ctx context.Context, since Manifest, interval time.Duration, onChange func(m Manifest, added []PartitionRef)) error {
	if interval <= 0 {
		interval = time.Second
	}
	last := since
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ticker.C:
		}
		m, err := LoadManifest(last.Dir)
		if err != nil {
			// Transient listing failures (store dir momentarily missing
			// during a rebuild) shouldn't kill the watcher; retry on the
			// next tick.
			continue
		}
		if added, changed := m.Diff(last); changed {
			onChange(m, added)
		}
		last = m
	}
}
