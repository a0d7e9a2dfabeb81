package evstore

import (
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// Shard assignment for a multi-process store. The unit of placement is
// the sanitized collector name — the same unit ScanShards splits on —
// so a collector's whole timeline (multi-day ingests whose classifier
// state carries across days) lands on exactly one shard and classifier
// state never has to cross a process boundary. Assignment uses a
// consistent-hash ring with virtual nodes: it is deterministic across
// processes (pure function of the collector name and shard count), and
// growing an N-shard cluster to N+1 moves only ~1/(N+1) of collectors
// instead of reshuffling almost everything the way name-hash mod N
// would.

// ringVirtualNodes is how many points each shard contributes to the
// ring; more points smooth the load split between shards.
const ringVirtualNodes = 256

type ringPoint struct {
	hash  uint64
	shard int
}

// ShardMap assigns collectors to one of N shards by consistent
// hashing. The zero value is not usable; construct with NewShardMap.
type ShardMap struct {
	ring []ringPoint
}

// NewShardMap builds the assignment ring for n shards (n < 1 is
// treated as 1).
func NewShardMap(n int) *ShardMap {
	if n < 1 {
		n = 1
	}
	m := &ShardMap{ring: make([]ringPoint, 0, n*ringVirtualNodes)}
	for s := 0; s < n; s++ {
		for v := 0; v < ringVirtualNodes; v++ {
			m.ring = append(m.ring, ringPoint{
				hash:  ringHash(fmt.Sprintf("shard-%d/vnode-%d", s, v)),
				shard: s,
			})
		}
	}
	sort.Slice(m.ring, func(i, j int) bool {
		a, b := m.ring[i], m.ring[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		return a.shard < b.shard
	})
	return m
}

// Shard returns the shard index owning a collector. The argument is
// the sanitized collector name as it appears in partition file names
// ("" for the catch-all of foreign file names — itself one placement
// unit, mirroring ScanShards).
func (m *ShardMap) Shard(collector string) int {
	h := ringHash(collector)
	i := sort.Search(len(m.ring), func(i int) bool { return m.ring[i].hash >= h })
	if i == len(m.ring) {
		i = 0 // wrap: first point clockwise from the top of the ring
	}
	return m.ring[i].shard
}

func ringHash(s string) uint64 {
	h := fnv.New64a()
	io.WriteString(h, s)
	return mix64(h.Sum64())
}

// mix64 is the splitmix64 finalizer. FNV alone leaves the hashes of
// near-identical strings (sequential vnode labels, collector names
// differing in one digit) correlated in their low bits, which shows up
// as badly uneven ring arcs; the finalizer scatters them.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// ShardDirName is the conventional per-shard store directory name
// under a split output root.
func ShardDirName(i int) string { return fmt.Sprintf("shard-%03d", i) }

// ShardSplit describes one output shard of a store split.
type ShardSplit struct {
	Dir        string
	Collectors int
	Partitions int
	Bytes      int64
}

// SplitStats describes a whole SplitStore run.
type SplitStats struct {
	Partitions int // partition files placed
	Sidecars   int // snapshot sidecars carried along
	Linked     int // files placed by hard link
	Copied     int // files placed by byte copy (cross-device fallback)
	Bytes      int64
	Shards     []ShardSplit
}

// SplitStore partitions an existing store into n shard stores under
// outDir (outDir/shard-000 … shard-NNN) using the consistent-hash
// ShardMap. See SplitStoreFunc for placement semantics.
func SplitStore(dir string, n int, outDir string) (SplitStats, error) {
	return SplitStoreFunc(dir, n, outDir, NewShardMap(n).Shard)
}

// SplitStoreFunc splits a store into n shard stores under outDir with
// an arbitrary collector→shard assignment (the sanitized collector
// name, "" for the catch-all unit). Partition files are hard-linked
// when possible (partitions are immutable once sealed, so shards can
// share bytes with the source store) and copied otherwise. Snapshot
// sidecars ride along with their partitions: a collector's partitions
// move as one group, so the chain fingerprints baked into the sidecars
// remain valid in the shard store and a shard daemon reuses them
// instead of rebuilding. Existing files are never overwritten — a
// non-empty conflicting output is an error, not a silent merge.
func SplitStoreFunc(dir string, n int, outDir string, assign func(collector string) int) (SplitStats, error) {
	var st SplitStats
	if n < 1 {
		return st, fmt.Errorf("evstore: split into %d shards", n)
	}
	entries, err := listPartitions(dir)
	if err != nil {
		return st, err
	}
	if len(entries) == 0 {
		return st, noPartitionsError(dir)
	}
	st.Shards = make([]ShardSplit, n)
	collectors := make([]map[string]bool, n)
	for i := range st.Shards {
		st.Shards[i].Dir = filepath.Join(outDir, ShardDirName(i))
		if err := os.MkdirAll(st.Shards[i].Dir, 0o755); err != nil {
			return st, err
		}
		collectors[i] = make(map[string]bool)
	}
	for _, e := range entries {
		si := assign(e.collector)
		if si < 0 || si >= n {
			return st, fmt.Errorf("evstore: collector %q assigned to shard %d of %d", e.collector, si, n)
		}
		sh := &st.Shards[si]
		collectors[si][e.collector] = true
		placed, err := placeFile(e.path, filepath.Join(sh.Dir, filepath.Base(e.path)))
		if err != nil {
			return st, err
		}
		st.Partitions++
		sh.Partitions++
		sh.Bytes += placed.bytes
		st.Bytes += placed.bytes
		if placed.linked {
			st.Linked++
		} else {
			st.Copied++
		}
		// The sidecar is an optional derived artifact; carry it if present.
		side := SnapshotPath(e.path)
		if _, err := os.Stat(side); err == nil {
			sp, err := placeFile(side, filepath.Join(sh.Dir, filepath.Base(side)))
			if err != nil {
				return st, err
			}
			st.Sidecars++
			if sp.linked {
				st.Linked++
			} else {
				st.Copied++
			}
		}
	}
	for i := range st.Shards {
		st.Shards[i].Collectors = len(collectors[i])
	}
	return st, nil
}

type placeResult struct {
	linked bool
	bytes  int64
}

// placeFile links src to dst, falling back to an exclusive-create copy
// when linking fails (cross-device outDir). An existing dst is an
// error either way.
func placeFile(src, dst string) (placeResult, error) {
	if _, err := os.Lstat(dst); err == nil {
		return placeResult{}, fmt.Errorf("evstore: split target %s already exists", dst)
	}
	fi, err := os.Stat(src)
	if err != nil {
		return placeResult{}, err
	}
	if err := os.Link(src, dst); err == nil {
		return placeResult{linked: true, bytes: fi.Size()}, nil
	}
	in, err := os.Open(src)
	if err != nil {
		return placeResult{}, err
	}
	defer in.Close()
	out, err := os.OpenFile(dst, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return placeResult{}, err
	}
	nw, err := io.Copy(out, in)
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(dst)
		return placeResult{}, err
	}
	return placeResult{bytes: nw}, nil
}
