package evstore

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/classify"
	"repro/internal/wire"
)

// Snapshot sidecars persist analyzer accumulator state per partition:
// for each sealed partition and each registered analyzer, the
// serialized state that analyzer reaches after observing the
// partition's events — with classification carried over from the
// collector's earlier partitions, exactly as a sequential scan would
// classify them. A sidecar also records the CLASSIFICATION itself — one
// result code per event, in partition order (classify.EncodeResult) —
// and the CLASSIFIER state at the end of the partition. Both are fixed
// by the partition's place in its collector's chain, which the Chain
// fingerprint proves: a label depends only on the events before it on
// its own stream.
//
// Together these make windowed queries incremental: partitions fully
// inside the window contribute their precomputed states (a Merge per
// analyzer), partitions before the window contribute nothing, and a
// partition the window cuts through is decoded — only the columns the
// analyzers read, only the blocks the window reaches — and its events
// replayed against their recorded codes, never classified again. The
// classifier end state is read only by a pass that must classify a
// partition with no trusted sidecar of its own (a build, or a query
// racing one): it is restored once, from the last sidecar before that
// partition — see classChain.
//
// Sidecars are derived data: they live beside the partitions as
// "<partition>.evps", are rebuilt whenever missing or stale (the
// recorded partition size no longer matches), and can be deleted at
// any time without losing events.

// SnapshotExtension is the sidecar file suffix, appended to the full
// partition file name ("x.evp" → "x.evp.evps") so the *.evp partition
// glob never matches a sidecar.
const SnapshotExtension = ".evps"

// snapshotMagic heads a sidecar: magic, a codec byte (sidecars ride
// the same codec abstraction as partition chunks), the body length,
// the compressed body. Any other magic — including the retired "EVS1"
// and "EVS2", which carry no Results column — is a bad sidecar, which a
// build pass replaces.
const snapshotMagic = "EVS3"

// compPool recycles block compressors across WriteSnapshot calls
// (BuildSnapshots writes one sidecar per fresh partition) and Recode's
// shards.
var compPool = sync.Pool{New: func() any { return new(blockCompressor) }}

// NamedAnalyzer pairs an analyzer prototype with the stable key its
// state is stored under in snapshot sidecars. The key must capture the
// analyzer's configuration (e.g. "sessionmix:rrc00:84.205.64.0/24"):
// sidecar states are only restored into Fresh copies of a prototype
// registered under the same key.
type NamedAnalyzer struct {
	Key   string
	Proto classify.Analyzer
}

// splitNamed separates a named analyzer set into its keys and
// prototypes, index-aligned.
func splitNamed(named []NamedAnalyzer) (keys []string, protos []classify.Analyzer) {
	keys = make([]string, len(named))
	protos = make([]classify.Analyzer, len(named))
	for i, na := range named {
		keys[i] = na.Key
		protos[i] = na.Proto
	}
	return keys, protos
}

// PartitionSnapshot is one sidecar's content.
type PartitionSnapshot struct {
	// Partition is the partition file's base name; Size is the sealed
	// partition's size when the snapshot was built (staleness check —
	// sealed partitions only ever change by being replaced wholesale).
	Partition string
	Size      int64
	// Collector is the raw collector name from the partition header
	// (the filename holds only its sanitized form).
	Collector string
	// Events is the partition's event count; TMin/TMax bound the event
	// times (unix nanoseconds, inclusive; both zero when Events is 0).
	Events     int
	TMin, TMax int64
	// Chain fingerprints the partition's position in its shard's
	// classifier chain: hash(predecessor's Chain, partition name, size).
	// A partition INSERTED earlier in the shard (a backfilled day)
	// changes the expected chain of every later partition, so their
	// sidecars — whose states were computed against the old chain —
	// stop validating and rebuild, instead of being silently reused
	// with stale classification.
	Chain uint64
	// Classifier is the classifier state after the partition, given the
	// state before it (the chain starts fresh at the collector's first
	// partition).
	Classifier []byte
	// Results holds one classify.EncodeResult code per event, in
	// partition order (block after block, row after row): what the chain
	// classified each event as. len(Results) == Events.
	Results []byte
	// States maps analyzer keys to serialized accumulator state over
	// exactly this partition's events.
	States map[string][]byte
}

// chainHash folds one partition into its shard's chain fingerprint.
func chainHash(prev uint64, base string, size int64) uint64 {
	h := fnv.New64a()
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:8], prev)
	binary.LittleEndian.PutUint64(b[8:], uint64(size))
	h.Write(b[:])
	h.Write([]byte(base))
	return h.Sum64()
}

// trustWalk is the sidecar-trust walk over one shard's partitions in
// shard order, shared by the planner and the build pass. next stats
// the next partition and folds it into the chain fingerprint; trusts
// then judges a candidate sidecar for that partition.
type trustWalk struct {
	chain uint64
	fi    os.FileInfo // of the partition next last stat'ed
}

func (w *trustWalk) next(partPath string) error {
	fi, err := os.Stat(partPath)
	if err != nil {
		return err
	}
	w.fi = fi
	w.chain = chainHash(w.chain, filepath.Base(partPath), fi.Size())
	return nil
}

// trusts reports whether snap was built for this exact partition file
// AND against this exact predecessor chain — a backfilled earlier day
// invalidates every later sidecar in the shard, whose states embed
// classification against the old chain — and holds every key.
func (w *trustWalk) trusts(snap *PartitionSnapshot, keys []string) bool {
	return snap != nil && snap.Chain == w.chain && snapshotCovers(snap, w.fi.Size(), keys)
}

// SnapshotPath returns the sidecar path for a partition path.
func SnapshotPath(partPath string) string { return partPath + SnapshotExtension }

// WriteSnapshot atomically writes the sidecar for the given partition
// path, compressing the body with the store's default codec.
func WriteSnapshot(partPath string, snap *PartitionSnapshot) error {
	return writeSnapshotCodec(partPath, snap, DefaultCodec)
}

// writeSnapshotCodec is WriteSnapshot with an explicit body codec —
// how Recode rewrites sidecars alongside their partitions.
func writeSnapshotCodec(partPath string, snap *PartitionSnapshot, codec Codec) error {
	body := wire.AppendString(nil, snap.Partition)
	body = wire.AppendVarint(body, snap.Size)
	body = wire.AppendUvarint(body, snap.Chain)
	body = wire.AppendString(body, snap.Collector)
	body = wire.AppendVarint(body, int64(snap.Events))
	body = wire.AppendVarint(body, snap.TMin)
	body = wire.AppendVarint(body, snap.TMax)
	body = wire.AppendBytes(body, snap.Classifier)
	body = wire.AppendBytes(body, snap.Results)
	body = wire.AppendUvarint(body, uint64(len(snap.States)))
	for key, state := range snap.States {
		body = wire.AppendString(body, key)
		body = wire.AppendBytes(body, state)
	}

	bc := compPool.Get().(*blockCompressor)
	defer compPool.Put(bc)
	data, codec, err := bc.compress(codec, body)
	if err != nil {
		return err
	}
	out := make([]byte, 0, len(snapshotMagic)+1+binary.MaxVarintLen64+len(data))
	out = append(out, snapshotMagic...)
	out = append(out, byte(codec))
	out = wire.AppendUvarint(out, uint64(len(body)))
	out = append(out, data...)

	path := SnapshotPath(partPath)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, out, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// ReadSnapshot reads the sidecar for the given partition path.
func ReadSnapshot(partPath string) (*PartitionSnapshot, error) {
	raw, err := os.ReadFile(SnapshotPath(partPath))
	if err != nil {
		return nil, err
	}
	snap, err := parseSnapshot(raw)
	if err != nil {
		return nil, fmt.Errorf("evstore: %s: %w", SnapshotPath(partPath), err)
	}
	return snap, nil
}

// parseSnapshot decodes a sidecar file's bytes. Whatever it accepts
// holds exactly one valid result code per event.
func parseSnapshot(raw []byte) (*PartitionSnapshot, error) {
	if !bytes.HasPrefix(raw, []byte(snapshotMagic)) {
		return nil, errors.New("bad snapshot magic")
	}
	hr := wire.NewReader(raw[len(snapshotMagic):])
	cb := hr.Bytes(1)
	ulen := hr.Uvarint()
	if err := hr.Err(); err != nil {
		return nil, err
	}
	codec := Codec(cb[0])
	if err := codec.check(); err != nil {
		return nil, err
	}
	// No codec ever assigned expands further than 1032:1 (the retired
	// deflate's bound; lz stays under 255:1), so a body length beyond
	// that is a lie; refuse it before allocating for it.
	if ulen > uint64(maxBlockEvents)*256 || ulen > uint64(hr.Remaining())*1032 {
		return nil, fmt.Errorf("implausible snapshot size %d", ulen)
	}
	body := make([]byte, ulen)
	if err := decompress(codec, body, hr.Bytes(hr.Remaining())); err != nil {
		return nil, err
	}

	r := wire.NewReader(body)
	snap := &PartitionSnapshot{Partition: r.String()}
	snap.Size = r.Varint()
	snap.Chain = r.Uvarint()
	snap.Collector = r.String()
	snap.Events = r.Int()
	snap.TMin = r.Varint()
	snap.TMax = r.Varint()
	snap.Classifier = append([]byte{}, r.Bytes(r.Count(1))...)
	snap.Results = append([]byte{}, r.Bytes(r.Count(1))...)
	n := r.Count(2)
	snap.States = make(map[string][]byte, n)
	for i := 0; i < n; i++ {
		key := r.String()
		state := append([]byte{}, r.Bytes(r.Count(1))...)
		if r.Err() != nil {
			break
		}
		snap.States[key] = state
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	if len(snap.Results) != snap.Events {
		return nil, fmt.Errorf("%d result codes for %d events", len(snap.Results), snap.Events)
	}
	for i, code := range snap.Results {
		if _, _, ok := classify.DecodeResult(code); !ok {
			return nil, fmt.Errorf("unknown result code %#x at event %d", code, i)
		}
	}
	return snap, nil
}

// snapshotCovers reports whether an existing sidecar is usable for the
// given partition file size and analyzer keys.
func snapshotCovers(snap *PartitionSnapshot, size int64, keys []string) bool {
	if snap == nil || snap.Size != size {
		return false
	}
	for _, k := range keys {
		if _, ok := snap.States[k]; !ok {
			return false
		}
	}
	return true
}

// SnapshotBuildStats summarizes one BuildSnapshots pass.
type SnapshotBuildStats struct {
	Partitions int // sealed partitions considered
	Built      int // sidecars (re)written this pass
	Reused     int // up-to-date sidecars skipped
	Events     int // events decoded to build
	// SidecarsRead counts sidecar files read and decoded from disk; a
	// Refresh reads none for partitions its index already holds.
	SidecarsRead int
	// Restores counts classifier end states decoded from reused
	// sidecars: at most one per built partition.
	Restores int
	// Workers is the size of the pool the pass ran on; Elapsed its wall
	// time.
	Workers int
	Elapsed time.Duration
}

// add sums another shard's counts into s (Workers and Elapsed are the
// pass's own).
func (s *SnapshotBuildStats) add(o SnapshotBuildStats) {
	s.Partitions += o.Partitions
	s.Built += o.Built
	s.Reused += o.Reused
	s.Events += o.Events
	s.SidecarsRead += o.SidecarsRead
	s.Restores += o.Restores
}

// BuildSnapshots brings the store's snapshot sidecars up to date for
// the given analyzer set: every sealed partition missing a sidecar (or
// whose sidecar is stale or lacks one of the keys) is scanned ONCE —
// with classifier state carried over from the collector's earlier
// partitions — and its per-analyzer states, per-event result codes and
// end-of-partition classifier are written beside it. Partitions with
// up-to-date sidecars are not decoded at all, and the classifier chain
// over them is lazy: a reused sidecar's end state is restored only if it
// is the last one before a partition that must be built, so a pass costs
// at most one restore per built partition and a fully current store
// costs none. A daemon watching a live store pays only for what ingest just
// sealed: the incremental half of incremental snapshots.
//
// A collector's sidecar chain depends on no other collector's, so the
// pass drains the store's shards on the executor's worker pool, one
// shard per worker at a time on GOMAXPROCS workers (SnapshotBuildStats
// reports how many): a cold open, or a rebuild after a backfilled day,
// runs on every core. The first error stops new shards from starting;
// shards already running finish or fail on their own, so their sidecars
// may be written. A sidecar is written to a temp file and renamed into
// place, so a cancelled pass leaves every sidecar whole or absent.
func BuildSnapshots(ctx context.Context, dir string, named []NamedAnalyzer) (SnapshotBuildStats, error) {
	shards, err := ScanShards(dir, Query{})
	if err != nil {
		if errors.Is(err, ErrNoPartitions) {
			return SnapshotBuildStats{}, nil // empty store: nothing to snapshot yet
		}
		return SnapshotBuildStats{}, err
	}
	return buildSnapshots(ctx, shards, named, nil, nil)
}

// buildSnapshots is the build pass behind BuildSnapshots and
// SnapshotIndex.Refresh, over the shards of a listing the caller made
// (it lists nothing itself). prev (may be nil) is the caller's view: a
// sidecar of it still matching its partition's size and chain and
// covering the keys is reused without touching the sidecar file, a
// footer whose file the trust walk's stat shows unchanged is carried
// over; neither is ever modified. next (may be nil), the view being
// built over shards, receives every up-to-date sidecar, and each entry
// of shards its footer: carried over, or parsed by the build's decode,
// or else parsed once.
func buildSnapshots(ctx context.Context, shards []Shard, named []NamedAnalyzer, prev, next *indexView) (SnapshotBuildStats, error) {
	start := time.Now()
	var bs SnapshotBuildStats
	var err error
	pass := snapshotPass{zero: compileQuery(Query{}), hold: next != nil}
	if prev != nil {
		pass.held, pass.feet = prev.snaps, make(map[string]*partition, len(prev.snaps))
		for _, sh := range prev.shards {
			for _, e := range sh.entries {
				pass.feet[e.path] = e.foot
			}
		}
	}
	pass.keys, pass.protos = splitNamed(named)
	var mu sync.Mutex // merges the shards' counts into bs, their sidecars into next
	bs.Workers, err = forEachShard(len(shards), 0, func(br *blockReader, i int) error {
		sh := shards[i]
		var st SnapshotBuildStats
		snaps := make([]*PartitionSnapshot, len(sh.entries))
		err := pass.buildShard(ctx, sh, br, &st, snaps)
		mu.Lock()
		defer mu.Unlock()
		bs.add(st)
		if next != nil {
			for j, snap := range snaps {
				if snap != nil {
					next.snaps[sh.entries[j].path] = snap
				}
			}
		}
		return err
	})
	bs.Elapsed = time.Since(start)
	return bs, err
}

// snapshotPass is what every shard of one build pass reads and none
// writes: the analyzer keys and prototypes, the caller's held sidecars
// and footers, whether each footer must be held (for a view), and the
// compiled zero query.
type snapshotPass struct {
	keys   []string
	protos []classify.Analyzer
	held   map[string]*PartitionSnapshot
	feet   map[string]*partition
	hold   bool
	zero   *compiledQuery
}

// buildShard brings one shard's sidecars up to date in partition order,
// on its own classifier chain, trust walk and encode scratch, counting
// into st and recording each partition's up-to-date sidecar in snaps
// (index-aligned with sh.entries; nil from the partition that failed
// on) and its footer in sh.entries. Every partition's locals are
// snapshotted — their id-state resolved — before the next one is
// scanned, so br may be reused or recycled as soon as it returns.
func (ps *snapshotPass) buildShard(ctx context.Context, sh Shard, br *blockReader, st *SnapshotBuildStats, snaps []*PartitionSnapshot) error {
	cc := classChain{cl: classify.New(), restores: &st.Restores}
	var walk trustWalk
	var enc, codes []byte // state and result-code encoding scratch
	for i, entry := range sh.entries {
		if err := ctx.Err(); err != nil {
			return err
		}
		st.Partitions++
		err := walk.next(entry.path)
		if err != nil {
			return err
		}
		if foot := ps.feet[entry.path]; foot.sameFile(walk.fi) {
			entry.foot = foot
		}
		old := ps.held[entry.path]
		if !walk.trusts(old, ps.keys) {
			// Missing or corrupt reads as nil → rebuild.
			if old, err = ReadSnapshot(entry.path); err == nil {
				st.SidecarsRead++
			}
		}
		if walk.trusts(old, ps.keys) {
			cc.at(entry.path, old)
			st.Reused++
			snaps[i] = old
			if ps.hold && entry.foot == nil {
				if entry.foot, err = parseFooter(entry.path); err != nil {
					return err
				}
			}
			sh.entries[i].foot = entry.foot
			continue
		}

		if err := cc.settle(); err != nil {
			return err
		}
		locals := classify.FreshAll(ps.protos)
		run := newBatchRunner(cc.cl, locals, TimeRange{})
		snap := &PartitionSnapshot{Partition: filepath.Base(entry.path), Size: walk.fi.Size(), Chain: walk.chain}
		first := true
		codes = codes[:0]
		p, f, err := readPartition(entry.path, entry.foot)
		if err != nil {
			return err
		}
		_, err = br.scanBlocks(ctx, p, f, ps.zero, nil, run.proj, func(b *classify.Batch, sel []int32, _ int) bool {
			results := run.observe(b, sel)
			for _, si := range sel {
				codes = append(codes, classify.EncodeResult(results[si], b.Withdraw.Get(int(si))))
				t := b.Times[si]
				if first {
					snap.Collector = b.Dict.Collectors[b.Collector[si]]
					snap.TMin, snap.TMax = t, t
					first = false
					continue
				}
				if t < snap.TMin {
					snap.TMin = t
				}
				if t > snap.TMax {
					snap.TMax = t
				}
			}
			return true
		})
		f.Close()
		if err != nil {
			return err
		}
		sh.entries[i].foot = p
		snap.Events = len(codes)
		st.Events += snap.Events
		// Encode into one reused buffer and keep exact-size copies: the
		// caller may hold the snapshot for as long as it serves the
		// store, and append-grown capacity would ride along.
		enc = cc.cl.Snapshot(enc[:0])
		snap.Classifier = bytes.Clone(enc)
		snap.Results = bytes.Clone(codes)
		snap.States = make(map[string][]byte, len(ps.keys))
		for j, a := range locals {
			enc = a.Snapshot(enc[:0])
			snap.States[ps.keys[j]] = bytes.Clone(enc)
		}
		if walk.trusts(old, nil) {
			// Carry forward states for keys other registries built:
			// the partition AND its predecessor chain are unchanged,
			// so they are still valid. (A stale chain invalidates
			// them — classification depended on the old chain.)
			for key, state := range old.States {
				if _, ours := snap.States[key]; !ours {
					snap.States[key] = state
				}
			}
		}
		if err := WriteSnapshot(entry.path, snap); err != nil {
			return err
		}
		st.Built++
		snaps[i] = snap
	}
	return nil
}
