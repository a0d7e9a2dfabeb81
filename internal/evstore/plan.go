package evstore

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/classify"
)

// The residual-scan planner decides, per partition of each shard, how
// a windowed query is answered:
//
//   - merge: the window covers every event and a sidecar holds all
//     requested analyzer states → merge the precomputed accumulators
//     and note the sidecar as the classifier chain's position. No
//     decode.
//   - jump: every event precedes the window → only the classifier
//     end state matters; note the sidecar that records it. No decode.
//   - scan: the window cuts through the partition (or no usable
//     sidecar exists) → decode and classify it, tallying in-window
//     events. This is the residual scan.
//   - skip: the partition provably cannot influence the answer — it
//     belongs to an excluded collector, or sits entirely at/after the
//     window end in the shard's tail (later events feed no tallied
//     classification).
//
// The classifier chain is lazy (classChain): Classifier.Restore
// replaces the whole state, so of a run of jumps and merges only the
// last one's recorded end state can ever be read, and only if a
// partition is decoded after it. Walking a shard therefore costs at
// most one restore per decoded partition; a reused sidecar costs a
// pointer.
//
// Executing the plan in shard order with classifier chaining yields
// results bit-identical to RunAll over a full sequential scan with the
// same tally window — pinned by TestSnapshotQueryMatchesScanParallel
// across window positions, partition layouts, and snapshot coverage.

// planAction is the per-partition decision.
type planAction uint8

const (
	actionScan planAction = iota
	actionMerge
	actionJump
	actionSkip
)

// PlanStats counts the planner's decisions for one query.
type PlanStats struct {
	Shards     int
	Partitions int
	Merged     int // answered from sidecar states
	Jumped     int // classifier restore only
	Scanned    int // residual decode+classify
	Skipped    int // provably irrelevant
}

// ServeStats describes one planned query execution.
type ServeStats struct {
	Workers int
	Plan    PlanStats
	// Scan aggregates the residual scans' pushdown accounting.
	Scan ScanStats
	// Merges counts analyzer-state merges from sidecars.
	Merges int
	// Restores counts classifier end states decoded from sidecars: at
	// most one per scanned partition, none for an all-merge answer.
	Restores int
	Elapsed  time.Duration
}

// classChain is one shard's classifier chain, walked lazily. at notes
// the most recent trusted sidecar whose end state the chain has reached
// without decoding it; settle applies that state to the live
// classifier, and is called only immediately before a partition is
// decoded. After a decode the live classifier is authoritative until
// the next at.
type classChain struct {
	cl       *classify.Classifier
	restores *int               // counts settle's restores
	pending  *PartitionSnapshot // end state not yet restored into cl
	from     string             // partition path pending was recorded for
}

// at moves the chain to the end of the partition snap describes.
func (c *classChain) at(partPath string, snap *PartitionSnapshot) {
	c.pending, c.from = snap, partPath
}

// settle brings the live classifier to the chain's position. A blob
// that fails to decode is reported against the sidecar it came from.
func (c *classChain) settle() error {
	if c.pending == nil {
		return nil
	}
	if err := c.cl.Restore(c.pending.Classifier); err != nil {
		return fmt.Errorf("%s: %w", SnapshotPath(c.from), err)
	}
	c.pending = nil
	*c.restores++
	return nil
}

// shardPlan is one shard's partition list with per-partition actions.
type shardPlan struct {
	shard   Shard
	actions []planAction
	snaps   []*PartitionSnapshot // non-nil where actions use a sidecar
}

// SnapshotIndex is the in-memory sidecar inventory a serving process
// keeps warm: which partitions exist, and for each, its parsed
// snapshot (when valid). Refresh brings it up to date after new
// partitions seal; Query plans and executes a windowed analysis
// against it. All methods are safe for concurrent use.
type SnapshotIndex struct {
	dir   string
	named []NamedAnalyzer

	// refreshMu serializes Refresh: concurrent passes would race on the
	// sidecar temp files and could publish an older view over a newer.
	refreshMu sync.Mutex

	mu       sync.RWMutex
	manifest Manifest
	snaps    map[string]*PartitionSnapshot
}

// OpenSnapshotIndex builds any missing sidecars for the named
// analyzers and loads the index.
func OpenSnapshotIndex(ctx context.Context, dir string, named []NamedAnalyzer) (*SnapshotIndex, SnapshotBuildStats, error) {
	ix := &SnapshotIndex{dir: dir, named: named, snaps: make(map[string]*PartitionSnapshot)}
	bs, err := ix.Refresh(ctx)
	if err != nil {
		return nil, bs, err
	}
	return ix, bs, nil
}

// Dir returns the store directory the index serves.
func (ix *SnapshotIndex) Dir() string { return ix.dir }

// Named returns the registered analyzer set.
func (ix *SnapshotIndex) Named() []NamedAnalyzer { return ix.named }

// Coverage reports how many sealed partitions the index knows and how
// many carry a usable sidecar.
func (ix *SnapshotIndex) Coverage() (partitions, snapshotted int) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.manifest.Partitions), len(ix.snaps)
}

// Manifest returns the partition inventory the index currently
// reflects — the baseline to Watch from.
func (ix *SnapshotIndex) Manifest() Manifest {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.manifest
}

// Refresh brings the index up to date after new partitions seal, as a
// delta against what it already holds: a partition whose sidecar is in
// memory and still matches (path, size, chain) costs one stat and a
// pointer — it is neither re-read nor decompressed nor restored — a
// sidecar this pass builds is kept rather than read back, and only
// partitions the index has never seen touch their sidecar files. Safe
// to call concurrently with Query (queries in flight keep using the
// previous view until the swap) and with itself (refreshes run one at a
// time).
func (ix *SnapshotIndex) Refresh(ctx context.Context) (SnapshotBuildStats, error) {
	ix.refreshMu.Lock()
	defer ix.refreshMu.Unlock()
	ix.mu.RLock()
	held := ix.snaps
	ix.mu.RUnlock()
	current := make(map[string]*PartitionSnapshot, len(held))
	bs, err := buildSnapshots(ctx, ix.dir, ix.named, held, current)
	if err != nil {
		return bs, err
	}
	m, err := LoadManifest(ix.dir)
	if err != nil {
		return bs, err
	}
	snaps := make(map[string]*PartitionSnapshot, len(m.Partitions))
	for _, p := range m.Partitions {
		// A partition sealed or replaced since the build pass listed the
		// store has no matching entry: queries scan it until the next
		// refresh.
		if snap := current[p.Path]; snap != nil && snap.Size == p.Size {
			snaps[p.Path] = snap
		}
	}
	ix.mu.Lock()
	ix.manifest = m
	ix.snaps = snaps
	ix.mu.Unlock()
	return bs, nil
}

// plan computes the per-shard actions for a window+collectors query.
func (ix *SnapshotIndex) plan(q Query, keys []string) ([]shardPlan, PlanStats, error) {
	shards, err := ScanShards(ix.dir, Query{Collectors: q.Collectors})
	if err != nil {
		return nil, PlanStats{}, err
	}
	cq := compileQuery(q) // window bounds for the plan decisions only

	ix.mu.RLock()
	snaps := ix.snaps
	ix.mu.RUnlock()

	var plans []shardPlan
	var st PlanStats
	for _, sh := range shards {
		if cq.sanitized != nil && sh.Collector != "" && !cq.sanitized[sh.Collector] {
			continue // whole shard excluded by collector
		}
		sp := shardPlan{
			shard:   sh,
			actions: make([]planAction, len(sh.entries)),
			snaps:   make([]*PartitionSnapshot, len(sh.entries)),
		}
		// A sidecar is trustworthy only if it matches the partition file
		// AND was built against this exact predecessor chain — a
		// backfilled earlier day invalidates every later sidecar in the
		// shard (their states embed classification against the old
		// chain).
		usable := make([]*PartitionSnapshot, len(sh.entries))
		chain := uint64(0)
		for i, e := range sh.entries {
			size, ok := partitionSize(e.path)
			if !ok {
				break // listing/stat raced a rebuild; scan from here on
			}
			chain = chainHash(chain, filepath.Base(e.path), size)
			if snap := snaps[e.path]; snap != nil && snap.Size == size && snap.Chain == chain {
				usable[i] = snap
			}
		}
		// Tail partitions entirely at/after the window end cannot
		// influence any tallied classification (classifier state only
		// flows forward); skip the longest provable suffix. Earlier
		// out-of-order partitions must still be scanned.
		afterStart := len(sh.entries)
		for i := len(sh.entries) - 1; i >= 0; i-- {
			e := sh.entries[i]
			if snap := usable[i]; snap != nil && snap.Events > 0 {
				if snap.TMin >= cq.toNano {
					afterStart = i
					continue
				}
			} else if e.parsed && e.dayUnix*int64(time.Second) >= cq.toNano {
				// No trustworthy sidecar: the filename day is still a
				// hard lower bound on every event time in the partition.
				afterStart = i
				continue
			}
			break
		}
		for i := range sh.entries {
			if i >= afterStart {
				sp.actions[i] = actionSkip
				st.Skipped++
				continue
			}
			snap := usable[i]
			if snap == nil {
				sp.actions[i] = actionScan
				st.Scanned++
				continue
			}
			sp.snaps[i] = snap
			switch {
			case snap.Events == 0 || snap.TMax < cq.fromNano:
				sp.actions[i] = actionJump
				st.Jumped++
			case cq.collectors != nil && !cq.collectors[snap.Collector]:
				// Sanitized-name collision: this partition's raw collector
				// is excluded, so neither its events nor its classifier
				// delta matter to the queried sessions.
				sp.actions[i] = actionSkip
				st.Skipped++
			case snap.TMin >= cq.fromNano && snap.TMax < cq.toNano && snapshotCovers(snap, snap.Size, keys):
				// Merging additionally needs every requested analyzer's
				// state in the sidecar; jump/skip above do not — a query
				// for an unregistered analyzer still jumps its prelude.
				sp.actions[i] = actionMerge
				st.Merged++
			default:
				sp.actions[i] = actionScan
				st.Scanned++
			}
		}
		st.Partitions += len(sh.entries)
		plans = append(plans, sp)
	}
	st.Shards = len(plans)
	return plans, st, nil
}

// partitionSize re-stats the partition — cheap insurance against a
// store rebuilt between index refreshes.
func partitionSize(path string) (int64, bool) {
	fi, err := os.Stat(path)
	if err != nil {
		return 0, false
	}
	return fi.Size(), true
}

// Query answers a windowed analysis from the index: merged sidecar
// states where the window covers whole partitions, a lazy classifier
// chain over the prelude (one restore, of the last sidecar before a
// scan, and none when nothing is scanned), and residual scans only
// where the window cuts through — shard-parallel on a worker pool,
// merging into the passed analyzers. Each analyzer is merged/restored
// under its NamedAnalyzer key; an analyzer with an empty key (or one
// absent from a partition's sidecar) forces that partition onto the
// residual-scan path, which is always correct, just slower.
//
// Only Window and Collectors query dimensions are supported here —
// per-event filters (PeerAS, PrefixRange) change which events feed
// WHOLE sessions and compose fine with scans but not with precomputed
// partition states; callers route such queries to ScanParallel.
//
// Results are bit-identical to
// ScanParallel(ctx, dir, Query{Collectors: q.Collectors},
// q.Window.Contains, ...) — a cold scan of the full collector
// timelines tallying the same window.
func (ix *SnapshotIndex) Query(ctx context.Context, q Query, workers int, named ...NamedAnalyzer) (ServeStats, error) {
	if len(q.PeerAS) > 0 || q.PrefixRange.IsValid() {
		return ServeStats{}, fmt.Errorf("evstore: snapshot queries support only window and collector dimensions; use ScanParallel")
	}
	keys := make([]string, len(named))
	protos := make([]classify.Analyzer, len(named))
	for i, na := range named {
		keys[i] = na.Key
		protos[i] = na.Proto
	}
	plans, pst, err := ix.plan(q, keys)
	if err != nil {
		return ServeStats{}, err
	}
	if workers <= 0 {
		workers = len(plans)
	}
	if workers > len(plans) {
		workers = len(plans)
	}
	if workers < 1 {
		workers = 1
	}
	ss := ServeStats{Workers: workers, Plan: pst}
	start := time.Now()

	jobs := make(chan int)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	var failed atomic.Bool
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var br blockReader
			// Safe to recycle at worker exit: every plan's locals were
			// resolved into the protos under the merge lock.
			defer br.release()
			for idx := range jobs {
				if failed.Load() {
					continue
				}
				sp := plans[idx]
				locals := classify.FreshAll(protos)
				var shard ServeStats
				err := sp.run(ctx, &br, locals, keys, protos, q.Window, &shard)
				mu.Lock()
				if err != nil {
					failed.Store(true)
					if firstErr == nil {
						firstErr = err
					}
				} else {
					classify.MergeAll(protos, locals)
					ss.Scan.Add(shard.Scan)
					ss.Merges += shard.Merges
					ss.Restores += shard.Restores
				}
				mu.Unlock()
			}
		}()
	}
	for i := range plans {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	ss.Elapsed = time.Since(start)
	return ss, firstErr
}

// run executes one shard's plan in partition order on a fresh
// classifier, adding its scan, merge and restore counts to st. Jumps
// and merges only move the lazy classifier chain; it is settled — one
// Restore, of the last sidecar passed — immediately before each
// residual scan, so a shard costs at most one restore per scanned
// partition and the common all-merge query never touches classifier
// bytes at all, which is what makes warm windowed answers
// microsecond-scale.
func (sp shardPlan) run(ctx context.Context, br *blockReader, locals []classify.Analyzer, keys []string, protos []classify.Analyzer, tally TimeRange, st *ServeStats) error {
	chain := classChain{cl: classify.New(), restores: &st.Restores}
	run := newBatchRunner(chain.cl, locals, tally)
	for i, entry := range sp.shard.entries {
		if err := ctx.Err(); err != nil {
			return err
		}
		switch sp.actions[i] {
		case actionSkip:
			continue
		case actionJump:
			chain.at(entry.path, sp.snaps[i])
		case actionMerge:
			snap := sp.snaps[i]
			for j, key := range keys {
				tmp := protos[j].Fresh()
				if err := tmp.Restore(snap.States[key]); err != nil {
					return fmt.Errorf("%s[%s]: %w", SnapshotPath(entry.path), key, err)
				}
				locals[j].Merge(tmp)
				st.Merges++
			}
			chain.at(entry.path, snap)
		case actionScan:
			if err := chain.settle(); err != nil {
				return err
			}
			var part ScanStats
			_, err := scanPartitionBatch(ctx, entry.path, sp.shard.cq, br, &part, run.proj, func(b *classify.Batch, sel []int32) bool {
				run.observe(b, sel)
				return true
			})
			st.Scan.Add(part)
			if err != nil {
				return err
			}
		}
	}
	return nil
}
