package evstore

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/classify"
)

// Every analysis over a store runs through one planner and one executor
// (planShards, execute). Per partition of each collector's shard, in
// shard order, the planner decides how a run tallying a time window is
// answered:
//
//   - merge: the window covers every event and a trusted sidecar holds
//     all requested analyzer states → Restore each precomputed state
//     straight into the shard's accumulator (Restore folds, see
//     classify.Analyzer) and note the sidecar as the classifier chain's
//     position. No decode.
//   - jump: every event precedes the window → nothing to tally; note
//     the sidecar, whose classifier end state a later classify may
//     need. No decode.
//   - scan: the window cuts through the partition, a sidecar lacks a
//     requested state, or no trusted sidecar exists → decode it and
//     tally its in-window events. Which of two ways is decided by what
//     the run can observe, never by an option:
//     replay, when the partition has a trusted sidecar: its Results
//     column already holds every event's classification, fixed by the
//     partition's place in the chain. Only the columns the analyzers
//     read are decoded, only the blocks the window reaches, no
//     classifier runs, and the chain is noted at the sidecar.
//     classify, when it has none (a cold run, a partition sealed since
//     the last refresh, a query with per-event filters, which trusts
//     no sidecar): the classifier chain is settled and every event of
//     the partition runs through it, in-window or not.
//   - skip: the partition provably cannot influence the answer — it
//     belongs to an excluded collector, or sits entirely at/after the
//     window end in the shard's tail (later events feed no tallied
//     classification). This suffix rule is the only way a run stops
//     early. Walking the shard backwards from its last partition, each
//     one must offer a hard lower bound on its event times that is
//     at/after the window end: its trusted sidecar's earliest event,
//     else the day in its file name, else the earliest event its footer
//     records (held by the index, or read). The walk stops at the first
//     partition none of them clears, so the rule is decided per
//     partition in shard order, never by event timestamp, and an
//     out-of-order store is still classified exactly as a full
//     sequential pass classifies it.
//
// A cold run (ScanParallel, ScanAnalyze, a SnapshotIndex.Query with
// per-event filters) is the plan in which no sidecar is trusted: every
// partition scans or is skipped, the skips by file-name day where the
// window ends on a day boundary and by footer where it ends inside a
// day. A sequential run is the same plan on one worker. A warm run
// (SnapshotIndex.Query) trusts the index's sidecars.
//
// The planner lists nothing: it plans over the shards it is handed.
// ScanParallel and ScanAnalyze list the store directory for their run
// and parse each footer as they open its partition; a SnapshotIndex
// lists it once per Refresh and holds every partition's parsed footer,
// and every query — warm, or filtered and so cold — plans from the view
// that Refresh swapped in, so a partition sealed since is planned from
// the next Refresh on. The tail rule and partition pruning read the held
// footers; a partition is opened only to read blocks, and one whose
// fstat no longer matches its held footer is parsed afresh. The trust
// walk stats every partition of a warm query's shard and recomputes its
// chain, so a partition replaced since the Refresh loses its sidecar's
// trust (and so does every later one of its shard), and one removed
// since fails the run by name when it is opened; a replay checks the
// footer's event count against the sidecar's Results.
//
// The classifier chain is lazy (classChain): Classifier.Restore
// replaces the whole state, so of a run of jumps, merges and replays
// only the last one's recorded end state can ever be read, and only if
// a partition is classified after it. Walking a shard therefore costs
// one restore per classified partition that follows a sidecar — at most
// one per decoded partition with no trusted sidecar, none at all on a
// fully snapshotted store — and a reused sidecar costs a pointer.
//
// Executing a plan in shard order with classifier chaining yields
// results bit-identical to RunAll over a full sequential Scan with the
// same tally window — pinned by TestBatchPathMatchesRowPath for cold
// runs and TestSnapshotQueryMatchesScanParallel across window
// positions, partition layouts, and snapshot coverage for warm ones.
//
// One worker pool (forEachShard) runs every per-shard pass over a store,
// and it has three callers: execute, the sidecar build pass
// (buildSnapshots, behind BuildSnapshots, OpenSnapshotIndex and
// SnapshotIndex.Refresh) and Recode. Each drains the shards on GOMAXPROCS
// workers (execute: on as many as its caller asks for). That is sound for
// the reason the shards exist: a session never spans two collectors, so
// a shard's classifier chain — and the sidecar chain fingerprinted from
// it — depends on no other shard.

// planAction is the per-partition decision.
type planAction uint8

const (
	actionScan planAction = iota
	actionMerge
	actionJump
	actionSkip
)

// PlanStats counts the planner's decisions for one run.
type PlanStats struct {
	Shards     int
	Partitions int
	Merged     int // answered from sidecar states
	Jumped     int // before the window: chain position only
	Scanned    int // residual decode: replayed or classified
	Skipped    int // provably irrelevant
}

// Add accumulates another run's decisions, every field summed — runs
// over disjoint shards (a coordinator's fan-out) add up to one plan.
func (p *PlanStats) Add(o PlanStats) {
	p.Shards += o.Shards
	p.Partitions += o.Partitions
	p.Merged += o.Merged
	p.Jumped += o.Jumped
	p.Scanned += o.Scanned
	p.Skipped += o.Skipped
}

// ServeStats describes one SnapshotIndex.Query execution.
type ServeStats struct {
	Workers int
	Plan    PlanStats
	// Scan aggregates the scanned partitions' pushdown accounting. Its
	// Events are those handed on: every event of a classified partition,
	// only the in-window ones of a replayed partition.
	Scan ScanStats
	// Merges counts analyzer states restored from sidecars into the
	// shard accumulators: one per merged partition and analyzer.
	Merges int
	// Restores counts classifier end states decoded from sidecars: one
	// per classified partition that follows a jump, merge or replay, so
	// none when every scanned partition has a trusted sidecar.
	Restores int
	// Replayed counts scanned partitions answered from their sidecar's
	// result codes instead of a classifier.
	Replayed int
	Elapsed  time.Duration
	// Generation is the Fingerprint of the manifest the query planned
	// from — the index's view at the query's start, not at its end.
	Generation uint64
}

// classChain is one shard's classifier chain, walked lazily. at notes
// the most recent trusted sidecar whose end state the chain has reached
// without classifying it; settle applies that state to the live
// classifier, and is called only immediately before a partition is
// classified. After that the live classifier is authoritative until
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
	snaps   []*PartitionSnapshot // the trusted sidecar per partition, or nil
	// replay is the shard's query narrowed to the tally window: what a
	// replayed partition selects blocks and rows with, since events
	// outside the window have no classifier to warm.
	replay *compiledQuery
}

// SnapshotIndex is the in-memory picture of a store a serving process
// keeps warm: the partition listing — as a Manifest and as per-collector
// shards of parsed names and footers, in shard order — and each
// partition's parsed sidecar, when valid. Refresh lists the store
// directory once and swaps them in together as one immutable view;
// Query plans from the view it finds, so a query lists nothing and
// parses no held footer. All methods are safe for concurrent use.
type SnapshotIndex struct {
	dir   string
	named []NamedAnalyzer

	// refreshMu serializes Refresh: concurrent passes would race on the
	// sidecar temp files and could publish an older view over a newer.
	refreshMu sync.Mutex

	mu   sync.RWMutex
	view *indexView
}

// indexView is one Refresh's picture of the store, derived from one
// directory listing and never modified after the swap: a query that
// took it plans from it to the end, sharing its footers and sidecars
// read-only, while later refreshes swap in others.
type indexView struct {
	manifest Manifest
	gen      uint64  // manifest.Fingerprint()
	shards   []Shard // the listing grouped per collector, in shard order, with footers
	snaps    map[string]*PartitionSnapshot
}

// OpenSnapshotIndex builds any missing sidecars for the named
// analyzers and loads the index.
func OpenSnapshotIndex(ctx context.Context, dir string, named []NamedAnalyzer) (*SnapshotIndex, SnapshotBuildStats, error) {
	ix := &SnapshotIndex{dir: dir, named: named}
	bs, err := ix.Refresh(ctx)
	if err != nil {
		return nil, bs, err
	}
	return ix, bs, nil
}

// Dir returns the store directory the index serves.
func (ix *SnapshotIndex) Dir() string { return ix.dir }

// current returns the view the last Refresh swapped in (nil before the
// first one completes).
func (ix *SnapshotIndex) current() *indexView {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.view
}

// Coverage reports how many sealed partitions the index knows and how
// many carry a usable sidecar.
func (ix *SnapshotIndex) Coverage() (partitions, snapshotted int) {
	v := ix.current()
	return len(v.manifest.Partitions), len(v.snaps)
}

// Manifest returns the partition inventory the index currently
// reflects — the baseline to Watch from.
func (ix *SnapshotIndex) Manifest() Manifest { return ix.current().manifest }

// Generation returns the Fingerprint of the index's current manifest:
// the store version a query planned now answers for.
func (ix *SnapshotIndex) Generation() uint64 { return ix.current().gen }

// Refresh brings the index up to date after new partitions seal. It
// lists the store directory once, and from that one listing derives the
// manifest, the shards queries plan from with their footers, and the
// sidecars they may trust, swapped in together as the next view. Both
// are a delta against what the index already holds: a partition whose
// sidecar is in memory and still matches (path, size, chain) costs one
// stat and a pointer — it is neither re-read nor decompressed nor
// restored — and its footer too, if the stat shows its file unchanged;
// a sidecar this pass builds is kept rather than read back, with the
// footer its decode parsed. Only partitions with neither touch their
// sidecar files or parse their footers. The
// build pass drains the shards on every core (see BuildSnapshots), so a
// backfilled day — which invalidates every later sidecar of each
// collector it touches — is rebuilt on every core while queries are
// served.
//
// A query answers for the view it planned from: the store as of the
// last Refresh, whose manifest fingerprint ServeStats.Generation
// reports. A partition sealed after that Refresh is not planned until
// the next one lists it (commservd -watch refreshes on every seal it
// polls), so a warm answer and the generation it is stamped with always
// describe the same partitions. Safe to call concurrently with Query
// (queries in flight keep using the previous view until the swap; no
// sidecar or footer the index holds is ever mutated) and with itself
// (refreshes run one at a time).
func (ix *SnapshotIndex) Refresh(ctx context.Context) (SnapshotBuildStats, error) {
	ix.refreshMu.Lock()
	defer ix.refreshMu.Unlock()
	shards, err := ScanShards(ix.dir, Query{})
	if err != nil && !errors.Is(err, ErrNoPartitions) {
		return SnapshotBuildStats{}, err
	}
	prev := ix.current()
	v := &indexView{shards: shards, snaps: make(map[string]*PartitionSnapshot)}
	var bs SnapshotBuildStats
	if len(shards) > 0 { // an empty store has nothing to snapshot yet
		if bs, err = buildSnapshots(ctx, shards, ix.named, prev, v); err != nil {
			return bs, err
		}
	}
	// A pass that succeeds leaves every listed partition a sidecar built
	// or trusted at the size its trust walk stat'ed, so the manifest
	// reads its sizes off them: the view's three parts describe one
	// listing and one stat of each partition.
	v.manifest = Manifest{Dir: ix.dir, Partitions: make([]PartitionRef, 0, len(v.snaps))}
	for _, sh := range shards {
		for _, e := range sh.entries {
			v.manifest.Partitions = append(v.manifest.Partitions, PartitionRef{Path: e.path, Size: v.snaps[e.path].Size})
		}
	}
	v.gen = v.manifest.Fingerprint()
	ix.mu.Lock()
	ix.view = v
	ix.mu.Unlock()
	return bs, nil
}

// planShards computes the per-shard actions of one run over shards (a
// cold run's listing, or an index view's; shards are not modified, each
// plan's copy of its shard carries the run's compiled scan query). scan
// selects the events that exist for the run at all (its Window removes
// events outright, the ScanParallel convention); tally gates which
// classified events reach the analyzers and is what the decisions above
// are taken against. snaps holds the sidecars the caller may trust (nil
// for a cold run: no sidecar is stat'ed, only the tail rule's footers
// are read, and every non-skipped partition scans); keys are the
// analyzer states a merge needs.
func planShards(shards []Shard, scan Query, tally TimeRange, snaps map[string]*PartitionSnapshot, keys []string) ([]shardPlan, PlanStats) {
	cq := compileQuery(scan)
	fromNano, toNano := tally.nanos()
	var replay *compiledQuery
	if snaps != nil {
		rq := scan
		rq.Window = tally
		replay = compileQuery(rq)
	}

	var plans []shardPlan
	var st PlanStats
	for _, sh := range shards {
		sh.cq = cq
		if cq.sanitized != nil && sh.Collector != "" && !cq.sanitized[sh.Collector] {
			continue // whole shard excluded by collector
		}
		sp := shardPlan{
			shard:   sh,
			actions: make([]planAction, len(sh.entries)),
			snaps:   make([]*PartitionSnapshot, len(sh.entries)),
			replay:  replay,
		}
		if snaps != nil {
			var walk trustWalk
			for i, e := range sh.entries {
				if walk.next(e.path) != nil {
					break // listing/stat raced a rebuild; scan from here on
				}
				if snap := snaps[e.path]; walk.trusts(snap, nil) {
					sp.snaps[i] = snap
				}
			}
		}
		// Tail partitions entirely at/after the window end cannot
		// influence any tallied classification (classifier state only
		// flows forward); skip the longest provable suffix. Earlier
		// out-of-order partitions must still be scanned.
		afterStart := len(sh.entries)
		for i := len(sh.entries) - 1; i >= 0; i-- {
			e := sh.entries[i]
			if snap := sp.snaps[i]; snap != nil && snap.Events > 0 {
				if snap.TMin >= toNano {
					afterStart = i
					continue
				}
			} else if e.parsed && e.dayUnix*int64(time.Second) >= toNano {
				// No trustworthy sidecar: the filename day is still a
				// hard lower bound on every event time in the partition.
				afterStart = i
				continue
			} else if toNano != math.MaxInt64 && footerTMin(e) >= toNano {
				// Nor does the day settle it, but the footer's earliest
				// event time — the bound matchSummary prunes by — does; a
				// cold run reads the footer of each partition skipped this
				// way, and of the one that ends the walk.
				afterStart = i
				continue
			}
			break
		}
		for i := range sh.entries {
			snap := sp.snaps[i]
			switch {
			case i >= afterStart:
				sp.actions[i] = actionSkip
				st.Skipped++
			case snap == nil:
				sp.actions[i] = actionScan
				st.Scanned++
			case snap.Events == 0 || snap.TMax < fromNano:
				sp.actions[i] = actionJump
				st.Jumped++
			case cq.collectors != nil && !cq.collectors[snap.Collector]:
				// Sanitized-name collision: this partition's raw collector
				// is excluded, so neither its events nor its classifier
				// delta matter to the queried sessions.
				sp.actions[i] = actionSkip
				st.Skipped++
			case snap.TMin >= fromNano && snap.TMax < toNano && snapshotCovers(snap, snap.Size, keys):
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
	return plans, st
}

// footerTMin returns the earliest event time e's held (else read) footer
// records, or math.MinInt64 — no lower bound at all — when the partition
// is empty or cannot be read: the scan that then plans it reports why.
func footerTMin(e storeEntry) int64 {
	p, err := e.foot, error(nil)
	if p == nil {
		p, err = parseFooter(e.path)
	}
	if err != nil || p.agg.count == 0 {
		return math.MinInt64
	}
	return p.agg.tmin
}

// execution is what one plan-and-run reports: the pool's view
// (ParallelStats, which a cold run publishes as is) plus the plan and
// what the warm path took from sidecars.
type execution struct {
	ParallelStats
	Plan PlanStats
	// SidecarMerges counts analyzer states restored from sidecars,
	// Restores classifier end states decoded from them, Replayed
	// partitions answered from their result codes.
	SidecarMerges, Restores, Replayed int
}

// forEachShard is the store's one worker pool: it calls do once for
// every shard index in [0, n) on min(workers, n) goroutines (workers <=
// 0 means GOMAXPROCS) and returns the pool size and the first error. Each
// worker owns one blockReader — block buffers and batch decode scratch
// are reused across every shard it drains, and recycled when it exits,
// so do must leave nothing pointing into them. After the first error no
// shard starts: the workers drain the rest of the queue without calling
// do, and the shards already running finish or fail on their own (on
// ctx's cancellation, at their next block boundary).
func forEachShard(n, workers int, do func(br *blockReader, shard int) error) (int, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(1, min(workers, n))
	jobs := make(chan int)
	var wg sync.WaitGroup
	var mu sync.Mutex // guards firstErr
	var firstErr error
	var failed atomic.Bool
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var br blockReader
			defer br.release()
			for shard := range jobs {
				if failed.Load() {
					continue // an earlier shard failed; drain the queue
				}
				if err := do(&br, shard); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					failed.Store(true)
				}
			}
		}()
	}
	for i := range n {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return workers, firstErr
}

// execute is the store's one analysis executor: it plans the run over
// shards (see planShards) and drains the shard plans on the worker pool
// (forEachShard), a fresh classifier plus Fresh analyzer copies per
// shard; a finished shard merges its accumulators into protos under the
// merge lock. workers <= 0 uses GOMAXPROCS; 1 is a sequential run. The
// first error (ctx's, when cancelled: workers stop at the next block
// boundary) is returned and protos then hold partial state the caller
// must discard.
func execute(ctx context.Context, shards []Shard, scan Query, tally TimeRange, snaps map[string]*PartitionSnapshot, workers int, keys []string, protos []classify.Analyzer) (execution, error) {
	plans, pst := planShards(shards, scan, tally, snaps, keys)
	ex := execution{Plan: pst}
	ex.Shards = make([]ShardStats, len(plans))
	start := time.Now()
	var mu sync.Mutex // serializes merges and their counts
	var err error
	ex.Workers, err = forEachShard(len(plans), workers, func(br *blockReader, idx int) error {
		sp := plans[idx]
		locals := classify.FreshAll(protos)
		var shard ServeStats
		shardStart := time.Now()
		err := sp.run(ctx, br, locals, keys, tally, &shard)
		ex.Shards[idx] = ShardStats{Collector: sp.shard.Collector, Scan: shard.Scan, Elapsed: time.Since(shardStart)}
		if err != nil {
			return err
		}
		// The locals resolve into protos here, so the worker's
		// blockReader may recycle its scratch once it exits.
		mu.Lock()
		defer mu.Unlock()
		mergeStart := time.Now()
		classify.MergeAll(protos, locals)
		ex.MergeElapsed += time.Since(mergeStart)
		ex.Merges += len(protos)
		ex.SidecarMerges += shard.Merges
		ex.Restores += shard.Restores
		ex.Replayed += shard.Replayed
		return nil
	})
	for _, ss := range ex.Shards {
		ex.Total.Add(ss.Scan)
	}
	ex.Elapsed = time.Since(start)
	return ex, err
}

// run executes one shard's plan in partition order on a fresh
// classifier, adding its scan, merge, replay and restore counts to st.
// Jumps, merges and replays only move the lazy classifier chain; it is
// settled — one Restore, of the last sidecar passed — immediately
// before a partition that must be classified, so a shard costs at most
// one restore per scanned partition with no trusted sidecar, and a
// query over a fully snapshotted store never touches classifier bytes
// at all.
func (sp shardPlan) run(ctx context.Context, br *blockReader, locals []classify.Analyzer, keys []string, tally TimeRange, st *ServeStats) error {
	chain := classChain{cl: classify.New(), restores: &st.Restores}
	run := newBatchRunner(chain.cl, locals, tally)
	cq := sp.shard.cq
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
				if err := locals[j].Restore(snap.States[key]); err != nil {
					return fmt.Errorf("%s[%s]: %w", SnapshotPath(entry.path), key, err)
				}
				st.Merges++
			}
			chain.at(entry.path, snap)
		case actionScan:
			st.Scan.Partitions++
			if cq.pruneByName(entry) {
				st.Scan.PartitionsPruned++
				continue
			}
			if snap := sp.snaps[i]; snap != nil {
				if err := sp.replayPartition(ctx, entry, snap, br, run, &st.Scan); err != nil {
					return fmt.Errorf("replaying %s: %w", SnapshotPath(entry.path), err)
				}
				st.Replayed++
				chain.at(entry.path, snap)
				continue
			}
			if err := chain.settle(); err != nil {
				return err
			}
			_, err := scanPartitionBatch(ctx, entry, cq, br, &st.Scan, run.proj, func(b *classify.Batch, sel []int32, _ int) bool {
				run.observe(b, sel)
				return true
			})
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// replayPartition answers one scanned partition from its trusted
// sidecar: the in-window rows of the blocks the window reaches are
// decoded with the analyzers' own projection and fanned out with the
// classifications snap.Results recorded for them. The column is indexed
// by partition-order event position, so it must hold exactly the events
// the footer counts, or the pass fails rather than answer from codes
// that belong to other events. With that, and scanBlocks holding every
// decoded block to its footer count, a block's slice of the column is
// always in range: first is the sum of the counts before it.
func (sp shardPlan) replayPartition(ctx context.Context, e storeEntry, snap *PartitionSnapshot, br *blockReader, run *batchRunner, st *ScanStats) error {
	p, f, err := readPartition(e.path, e.foot)
	if err != nil {
		return err
	}
	defer f.Close()
	if p.agg.count != len(snap.Results) {
		return fmt.Errorf("%d result codes for the %d events of %s", len(snap.Results), p.agg.count, e.path)
	}
	var rerr error
	_, err = br.scanBlocks(ctx, p, f, sp.replay, st, run.replayProj, func(b *classify.Batch, sel []int32, first int) bool {
		rerr = run.replay(b, sel, snap.Results[first:first+b.N])
		return rerr == nil
	})
	if err == nil {
		err = rerr
	}
	return err
}

// Query answers a windowed analysis from the index: merged sidecar
// states where q.Window covers whole partitions, nothing for the
// prelude, and residual scans only where the window cuts through,
// replayed from the sidecar's result codes — one execute run, merging
// into the passed analyzers. It plans from the index's current view and
// lists no directory: the answer reflects the store as of the last
// Refresh, whose manifest fingerprint ServeStats.Generation reports, and
// a partition sealed after that Refresh is not planned until the next
// one; its held footers prune and bound partitions. Every other
// per-partition check still runs per query (see plan.go), so a partition
// replaced since is scanned rather than trusted, and one removed since
// fails the query by name when it is opened.
//
// Each analyzer is merged/restored under its NamedAnalyzer key; an
// analyzer with an empty key (or one absent from a partition's sidecar)
// forces every in-window partition onto the scan path, which is always
// correct, just slower — a replay still, where the sidecar is trusted.
//
// q.Window is the tally window: events outside it still feed classifier
// state wherever a partition is classified. Per-event filters (PeerAS,
// PrefixRange) change which events feed WHOLE sessions, which composes
// with scans but not with precomputed partition states, so a filtered
// query trusts no sidecar and scans every partition the tail rule does
// not skip. Nor may it replay a sidecar's Results column and filter
// afterwards: the classifier keys a stream by (collector, peer address,
// prefix), without the peer AS, so a recorded classification equals
// filter-then-classify only while an address never changes its AS —
// which nothing checks. What a filtered query saves, it saves inside the
// scan: pruning by the held footers, before any open, and a decode that
// materializes selected rows only (decodeBatch).
//
// Results are bit-identical to ScanParallel(ctx, dir, q minus its
// Window, q.Window, ...) over the view's partitions — a cold scan of the
// same collector timelines tallying the same window — and a filtered
// query's ScanStats equal that scan's, field for field.
func (ix *SnapshotIndex) Query(ctx context.Context, q Query, workers int, named ...NamedAnalyzer) (ServeStats, error) {
	v := ix.current()
	if len(v.shards) == 0 {
		return ServeStats{Generation: v.gen}, noPartitionsError(ix.dir)
	}
	keys, protos := splitNamed(named)
	var snaps map[string]*PartitionSnapshot
	if len(q.PeerAS) == 0 && !q.PrefixRange.IsValid() {
		snaps = v.snaps
	}
	scan := q
	scan.Window = TimeRange{}
	ex, err := execute(ctx, v.shards, scan, q.Window, snaps, workers, keys, protos)
	return ServeStats{Workers: ex.Workers, Plan: ex.Plan, Scan: ex.Total, Merges: ex.SidecarMerges,
		Restores: ex.Restores, Replayed: ex.Replayed, Elapsed: ex.Elapsed, Generation: v.gen}, err
}
