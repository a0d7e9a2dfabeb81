// Package evstore is a persistent, append-only, time-partitioned
// columnar store for normalized classify.Event streams — the
// ingest-once / analyze-many layer between producers (workload
// generators, MRT archives) and the stream analyses.
//
// A store is a directory of partition files, one per (collector, day,
// ingest sequence), named "<collector>__<YYYYMMDD>__<seq>.evp". Each
// partition is a header followed by a sequence of independently
// decodable blocks and a footer index. Blocks hold up to
// Writer.BlockEvents events in columnar layout: a chunk directory and
// one chunk per column — zigzag-delta-encoded timestamps; collectors,
// peer ASNs, peer addresses and prefixes, each a per-block dictionary
// with one id per event; the AS-path and community-set dictionaries,
// each with an offset table, and their id columns; the flag bitsets
// and MEDs. Each chunk carries its raw and stored length, its codec —
// raw or the in-repo internal/lz fast byte-LZ (the default;
// Writer.Codec selects, and a chunk lz would shrink by less than 1/16
// is stored raw) — and a CRC32C of its raw bytes, so readers decompress
// and check exactly the chunks they read, a store mixes codecs freely,
// and Recode migrates one in place (atomically, via temp+rename). The
// footer records, per block, its file offset and a summary: event
// count, time min/max, the distinct peer-AS set, the prefix
// network-address range, and a bloom membership filter over the
// prefixes (keyed at every /8 ancestor level, so "/16 contains" queries
// prune blocks, not just exact-prefix lookups) — and ends in a CRC32C
// of its own.
//
// Writer consumes any stream.EventSource in constant memory: events
// are routed to per-(collector, day) partition writers whose only
// state is one pending block, and a collector's partitions are sealed
// eagerly once they fall more than two days behind that collector's
// newest event (about a three-day open window), so multi-day ingests
// hold a bounded set of open partitions regardless of day count.
// Ingesting into an existing store appends new partition files (higher
// seq); it never rewrites sealed ones.
//
// Scan evaluates a Query with predicate pushdown: partitions are
// pruned by file name (collector, day) without being opened, then by
// their footer summary without decoding any block, then block by
// block; only blocks whose summary matches are read and decoded, and
// a final exact Query.Match filter handles summary false positives.
// Within a partition, blocks are taken one at a time, in order, on the
// goroutine scanning it: pruned by summary, or read, its needed chunks
// decompressed, CRC-checked and decoded, and checked against the
// footer's count before the next one is touched (ScanStats.PerCodec
// splits the chunks opened by codec). The only concurrency in a scan is the executor's worker
// pool, one shard per worker.
// The result is a stream.EventSource ordered by (collector, day, seq,
// ingest order), which preserves per-session event order — exactly
// what classification and every *Stream analysis require — so a scan
// plugs into the existing pipeline unchanged.
//
// ScanShards splits the same scan into independent per-collector
// shards (a collector's full timeline stays in one shard, so
// classifier state never crosses a shard boundary). Every analysis
// over those shards — ScanParallel, ScanAnalyze, SnapshotIndex.Query —
// is one run of the planner and executor in plan.go, merging
// classify.Analyzer accumulators into results bit-identical to the
// sequential scan; its header comment is the description of how. The
// executor's worker pool also runs the two other per-shard passes, the
// sidecar build (BuildSnapshots) and Recode.
//
// Analysis-bearing scans (those runs and snapshot builds) execute
// batch-at-a-time rather than event-at-a-time:
// decodeBatch parses each block's column chunks directly into
// classify.Batch column arrays, interning dictionary values into a
// scan-lifetime classify.Dict so each distinct value is decoded once
// per scan rather than once per block, and residual query predicates
// are evaluated over the columns into a selection vector instead of
// per-materialized-event — before any other chunk is opened, so the
// rest are decoded only at the rows the query keeps, and not at all
// when it keeps none. Analyzers implementing
// classify.BatchAnalyzer consume (batch, selection) directly and
// aggregate on dictionary ids; the rest see materialized events via
// the row fallback, with identical results either way. Decode scratch
// (the dict, intern maps, and column arrays) is pooled across scans,
// so warm scans decode in steady state with zero allocations per
// event; a shard's analyzers resolve their dictionary-id-keyed state
// (on Merge or Snapshot) before the scratch is returned to the pool.
package evstore

import (
	"fmt"
	"math"
	"net/netip"
	"time"

	"repro/internal/classify"
)

// Format constants. The partition format is v3: a block is a head and
// one chunk per column (see column), each chunk with its own length,
// codec (raw, lz; id 1 is the retired deflate and is refused by name)
// and CRC32C, and the footer ends in a CRC32C of its own. The retired
// v2 magic ("EVP2", whole-block codecs and no checksums) is refused by
// name; any other — including the all-deflate v1 ("EVP1") — is "bad
// partition magic".
const (
	partitionMagic = "EVP3" // file header
	footerMagic    = "EVF3" // footer and trailer

	// DefaultBlockEvents is the default number of events per block: large
	// enough that dictionaries and delta encoding pay off, small enough
	// that a windowed scan decodes little beyond what it needs.
	DefaultBlockEvents = 4096

	// maxBlockEvents bounds the per-block event count accepted by the
	// decoder, protecting against corrupt or hostile inputs.
	maxBlockEvents = 1 << 21
)

// Extension is the partition file suffix.
const Extension = ".evp"

// TimeRange is a half-open [From, To) event-time window; a zero bound
// is unbounded on that side, matching the counting-window convention.
type TimeRange struct {
	From, To time.Time
}

// Contains reports whether t falls inside the window.
func (r TimeRange) Contains(t time.Time) bool {
	if !r.From.IsZero() && t.Before(r.From) {
		return false
	}
	if !r.To.IsZero() && !t.Before(r.To) {
		return false
	}
	return true
}

// nanos returns the window as unix-nanosecond bounds, inclusive lower
// and exclusive upper, with an unbounded side at the int64 extreme.
func (r TimeRange) nanos() (from, to int64) {
	from, to = math.MinInt64, math.MaxInt64
	if !r.From.IsZero() {
		from = r.From.UnixNano()
	}
	if !r.To.IsZero() {
		to = r.To.UnixNano()
	}
	return from, to
}

// Query selects a subset of a store's events. Zero-valued fields do
// not constrain; the zero Query matches everything.
type Query struct {
	// Window restricts event times to [From, To).
	Window TimeRange
	// Collectors restricts to the named collectors (nil = all).
	Collectors []string
	// PeerAS restricts to events from the given peer ASNs (nil = all).
	PeerAS []uint32
	// PrefixRange restricts to events whose prefix lies within this
	// address block: e.Prefix is a subnet of (or equal to) PrefixRange.
	// The invalid zero Prefix matches all.
	PrefixRange netip.Prefix
}

// Match reports whether one event satisfies the query — the exact
// predicate the summary-based pushdown conservatively approximates.
// stream.Filter(src, q.Match) over the unfiltered stream is the
// reference semantics of Scan(dir, q).
func (q Query) Match(e classify.Event) bool {
	if !q.Window.Contains(e.Time) {
		return false
	}
	if len(q.Collectors) > 0 {
		ok := false
		for _, c := range q.Collectors {
			if c == e.Collector {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	if len(q.PeerAS) > 0 {
		ok := false
		for _, as := range q.PeerAS {
			if as == e.PeerAS {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	if q.PrefixRange.IsValid() {
		if !e.Prefix.IsValid() ||
			e.Prefix.Bits() < q.PrefixRange.Bits() ||
			!q.PrefixRange.Contains(e.Prefix.Addr()) {
			return false
		}
	}
	return true
}

// dayStart truncates t to its UTC day, the partitioning key.
func dayStart(t time.Time) time.Time {
	return t.UTC().Truncate(24 * time.Hour)
}

// FormatEvent renders a store event in the mrt.Format line convention
// with the collector appended (a store interleaves collectors) — the
// line `evstore dump` prints for a store event.
func FormatEvent(e classify.Event) string {
	ts := e.Time.UTC().Format("2006-01-02 15:04:05.000000")
	if e.Withdraw {
		return fmt.Sprintf("%s|W|%v|AS%d|%v|%s", ts, e.Prefix, e.PeerAS, e.PeerAddr, e.Collector)
	}
	return fmt.Sprintf("%s|A|%v|AS%d|%v|%s|%s|%s",
		ts, e.Prefix, e.PeerAS, e.PeerAddr, e.Collector, e.ASPath, e.Communities)
}
