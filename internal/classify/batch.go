package classify

import (
	"math/bits"
	"net/netip"
	"time"

	"repro/internal/bgp"
)

// This file is the vectorized half of the classification engine: the
// columnar Batch an evstore scan hands over instead of materialized
// events, the Projection analyzers use to declare which columns they
// touch, the optional BatchAnalyzer interface, and Classifier.RunBatch,
// the batch-at-a-time classification kernel.
//
// The design is late materialization (Abadi's column-store playbook):
// a Batch carries per-event COLUMN arrays — int64 timestamps, one
// uint32 dictionary id per attribute column, flag bitsets — plus a
// scan-lifetime Dict of decoded values those ids index. Predicates and
// aggregation run over the id columns; a value is only looked up (and
// a classify.Event only built, via Batch.Event) where something
// actually needs it. Dictionary ids are assigned by the decode scratch
// that produced the batch, so they are stable across every batch
// sharing the same *Dict but meaningless outside it: an analyzer that
// aggregates on ids must resolve them to values against b.Dict before
// its state crosses a Merge/Snapshot/Finish boundary (shard-parallel
// scans merge accumulators built from DIFFERENT dicts).

// Projection is a bitmask of event columns. Each BatchAnalyzer declares
// the columns it reads, and the scan engine unions those declarations
// (plus the classifier's and the residual predicate's) into the set of
// columns decodeBatch actually decodes — every column is a chunk of its
// own, and an untouched column's chunk is neither decompressed nor
// read.
type Projection uint16

const (
	ProjCollector Projection = 1 << iota
	ProjPeerAS
	ProjPeerAddr
	ProjPrefix
	ProjPath
	ProjComms
	ProjMED

	// ProjAll selects every column — what materializing Batch.Event
	// requires, and the automatic projection of any row-at-a-time
	// analyzer in the mix.
	ProjAll = ProjCollector | ProjPeerAS | ProjPeerAddr | ProjPrefix | ProjPath | ProjComms | ProjMED
)

// ClassifierProjection is what RunBatch reads: every column except the
// peer AS (classification keys on session = collector + peer address,
// and compares paths, communities, and MED).
const ClassifierProjection = ProjCollector | ProjPeerAddr | ProjPrefix | ProjPath | ProjComms | ProjMED

// Dict holds the decoded dictionary values a batch's id columns index.
// One Dict lives as long as its decode scratch (one scan on one
// worker): tables only ever grow, ids are never reassigned, and the
// values are immutable — so analyzers may cache per-id verdicts and
// retain value references (a path slice, a collector string) beyond
// the batch that introduced them.
type Dict struct {
	Collectors []string
	PeerASNs   []uint32
	PeerAddrs  []netip.Addr
	Prefixes   []netip.Prefix
	Paths      []bgp.ASPath
	CommSets   []bgp.Communities

	// UniqueKeys declares that the Collectors, PeerAddrs, and Prefixes
	// tables are duplicate-free, making ids and values bijective for
	// the stream-identity columns: distinct ids imply distinct values.
	// A decoder that interns those columns by value (the evstore batch
	// decoder does) sets it, and RunBatch may then track streams by id
	// alone, deferring the canonical value-keyed map entirely. Without
	// it, two ids may alias one stream and ids only ever short-circuit
	// equality. Paths and CommSets make no such promise either way.
	UniqueKeys bool
}

// Bitset is one bit per batch event.
type Bitset []byte

// Get reports bit i.
func (b Bitset) Get(i int) bool { return b[i/8]&(1<<(i%8)) != 0 }

// Batch is one decoded block in columnar form. Times, the id columns,
// and the flag bitsets are indexed by event position; id columns hold
// indexes into Dict's tables. Only the columns selected by Cols are
// populated — reading an unprojected column is a programming error
// (its slice is stale scratch or nil). A batch travels with the
// selection vector of the rows its query keeps, and every column but
// Times is defined at those selected rows only: the decoder selects
// before it decodes the columns the predicate does not read, so an
// unselected row's entry there is stale scratch too. The column arrays are scratch owned by the
// decoder and valid only until the next batch is decoded; Dict values
// are stable for the whole scan.
type Batch struct {
	N    int
	Dict *Dict
	Cols Projection

	Times []int64 // unix nanoseconds

	Collector []uint32
	PeerAS    []uint32
	PeerAddr  []uint32
	Prefix    []uint32
	Path      []uint32
	Comms     []uint32

	Withdraw Bitset
	HasMED   Bitset
	MED      []uint32 // zero where HasMED is unset
}

// Event materializes event i — the bridge back to the row-at-a-time
// world for analyzers without a batch implementation. Requires ProjAll
// and a selected row.
// The event's slice fields alias Dict values and must be treated as
// immutable (the same contract as decoded store events).
func (b *Batch) Event(i int) Event {
	d := b.Dict
	return Event{
		Time:        time.Unix(0, b.Times[i]).UTC(),
		Collector:   d.Collectors[b.Collector[i]],
		PeerAS:      d.PeerASNs[b.PeerAS[i]],
		PeerAddr:    d.PeerAddrs[b.PeerAddr[i]],
		Prefix:      d.Prefixes[b.Prefix[i]],
		Withdraw:    b.Withdraw.Get(i),
		ASPath:      d.Paths[b.Path[i]],
		Communities: d.CommSets[b.Comms[i]],
		HasMED:      b.HasMED.Get(i),
		MED:         b.MED[i],
	}
}

// BatchAnalyzer is the optional vectorized face of an Analyzer. The
// scan engine feeds batches to ObserveBatch and never calls Observe on
// an analyzer that implements it; analyzers without it fall back to
// materialized events automatically, and one pass freely mixes both.
//
// Implement BatchAnalyzer when the per-event work is dominated by
// value comparisons or set inserts that dictionary ids can stand in
// for (equality filters, distinct-value sets, per-stream run-length
// shortcuts); keep plain Observe when the analyzer genuinely needs
// most value fields per event anyway — materialization is then the
// cost either way, and a batch implementation only adds a second code
// path to keep correct.
//
// Contract, in addition to the Analyzer contract:
//
//   - Project returns the columns ObserveBatch reads. The engine only
//     guarantees those (plus Times and Withdraw) are decoded.
//   - ObserveBatch observes the selected events of one batch: for each
//     i in sel, results[i] is the classification (zero for
//     withdrawals, like Observe) and the batch columns hold the event.
//     results entries outside sel are stale garbage, and so are the
//     Path and Comms columns there; sel is ascending.
//   - Ids are only comparable against b.Dict. Any id-keyed accumulator
//     state must be resolved to values no later than the next
//     Merge/Snapshot/Finish — and re-resolved if b.Dict changes
//     between calls (a new scan reusing the analyzer).
//   - A batch==row equivalence pin holds engine-wide: ObserveBatch
//     over any block split must leave the analyzer in a state whose
//     Finish equals row-at-a-time Observe of the same events.
type BatchAnalyzer interface {
	Analyzer
	Project() Projection
	ObserveBatch(results []Result, b *Batch, sel []int32)
}

// packStreamID packs a (collector, peerAddr, prefix) dictionary-id
// triple into one integer stream key — the batch path's stand-in for
// streamKey. Ids are 21 bits each; a scan whose dictionaries outgrow
// that (over two million distinct values in one column) reports ok
// false and the caller skips the id cache for that event, falling back
// to the canonical value-keyed map.
func packStreamID(collector, peerAddr, prefix uint32) (id uint64, ok bool) {
	if (collector | peerAddr | prefix) >= 1<<21 {
		return 0, false
	}
	return uint64(collector)<<42 | uint64(peerAddr)<<21 | uint64(prefix), true
}

// streamCache is an insert-only open-addressed table from packed
// stream ids to stream states — the batch path's per-dictionary side
// index into the canonical state map. Entries are never deleted
// (withdrawn streams stay cached with live=false), so probing needs no
// tombstones; reset empties it in place when the dictionary changes.
type streamCache struct {
	keys  []uint64
	vals  []*prevState
	shift uint
	n     int
}

func (sc *streamCache) reset() {
	clear(sc.vals)
	sc.n = 0
}

const streamHashMult = 0x9e3779b97f4a7c15 // 2^64 / golden ratio

func (sc *streamCache) get(key uint64) *prevState {
	if sc.n == 0 {
		return nil
	}
	mask := uint64(len(sc.keys) - 1)
	i := (key * streamHashMult) >> sc.shift
	for {
		v := sc.vals[i]
		if v == nil || sc.keys[i] == key {
			return v
		}
		i = (i + 1) & mask
	}
}

func (sc *streamCache) put(key uint64, st *prevState) {
	if sc.n*4 >= len(sc.keys)*3 {
		sc.grow()
	}
	mask := uint64(len(sc.keys) - 1)
	i := (key * streamHashMult) >> sc.shift
	for {
		if sc.vals[i] == nil {
			sc.keys[i], sc.vals[i] = key, st
			sc.n++
			return
		}
		if sc.keys[i] == key {
			sc.vals[i] = st
			return
		}
		i = (i + 1) & mask
	}
}

// materialize flushes every live cached stream into the canonical
// value-keyed map and ends deferred mode. Pure-batch scans skip the
// canonical map's per-stream hashed insert entirely; anything that
// needs the map — row Observe, Snapshot, a stream id too large to
// pack, a dictionary switch with live streams — pays the flush once.
func (c *Classifier) materialize() {
	c.deferred = false
	for _, st := range c.cache.vals {
		if st != nil && st.live {
			c.state[st.key] = st
		}
	}
}

func (sc *streamCache) grow() {
	// Quadrupling keeps small scans small while a day-scale scan
	// (tens of thousands of streams) pays at most two rehashes.
	size := 2048
	if len(sc.keys) > 0 {
		size = len(sc.keys) * 4
	}
	oldKeys, oldVals := sc.keys, sc.vals
	sc.keys = make([]uint64, size)
	sc.vals = make([]*prevState, size)
	sc.shift = 64 - uint(bits.TrailingZeros(uint(size)))
	sc.n = 0
	for i, v := range oldVals {
		if v != nil {
			sc.put(oldKeys[i], v)
		}
	}
}

// RunBatch classifies the selected events of one batch into results
// (len(results) >= b.N; results[i] is written for each i in sel, the
// zero Result for withdrawals). It is exactly Observe over the same
// events — same state transitions, same results — but keys its stream
// lookups on (collector, peerAddr, prefix) dictionary ids with a side
// cache, and short-circuits path/community comparisons when an event's
// ids match the stream's previous announcement (same id ⇒ same encoded
// bytes ⇒ equal value; different ids still fall back to a value
// comparison, so non-canonical encodings of equal values cannot split
// a stream's classification). The batch must include
// ClassifierProjection columns.
func (c *Classifier) RunBatch(b *Batch, sel []int32, results []Result) {
	if c.dict != b.Dict {
		// New dictionary: every cached id on every stream is stale.
		// Bumping the epoch invalidates them all in O(1); the id cache
		// is rebuilt against the new dict on demand.
		// Flush live cached streams before the id cache is reset: in
		// deferred mode the cache is the only index that can reach
		// them. A first batch (nothing cached yet) stays deferred.
		if c.deferred && c.cache.n > 0 {
			c.materialize()
		}
		c.dict = b.Dict
		c.epoch++
		c.cache.reset()
	}
	dict := b.Dict
	epoch := c.epoch
	if c.deferred && !dict.UniqueKeys {
		// Without the id↔value bijection two ids may alias one stream;
		// only the canonical value-keyed map can resolve that.
		c.materialize()
	}
	for _, si := range sel {
		i := int(si)
		collID, addrID, pfxID := b.Collector[i], b.PeerAddr[i], b.Prefix[i]
		id, cacheable := packStreamID(collID, addrID, pfxID)
		if !cacheable && c.deferred {
			// This stream can only live in the canonical map.
			c.materialize()
		}
		var st *prevState
		if cacheable {
			st = c.cache.get(id)
		}
		if b.Withdraw.Get(i) {
			results[i] = Result{}
			if st == nil || !st.live {
				if c.deferred {
					// The cache is authoritative: the stream is unknown
					// or already withdrawn.
					continue
				}
				// No live cached pointer. The stream may still live in
				// the canonical map under a different *prevState — a
				// row Observe or Restore can re-create a stream the
				// cache knows only by its dead pointer — so deadness
				// here proves nothing and the map decides.
				key := streamKey{
					session: SessionKey{Collector: dict.Collectors[collID], PeerAddr: dict.PeerAddrs[addrID]},
					prefix:  dict.Prefixes[pfxID],
				}
				st = c.state[key]
				if st == nil {
					continue
				}
				if cacheable {
					c.cache.put(id, st)
				}
			}
			st.live = false
			if !c.deferred {
				delete(c.state, st.key)
			}
			continue
		}
		pathID, commsID := b.Path[i], b.Comms[i]
		if st == nil || !st.live {
			var key streamKey
			var canonical *prevState
			if !c.deferred {
				key = streamKey{
					session: SessionKey{Collector: dict.Collectors[collID], PeerAddr: dict.PeerAddrs[addrID]},
					prefix:  dict.Prefixes[pfxID],
				}
				canonical = c.state[key]
			}
			if canonical != nil {
				// Known stream the cache hadn't seen (or whose cached
				// entry died and was re-created row-side): adopt it.
				st = canonical
				if cacheable {
					c.cache.put(id, st)
				}
			} else {
				// First announcement of the stream. A dead cache entry
				// is reusable — same ids under the same dict mean the
				// same stream key.
				if st == nil {
					st = c.newState()
					if c.deferred {
						key = streamKey{
							session: SessionKey{Collector: dict.Collectors[collID], PeerAddr: dict.PeerAddrs[addrID]},
							prefix:  dict.Prefixes[pfxID],
						}
					}
					st.key = key
					if cacheable {
						c.cache.put(id, st)
					}
				}
				if !c.deferred {
					c.state[st.key] = st
				}
				st.live = true
				comms := dict.CommSets[commsID].Canonical()
				st.path, st.comms = dict.Paths[pathID], comms
				st.hasMED, st.med = b.HasMED.Get(i), b.MED[i]
				st.epoch, st.pathID, st.commsID = epoch, pathID, commsID
				res := Result{First: true, Type: PN}
				if len(comms) > 0 {
					res.Type = PC
				}
				results[i] = res
				continue
			}
		}
		idsValid := st.epoch == epoch
		curPath := dict.Paths[pathID]
		var pathChanged bool
		if !(idsValid && st.pathID == pathID) {
			pathChanged = !st.path.Equal(curPath)
		}
		curComms := st.comms
		var commChanged bool
		if !(idsValid && st.commsID == commsID) {
			curComms = dict.CommSets[commsID].Canonical()
			commChanged = !st.comms.Equal(curComms)
		}
		prependOnly := pathChanged && st.path.SameASSet(curPath)
		var t Type
		switch {
		case prependOnly && commChanged:
			t = XC
		case prependOnly:
			t = XN
		case pathChanged && commChanged:
			t = PC
		case pathChanged:
			t = PN
		case commChanged:
			t = NC
		default:
			t = NN
		}
		curHasMED, curMED := b.HasMED.Get(i), b.MED[i]
		results[i] = Result{
			Type:       t,
			MEDChanged: st.hasMED != curHasMED || st.med != curMED,
		}
		st.path, st.comms = curPath, curComms
		st.hasMED, st.med = curHasMED, curMED
		st.epoch, st.pathID, st.commsID = epoch, pathID, commsID
	}
}

// Project declares CountsAnalyzer's columns: none beyond the
// always-present times and withdraw bits.
func (a *CountsAnalyzer) Project() Projection { return 0 }

// ObserveBatch tallies the selected classifications.
func (a *CountsAnalyzer) ObserveBatch(results []Result, b *Batch, sel []int32) {
	for _, si := range sel {
		i := int(si)
		if b.Withdraw.Get(i) {
			a.Counts.Withdrawals++
			continue
		}
		a.Counts.Add(results[i])
	}
}
