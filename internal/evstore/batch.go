package evstore

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"net/netip"
	"os"
	"sync"
	"unsafe"

	"repro/internal/bgp"
	"repro/internal/classify"
	"repro/internal/wire"
)

// This file is the vectorized scan path: decodeBatch parses a block's
// columnar payload straight into classify.Batch column arrays,
// selection first — times and the columns the query's residual
// time/collector/peer/prefix predicate reads come first in the payload,
// a selector evaluates the predicate over them into a selection vector
// of surviving row indexes, and the path and community-set dictionaries
// behind them are validated in full but interned into the scan-global
// classify.Dict only where a selected row references an entry, so the
// same value decodes at most once per scan and a filtered scan pays for
// the rows its filter selects. batchRunner drives the classifier plus a
// mix of BatchAnalyzer and row-fallback analyzers over (batch,
// selection) pairs. Events are only materialized for row-fallback
// analyzers; the row Scan API itself rides the same decoder and
// materializes from the batch.

// decodeScratch owns the scan-lifetime decoding state one worker
// reuses across every block it touches: the global dictionary and its
// intern maps, the remap table from block-local to global ids, and the
// batch column arrays. Values already interned cost a map hit per
// block that references them from a selected row; steady-state decoding
// of blocks whose dictionary entries have all been seen allocates
// nothing.
type decodeScratch struct {
	dict *classify.Dict

	collIDs map[string]uint32
	asIDs   map[uint32]uint32
	addrIDs map[netip.Addr]uint32
	pfxIDs  map[netip.Prefix]uint32
	// Paths and community sets are interned by their encoded wire bytes
	// (the block dictionary's own key form), so a repeat entry is
	// recognized without decoding it. Equal ids imply equal values;
	// UNEQUAL ids do not imply unequal values (a non-minimal encoding of
	// the same value would intern separately), so ids may only
	// short-circuit equality — exactly how RunBatch uses them.
	// Map keys are views (unsafe.String) over copies carved from
	// keyArena: the payload buffer the lookup key points into is reused
	// per block, so an inserted key must be copied — but into the arena,
	// not a fresh string allocation per entry.
	pathIDs  map[string]uint32
	commIDs  map[string]uint32
	keyArena []byte

	// Decoded path segments, their ASN lists, and community sets are
	// carved out of chunked arenas instead of being allocated one tiny
	// slice at a time: the dictionary retains every decoded value for
	// the whole scan anyway, so per-value allocations only feed the
	// garbage collector's scan load. Carved sub-slices are full-capacity
	// (three-index) and never grow, and a chunk is abandoned — not
	// freed — when exhausted, so previously carved values stay stable.
	segArena  []bgp.ASPathSegment
	asnArena  []uint32
	commArena []bgp.Community

	// remap maps a column's block-local ids to global ids; spans holds
	// the start offset of each entry of the value dictionary being read,
	// plus the end of the last.
	remap []uint32
	spans []int
	batch classify.Batch
}

func newDecodeScratch() *decodeScratch {
	return &decodeScratch{
		// Collector, peer-address, and prefix entries are interned by
		// value below, so those tables never hold duplicates — the
		// UniqueKeys bijection the classifier's deferred stream
		// tracking relies on.
		dict:    &classify.Dict{UniqueKeys: true},
		collIDs: make(map[string]uint32),
		asIDs:   make(map[uint32]uint32, 64),
		addrIDs: make(map[netip.Addr]uint32, 64),
		pfxIDs:  make(map[netip.Prefix]uint32, 512),
		// Presized for a day-scale scan: path cardinality dominates and
		// incremental map growth would rehash the table ~13 times on the
		// way to several thousand entries.
		pathIDs: make(map[string]uint32, 1<<13),
		commIDs: make(map[string]uint32, 1<<10),
	}
}

// arenaChunk is the element count of a fresh arena chunk — large enough
// to amortize allocation across thousands of dictionary entries, small
// enough that an abandoned tail is cheap.
const arenaChunk = 1 << 14

func arenaSlice[T any](arena []T, n int) (s, next []T) {
	if cap(arena)-len(arena) < n {
		arena = make([]T, 0, max(arenaChunk, n))
	}
	l := len(arena)
	next = arena[: l+n : cap(arena)]
	return next[l : l+n : l+n], next
}

// internKey copies an encoded dictionary key into the key arena and
// returns a string view over the copy, suitable as a stable intern-map
// key. Encoded keys are never empty (they begin with a count byte).
func (ds *decodeScratch) internKey(key []byte) string {
	var kc []byte
	kc, ds.keyArena = arenaSlice(ds.keyArena, len(key))
	copy(kc, key)
	return unsafe.String(&kc[0], len(kc))
}

// decodePath decodes an AppendPath encoding that walkEntries has already
// validated, carving the segment and ASN slices from the scratch arenas.
func (ds *decodeScratch) decodePath(key []byte) bgp.ASPath {
	r := wire.NewReader(key)
	nseg := r.Count(2)
	if nseg == 0 {
		return nil
	}
	var segs []bgp.ASPathSegment
	segs, ds.segArena = arenaSlice(ds.segArena, nseg)
	for i := range segs {
		typ := r.Uvarint()
		nasn := r.Count(1)
		var asns []uint32
		asns, ds.asnArena = arenaSlice(ds.asnArena, nasn)
		for j := range asns {
			asns[j] = r.Uint32()
		}
		segs[i] = bgp.ASPathSegment{Type: uint8(typ), ASNs: asns}
	}
	return bgp.ASPath(segs)
}

// decodeComms decodes an AppendComms encoding that walkEntries has
// already validated, carving the set from the scratch arena.
func (ds *decodeScratch) decodeComms(key []byte) bgp.Communities {
	r := wire.NewReader(key)
	n := r.Count(1)
	if n == 0 {
		return nil
	}
	var cs []bgp.Community
	cs, ds.commArena = arenaSlice(ds.commArena, n)
	prev := int64(0)
	for i := range cs {
		prev += r.Varint()
		cs[i] = bgp.Community(prev)
	}
	return bgp.Communities(cs)
}

func growU32(s []uint32, n int) []uint32 {
	if cap(s) < n {
		return make([]uint32, n)
	}
	return s[:n]
}

func growI64(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	return s[:n]
}

// uvarintAt reads one uvarint straight off b at pos (pos <= len(b)),
// failing exactly where Reader.Uvarint does.
func uvarintAt(b []byte, pos int) (v uint64, next int, ok bool) {
	if pos < len(b) && b[pos] < 0x80 {
		return uint64(b[pos]), pos + 1, true
	}
	v, n := binary.Uvarint(b[pos:])
	return v, pos + n, n > 0
}

// walkPath is skipPath straight off the payload: the same bounds, no
// sticky-error Reader between the varints. ok is false exactly where
// skipPath fails; walkEntries then re-reads the entry through skipPath,
// which owns the error.
func walkPath(b []byte, pos int) (next int, ok bool) {
	nseg, pos, ok := uvarintAt(b, pos)
	if !ok || nseg > uint64(len(b)-pos)/2 {
		return pos, false
	}
	for ; nseg > 0; nseg-- {
		if _, pos, ok = uvarintAt(b, pos); !ok { // segment type
			return pos, false
		}
		var nasn uint64
		if nasn, pos, ok = uvarintAt(b, pos); !ok || nasn > uint64(len(b)-pos) {
			return pos, false
		}
		for ; nasn > 0; nasn-- {
			if pos+8 <= len(b) {
				// An ASN's value is not needed, only that it fits a
				// uint32: find the varint's last byte (high bit clear) a
				// word at a time. Up to four bytes always fit, a fifth
				// must stay under 2^32; anything longer is left to the
				// Reader.
				stop := ^binary.LittleEndian.Uint64(b[pos:]) & 0x8080808080808080
				l := bits.TrailingZeros64(stop)>>3 + 1
				if l > 5 || l == 5 && b[pos+4] > 0x0f {
					return pos, false
				}
				pos += l
				continue
			}
			var as uint64
			if as, pos, ok = uvarintAt(b, pos); !ok || as > math.MaxUint32 {
				return pos, false
			}
		}
	}
	return pos, true
}

// walkComms is skipComms straight off the payload, as walkPath is
// skipPath.
func walkComms(b []byte, pos int) (next int, ok bool) {
	n, pos, ok := uvarintAt(b, pos)
	if !ok || n > uint64(len(b)-pos) {
		return pos, false
	}
	prev := int64(0)
	for ; n > 0; n-- {
		var d uint64
		if d, pos, ok = uvarintAt(b, pos); !ok {
			return pos, false
		}
		if prev += wire.Unzigzag(d); prev < 0 || prev > math.MaxUint32 {
			return pos, false
		}
	}
	return pos, true
}

// walkEntries validates the nd value-dictionary entries at r's position
// (AS paths, or community sets) and leaves their byte spans in ds.spans:
// entry i is payload[spans[i]:spans[i+1]]. Every entry is checked
// whether or not a row will reference it. An entry the walk off the
// payload rejects is re-read from its first byte by the Reader version,
// so a corrupt block fails with the error the row-decoder oracle gives.
func (ds *decodeScratch) walkEntries(r *wire.Reader, payload []byte, nd int, paths bool) {
	spans := ds.spans[:0]
	pos := r.Pos()
	for i := 0; i < nd && r.Err() == nil; i++ {
		spans = append(spans, pos)
		var ok bool
		if paths {
			pos, ok = walkPath(payload, pos)
		} else {
			pos, ok = walkComms(payload, pos)
		}
		if !ok {
			r.Bytes(spans[i] - r.Pos())
			if paths {
				skipPath(r)
			} else {
				skipComms(r)
			}
			pos = r.Pos()
		}
	}
	r.Bytes(pos - r.Pos())
	ds.spans = append(spans, pos)
}

// skipPath advances past an AppendPath encoding with the same
// validation as Reader.Path, without building the path.
func skipPath(r *wire.Reader) {
	nseg := r.Count(2)
	if nseg == 0 || r.Err() != nil {
		return
	}
	for i := 0; i < nseg; i++ {
		r.Uvarint() // segment type
		nasn := r.Count(1)
		if r.Err() != nil {
			return
		}
		for j := 0; j < nasn; j++ {
			r.Uint32()
			if r.Err() != nil {
				return
			}
		}
	}
}

// skipComms advances past an AppendComms encoding with the same
// validation as Reader.Comms.
func skipComms(r *wire.Reader) {
	n := r.Count(1)
	if n == 0 || r.Err() != nil {
		return
	}
	prev := int64(0)
	for i := 0; i < n; i++ {
		prev += r.Varint()
		if prev < 0 || prev > math.MaxUint32 {
			r.Fail("wire: community overflow")
			return
		}
	}
}

// readTimes reads the time column, len(dst) zigzag deltas, straight off
// the payload (the same fast path as readIDColumn — one varint per event
// adds up).
func readTimes(r *wire.Reader, payload []byte, dst []int64) {
	if r.Err() != nil {
		return
	}
	pos, start := r.Pos(), r.Pos()
	t := int64(0)
	for i := range dst {
		v, sz := binary.Uvarint(payload[pos:])
		if sz <= 0 {
			r.Fail("wire: truncated varint")
			return
		}
		pos += sz
		t += wire.Unzigzag(v)
		dst[i] = t
	}
	r.Bytes(pos - start)
}

// readIDColumn reads one column's n per-event dictionary indexes,
// range-checking against the block-local dictionary size and remapping
// into dst's global ids. A nil dst validates without storing (the
// column is not projected). The loop decodes straight off the payload
// with a single-byte fast path — id columns are the bulk of a block's
// varints and dictionaries are rarely larger than 127 entries, so the
// generic sticky-error Reader machinery would dominate the decode.
func readIDColumn(r *wire.Reader, payload []byte, n, dictLen int, remap []uint32, dst []uint32) {
	if r.Err() != nil {
		return
	}
	pos, start := r.Pos(), r.Pos()
	dl := uint64(dictLen)
	for i := 0; i < n; i++ {
		var id uint64
		if pos < len(payload) && payload[pos] < 0x80 {
			id = uint64(payload[pos])
			pos++
		} else {
			v, sz := binary.Uvarint(payload[pos:])
			if sz <= 0 {
				r.Fail("wire: truncated varint")
				return
			}
			id = v
			pos += sz
		}
		if id >= dl {
			r.Fail("evstore: dictionary index %d out of range (dict size %d)", id, dictLen)
			return
		}
		if dst != nil {
			dst[i] = remap[id]
		}
	}
	r.Bytes(pos - start)
}

// unresolved marks a block-local dictionary entry no selected row has
// referenced yet; no scan interns that many values (see release).
const unresolved = math.MaxUint32

// readSelectedIDs reads a value-dictionary column's n per-event local
// ids in one pass: every row's id is range-checked against the nd
// entries walkEntries just spanned, and the rows in sel (ascending) get
// dst[row] = the entry's global id, the entry interned on its first such
// reference. Rows outside sel leave dst alone; the runs of them between
// selected rows are readIDColumn's validate-only loop. When sel is every
// row there is nothing to skip: the entries are all resolved up front
// and the column is readIDColumn's plain loop, so an unfiltered scan
// pays nothing for the selection cursor.
func (ds *decodeScratch) readSelectedIDs(r *wire.Reader, payload []byte, n, nd int, sel []int32, dst []uint32, paths bool) {
	if r.Err() != nil {
		return
	}
	remap := growU32(ds.remap, nd)
	ds.remap = remap
	spans := ds.spans
	if len(sel) == n {
		for id := range remap {
			remap[id] = ds.intern(payload[spans[id]:spans[id+1]], paths)
		}
		readIDColumn(r, payload, n, nd, remap, dst)
		return
	}
	for id := range remap {
		remap[id] = unresolved
	}
	pos, row := r.Pos(), 0
	for _, s := range sel {
		if gap := int(s) - row; gap > 0 {
			r.Bytes(pos - r.Pos())
			if readIDColumn(r, payload, gap, nd, nil, nil); r.Err() != nil {
				return
			}
			pos = r.Pos()
		}
		row = int(s) + 1
		var id uint64
		var ok bool
		if id, pos, ok = uvarintAt(payload, pos); !ok {
			r.Fail("wire: truncated varint")
			return
		}
		if id >= uint64(nd) {
			r.Fail("evstore: dictionary index %d out of range (dict size %d)", id, nd)
			return
		}
		if remap[id] == unresolved {
			remap[id] = ds.intern(payload[spans[id]:spans[id+1]], paths)
		}
		dst[s] = remap[id]
	}
	r.Bytes(pos - r.Pos())
	readIDColumn(r, payload, n-row, nd, nil, nil)
}

// intern returns the global id of a value-dictionary entry — an AS path,
// or a community set — by its encoded bytes (validated by walkEntries),
// decoding it on first sight in the scan. The dict holds a community set
// as stored (possibly non-canonical); consumers that compare sets
// canonicalize, matching row-path semantics.
func (ds *decodeScratch) intern(key []byte, path bool) uint32 {
	if path {
		gid, ok := ds.pathIDs[string(key)]
		if !ok {
			gid = uint32(len(ds.dict.Paths))
			ds.dict.Paths = append(ds.dict.Paths, ds.decodePath(key))
			ds.pathIDs[ds.internKey(key)] = gid
		}
		return gid
	}
	gid, ok := ds.commIDs[string(key)]
	if !ok {
		gid = uint32(len(ds.dict.CommSets))
		ds.dict.CommSets = append(ds.dict.CommSets, ds.decodeComms(key))
		ds.commIDs[ds.internKey(key)] = gid
	}
	return gid
}

// decodeBatch parses a columnar payload into the scratch's batch and
// returns it with the rows slr selects. It decodes only the projected
// columns (times, flags, and MED always; what slr's predicate reads is
// added), and the path and community-set columns — which follow the
// predicate's in the payload — only at the selected rows: Batch.Path
// and Batch.Comms are defined there and nowhere else. It accepts and
// rejects exactly the payloads the row-decoder oracle (decodeBlock, in
// the tests) does — unprojected columns and unreferenced dictionary
// entries are still parsed and validated at the wire level, just never
// interned or stored. The returned batch aliases the scratch and the
// payload, the selection is slr's scratch; both are valid only until
// the next decode.
func (ds *decodeScratch) decodeBatch(payload []byte, proj classify.Projection, slr *selector) (*classify.Batch, []int32, error) {
	r := wire.NewReader(payload)
	rawN := r.Uvarint()
	if err := r.Err(); err != nil {
		return nil, nil, err
	}
	if rawN > maxBlockEvents || rawN > uint64(r.Remaining()) {
		return nil, nil, fmt.Errorf("evstore: implausible block event count %d", rawN)
	}
	n := int(rawN)
	proj |= slr.cq.residualProjection()
	b := &ds.batch
	b.N, b.Dict, b.Cols = n, ds.dict, proj

	b.Times = growI64(b.Times, n)
	readTimes(r, payload, b.Times)

	// Collectors: length-prefixed strings.
	nd := r.Count(1)
	remap := ds.remap[:0]
	if proj&classify.ProjCollector != 0 {
		for i := 0; i < nd; i++ {
			raw := r.Bytes(r.Count(1))
			if r.Err() != nil {
				break
			}
			gid, ok := ds.collIDs[string(raw)]
			if !ok {
				gid = uint32(len(ds.dict.Collectors))
				s := string(raw)
				ds.dict.Collectors = append(ds.dict.Collectors, s)
				ds.collIDs[s] = gid
			}
			remap = append(remap, gid)
		}
		b.Collector = growU32(b.Collector, n)
		readIDColumn(r, payload, n, nd, remap, b.Collector)
	} else {
		for i := 0; i < nd; i++ {
			r.Bytes(r.Count(1))
		}
		readIDColumn(r, payload, n, nd, nil, nil)
	}

	// Peer ASNs: uvarint values.
	nd = r.Count(1)
	remap = remap[:0]
	if proj&classify.ProjPeerAS != 0 {
		for i := 0; i < nd; i++ {
			as := r.Uint32()
			if r.Err() != nil {
				break
			}
			gid, ok := ds.asIDs[as]
			if !ok {
				gid = uint32(len(ds.dict.PeerASNs))
				ds.dict.PeerASNs = append(ds.dict.PeerASNs, as)
				ds.asIDs[as] = gid
			}
			remap = append(remap, gid)
		}
		b.PeerAS = growU32(b.PeerAS, n)
		readIDColumn(r, payload, n, nd, remap, b.PeerAS)
	} else {
		for i := 0; i < nd; i++ {
			r.Uint32()
		}
		readIDColumn(r, payload, n, nd, nil, nil)
	}

	// Peer addresses.
	nd = r.Count(1)
	remap = remap[:0]
	if proj&classify.ProjPeerAddr != 0 {
		for i := 0; i < nd; i++ {
			a := r.Addr()
			if r.Err() != nil {
				break
			}
			gid, ok := ds.addrIDs[a]
			if !ok {
				gid = uint32(len(ds.dict.PeerAddrs))
				ds.dict.PeerAddrs = append(ds.dict.PeerAddrs, a)
				ds.addrIDs[a] = gid
			}
			remap = append(remap, gid)
		}
		b.PeerAddr = growU32(b.PeerAddr, n)
		readIDColumn(r, payload, n, nd, remap, b.PeerAddr)
	} else {
		for i := 0; i < nd; i++ {
			r.Addr()
		}
		readIDColumn(r, payload, n, nd, nil, nil)
	}

	// Prefixes.
	nd = r.Count(1)
	remap = remap[:0]
	if proj&classify.ProjPrefix != 0 {
		for i := 0; i < nd; i++ {
			p := r.Prefix()
			if r.Err() != nil {
				break
			}
			gid, ok := ds.pfxIDs[p]
			if !ok {
				gid = uint32(len(ds.dict.Prefixes))
				ds.dict.Prefixes = append(ds.dict.Prefixes, p)
				ds.pfxIDs[p] = gid
			}
			remap = append(remap, gid)
		}
		b.Prefix = growU32(b.Prefix, n)
		readIDColumn(r, payload, n, nd, remap, b.Prefix)
	} else {
		for i := 0; i < nd; i++ {
			r.Prefix()
		}
		readIDColumn(r, payload, n, nd, nil, nil)
	}

	// Keep the grown remap backing array for the next block — the
	// local slice may have outgrown (and replaced) ds.remap above.
	ds.remap = remap[:0]

	// The predicate's columns are all in: select. A payload already
	// known corrupt has no rows to select from; the sticky error is the
	// one a full parse would end with.
	if err := r.Err(); err != nil {
		return nil, nil, err
	}
	sel := slr.selection(b)

	// AS paths and community sets, interned by encoded bytes where a
	// selected row references them; a repeat entry never re-decodes. The
	// decode on a miss cannot fail: walkEntries validated the same bytes.
	nd = r.Count(1)
	ds.walkEntries(r, payload, nd, true)
	if proj&classify.ProjPath != 0 {
		b.Path = growU32(b.Path, n)
		ds.readSelectedIDs(r, payload, n, nd, sel, b.Path, true)
	} else {
		readIDColumn(r, payload, n, nd, nil, nil)
	}
	nd = r.Count(1)
	ds.walkEntries(r, payload, nd, false)
	if proj&classify.ProjComms != 0 {
		b.Comms = growU32(b.Comms, n)
		ds.readSelectedIDs(r, payload, n, nd, sel, b.Comms, false)
	} else {
		readIDColumn(r, payload, n, nd, nil, nil)
	}

	// Flag bitsets (aliasing the payload) and MED values.
	nb := (n + 7) / 8
	b.Withdraw = classify.Bitset(r.Bytes(nb))
	b.HasMED = classify.Bitset(r.Bytes(nb))
	if err := r.Err(); err != nil {
		return nil, nil, err
	}
	b.MED = growU32(b.MED, n)
	for i := 0; i < n; i++ {
		b.MED[i] = 0
		if b.HasMED.Get(i) {
			med := r.Uvarint()
			if med > math.MaxUint32 {
				r.Fail("evstore: MED overflow")
			}
			b.MED[i] = uint32(med)
		}
	}
	if err := r.Err(); err != nil {
		return nil, nil, err
	}
	return b, sel, nil
}

// residualProjection returns the columns the query's per-event
// residual predicate reads.
func (cq *compiledQuery) residualProjection() classify.Projection {
	var p classify.Projection
	if cq.collectors != nil {
		p |= classify.ProjCollector
	}
	if cq.peerAS != nil {
		p |= classify.ProjPeerAS
	}
	if cq.hasPrefix {
		p |= classify.ProjPrefix
	}
	return p
}

// selector evaluates a compiled query's residual predicate over batch
// columns into a selection vector. Collector/peer/prefix verdicts are
// cached per global dictionary id (0 unknown, 1 pass, 2 fail) — each
// distinct value is tested once per scan, and per event the residual
// is integer compares and table lookups.
type selector struct {
	cq      *compiledQuery
	trivial bool // no residual at all: selection is the identity
	collOK  []uint8
	asOK    []uint8
	pfxOK   []uint8
	ident   []int32
	sel     []int32
}

func newSelector(cq *compiledQuery) *selector {
	return &selector{
		cq: cq,
		trivial: cq.fromNano == math.MinInt64 && cq.toNano == math.MaxInt64 &&
			cq.collectors == nil && cq.peerAS == nil && !cq.hasPrefix,
	}
}

func growVerdicts(v []uint8, n int) []uint8 {
	for len(v) < n {
		v = append(v, 0)
	}
	return v
}

// selection returns the ascending indexes of b's events matching the
// query — the exact rows cq.match would pass. The returned slice is
// scratch, valid until the next call.
func (s *selector) selection(b *classify.Batch) []int32 {
	n := b.N
	if s.trivial {
		for len(s.ident) < n {
			s.ident = append(s.ident, int32(len(s.ident)))
		}
		return s.ident[:n]
	}
	cq := s.cq
	sel := s.sel[:0]
	for i := 0; i < n; i++ {
		if t := b.Times[i]; t < cq.fromNano || t >= cq.toNano {
			continue
		}
		if cq.collectors != nil {
			id := b.Collector[i]
			s.collOK = growVerdicts(s.collOK, int(id)+1)
			v := s.collOK[id]
			if v == 0 {
				v = 2
				if cq.collectors[b.Dict.Collectors[id]] {
					v = 1
				}
				s.collOK[id] = v
			}
			if v != 1 {
				continue
			}
		}
		if cq.peerAS != nil {
			id := b.PeerAS[i]
			s.asOK = growVerdicts(s.asOK, int(id)+1)
			v := s.asOK[id]
			if v == 0 {
				v = 2
				if cq.peerAS[b.Dict.PeerASNs[id]] {
					v = 1
				}
				s.asOK[id] = v
			}
			if v != 1 {
				continue
			}
		}
		if cq.hasPrefix {
			id := b.Prefix[i]
			s.pfxOK = growVerdicts(s.pfxOK, int(id)+1)
			v := s.pfxOK[id]
			if v == 0 {
				v = 2
				p := b.Dict.Prefixes[id]
				if p.IsValid() && p.Bits() >= cq.q.PrefixRange.Bits() &&
					cq.q.PrefixRange.Contains(p.Addr()) {
					v = 1
				}
				s.pfxOK[id] = v
			}
			if v != 1 {
				continue
			}
		}
		sel = append(sel, int32(i))
	}
	s.sel = sel
	return sel
}

// batchRunner drives an analyzer set over (batch, selection) pairs,
// with the classifications coming from one of two places. observe
// classifies: every selected event feeds classifier state and a tally
// window gates which reach the analyzers (the warm-up convention).
// replay reads the classifications a sidecar recorded and touches no
// classifier. Either way BatchAnalyzers get the columns and the rest
// get materialized events, both in one pass.
type batchRunner struct {
	cl     *classify.Classifier
	batchA []classify.BatchAnalyzer
	rowA   []classify.Analyzer
	// replayProj is what the analyzer mix needs decoded: each batch
	// analyzer's projection, and everything if any row-fallback analyzer
	// must be handed materialized events. proj adds the classifier's
	// columns, for observe.
	replayProj, proj classify.Projection

	tallyFrom, tallyTo int64
	tallyAll           bool

	results  []classify.Result
	tallySel []int32
}

func newBatchRunner(cl *classify.Classifier, analyzers []classify.Analyzer, tally TimeRange) *batchRunner {
	run := &batchRunner{cl: cl}
	for _, a := range analyzers {
		if ba, ok := a.(classify.BatchAnalyzer); ok {
			run.batchA = append(run.batchA, ba)
			run.replayProj |= ba.Project()
		} else {
			run.rowA = append(run.rowA, a)
		}
	}
	if len(run.rowA) > 0 {
		run.replayProj = classify.ProjAll
	}
	run.proj = run.replayProj | classify.ClassifierProjection
	run.tallyFrom, run.tallyTo = tally.nanos()
	run.tallyAll = run.tallyFrom == math.MinInt64 && run.tallyTo == math.MaxInt64
	return run
}

// observe classifies one batch's selected events and fans the tallied
// ones out to the analyzers. The returned classifications are indexed
// by row, written at sel, and valid until the next batch.
func (run *batchRunner) observe(b *classify.Batch, sel []int32) []classify.Result {
	results := run.resultsFor(b)
	run.cl.RunBatch(b, sel, results)
	tsel := sel
	if !run.tallyAll {
		tsel = run.tallySel[:0]
		for _, si := range sel {
			if t := b.Times[si]; t >= run.tallyFrom && t < run.tallyTo {
				tsel = append(tsel, si)
			}
		}
		run.tallySel = tsel
	}
	run.fanOut(results, b, tsel)
	return results
}

// replay fans one batch's selected events out to the analyzers with the
// classifications a sidecar recorded for them: codes is the batch's
// slice of the Results column, one code per row. The caller's selection
// already applied the tally window — nothing here needs warm-up. A code
// that disagrees with its row about being a withdrawal means column and
// partition are not the pair the sidecar claims.
func (run *batchRunner) replay(b *classify.Batch, sel []int32, codes []byte) error {
	results := run.resultsFor(b)
	for _, si := range sel {
		res, withdraw, ok := classify.DecodeResult(codes[si])
		if !ok || withdraw != b.Withdraw.Get(int(si)) {
			return fmt.Errorf("result code %#x does not fit row %d (withdraw=%t)", codes[si], si, b.Withdraw.Get(int(si)))
		}
		results[si] = res
	}
	run.fanOut(results, b, sel)
	return nil
}

func (run *batchRunner) resultsFor(b *classify.Batch) []classify.Result {
	if len(run.results) < b.N {
		run.results = make([]classify.Result, b.N)
	}
	return run.results
}

func (run *batchRunner) fanOut(results []classify.Result, b *classify.Batch, tsel []int32) {
	for _, a := range run.batchA {
		a.ObserveBatch(results, b, tsel)
	}
	if len(run.rowA) > 0 {
		for _, si := range tsel {
			e := b.Event(int(si))
			for _, a := range run.rowA {
				a.Observe(results[si], e)
			}
		}
	}
}

// scratchPool recycles decode scratch across scans. A scan that draws
// a warm scratch decodes in steady state from its first block: the
// global dictionary already holds the store's values, so dictionary
// entries cost an intern-map hit instead of a decode plus insert, and
// the column arrays and arenas are already sized. Interning is by
// value, so a shared dictionary growing monotonically across scans
// (and even across stores) never changes an issued gid's meaning.
// Callers must finish resolving analyzer id-state (a Merge or Snapshot
// does) before release.
var scratchPool = sync.Pool{New: func() any { return newDecodeScratch() }}

// release returns the decode scratch to the pool. Only call once every
// consumer of this scan's batches has resolved its id-keyed state: a
// later scan may grow the shared dictionary concurrently. A scratch
// whose dictionary has grown pathologically large is dropped instead
// of pinned in the pool.
func (br *blockReader) release() {
	if br.scratch == nil {
		return
	}
	if len(br.scratch.dict.Paths) < 1<<19 {
		scratchPool.Put(br.scratch)
	}
	br.scratch = nil
}

// batchFunc consumes one decoded block: its batch, the rows the query
// selected, and first, the partition-order index of the block's row 0
// (the sum of the footer counts of the blocks before it). It reports
// whether the consumer wants to continue.
type batchFunc func(b *classify.Batch, sel []int32, first int) bool

// scanPartitionBatch streams one partition's matching (batch,
// selection) pairs; more reports whether the consumer wants to
// continue. Cancellation is honoured at block boundaries: a cancelled
// ctx never interrupts the decode of a block already in flight. This IS
// the scan kernel; the row path materializes from it.
func scanPartitionBatch(ctx context.Context, path string, cq *compiledQuery, br *blockReader, st *ScanStats, proj classify.Projection, fn batchFunc) (more bool, err error) {
	p, f, err := readPartition(path)
	if err != nil {
		return false, err
	}
	defer f.Close()
	return br.scanBlocks(ctx, p, f, cq, st, proj, fn)
}

// scanBlocks is scanPartitionBatch over an opened partition. It walks
// the blocks in order on the calling goroutine: prune by summary, check
// ctx, read, decode, check the footer count, hand the selected rows to
// fn. Nothing is read ahead, so a cancelled scan stops at the end of
// the block in flight.
func (br *blockReader) scanBlocks(ctx context.Context, p *partition, f *os.File, cq *compiledQuery, st *ScanStats, proj classify.Projection, fn batchFunc) (more bool, err error) {
	if cq.collectors != nil && !cq.collectors[p.collector] {
		if st != nil {
			st.PartitionsPruned++
		}
		return true, nil
	}
	if !cq.matchSummary(p.agg, false) {
		if st != nil {
			st.PartitionsPruned++
		}
		return true, nil
	}
	if st != nil {
		st.Blocks += len(p.blocks)
	}
	if br.scratch == nil {
		br.scratch = scratchPool.Get().(*decodeScratch)
	}
	// The selector caches verdicts per dictionary id, so it lives as long
	// as the query does on this reader.
	if br.slr == nil || br.slr.cq != cq {
		br.slr = newSelector(cq)
	}
	for _, bm := range p.blocks {
		if !cq.matchSummary(bm.sum, true) {
			if st != nil {
				st.BlocksPruned++
			}
			continue
		}
		if err := ctx.Err(); err != nil {
			return false, err
		}
		payload, err := br.readBlockPayload(f, bm)
		if err != nil {
			return false, fmt.Errorf("%s: %w", p.path, err)
		}
		b, sel, err := br.scratch.decodeBatch(payload, proj, br.slr)
		if err != nil {
			return false, fmt.Errorf("%s: %w", p.path, err)
		}
		// Pruning, sidecar time bounds and replay offsets all trust the
		// footer's counts; a block that decodes to another length makes
		// every one of them wrong.
		if b.N != bm.sum.count {
			return false, fmt.Errorf("%s: block at offset %d decodes to %d events, footer says %d", p.path, bm.offset, b.N, bm.sum.count)
		}
		if st != nil {
			st.countBlock(bm)
		}
		if len(sel) == 0 {
			continue
		}
		if st != nil {
			st.Events += len(sel)
		}
		if !fn(b, sel, bm.first) {
			return false, nil
		}
	}
	return true, nil
}
