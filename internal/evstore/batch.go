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
// column chunks straight into classify.Batch column arrays, selection
// first — it opens the times chunk and the chunks the query's residual
// time/collector/peer/prefix predicate reads, a selector evaluates the
// predicate over them into a selection vector of surviving row indexes,
// and only then are the other projected chunks opened, and decoded only
// at the selected rows: an id chunk or a MED is skipped between them,
// and a dictionary entry (a path or community set, via its offset table;
// a small one's when fewer rows are selected than it holds) is interned
// into the scan-global classify.Dict only where a selected row
// references it. So the same value decodes at most once per scan, and a
// filtered scan pays for the chunks and rows its filter selects.
// batchRunner drives the classifier plus a mix of BatchAnalyzer and
// row-fallback analyzers over (batch, selection) pairs. Events are only
// materialized for row-fallback analyzers; the row Scan API itself
// rides the same decoder and materializes from the batch.

// decodeScratch owns the scan-lifetime decoding state one worker
// reuses across every block it touches: the global dictionary and its
// intern maps, the remap table from block-local to global ids, the
// buffer chunks decompress into, and the batch column arrays. Values
// already interned cost a map hit per block that references them from a
// selected row; steady-state decoding of blocks whose dictionary entries
// have all been seen allocates nothing.
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
	// keyArena: the chunk buffer the lookup key points into is reused
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

	// ubuf holds the block's decompressed chunks, each at its rawOff;
	// io tallies what the last decode opened, col is the column it
	// opened last.
	ubuf []byte
	io   chunkIO
	col  column

	// remap maps a column's block-local ids to global ids; runs holds
	// the start of each offset-table run of the value dictionary being
	// read, plus the end of the last, or of each entry of a small one.
	remap []uint32
	runs  []int
	batch classify.Batch
}

// chunkIO tallies the chunks one block decode opened: the head's
// bytes, and per chunk codec the stored and raw bytes.
type chunkIO struct {
	head        int
	stored, raw [NumCodecs]int
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

// decodePath decodes an AppendPath encoding that walkEntry has already
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

// decodeComms decodes an AppendComms encoding that walkEntry has
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

// walkPath validates an AppendPath encoding straight off the chunk, as
// Reader.Path does but building nothing and with no sticky-error Reader
// between the varints. ok is false wherever Reader.Path fails (and on a
// padded varint it accepts); walkEntry then re-reads the entry through
// the Reader, which owns the verdict.
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

// walkComms is walkPath for an AppendComms encoding and Reader.Comms.
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

// walkEntry spans the value-dictionary entry at b[pos:] — an AS path,
// or a community set — and returns where it ends. The walk straight off
// the bytes comes first; an entry it rejects is re-read from its first
// byte by the Reader version, which either accepts it (a padded varint
// the walk refuses) or owns the error, so a corrupt entry fails with the
// error the row-decoder oracle gives.
func walkEntry(b []byte, pos int, paths bool) (int, error) {
	var next int
	var ok bool
	if paths {
		next, ok = walkPath(b, pos)
	} else {
		next, ok = walkComms(b, pos)
	}
	if ok {
		return next, nil
	}
	r := wire.NewReader(b)
	r.Bytes(pos)
	if paths {
		r.Path()
	} else {
		r.Comms()
	}
	return r.Pos(), r.Err()
}

// readRuns reads a value-dictionary chunk's entry count and offset table
// (see entryStride) into ds.runs — the start of each run of entries,
// then the end of the last — and checks that the runs tile the rest of
// the chunk exactly. No entry is walked.
func (ds *decodeScratch) readRuns(chunk []byte) (int, error) {
	r := wire.NewReader(chunk)
	nd := r.Count(1)
	runs := ds.runs[:0]
	for g := 0; g < (nd+entryStride-1)/entryStride && r.Err() == nil; g++ {
		runs = append(runs, int(min(r.Uvarint(), uint64(len(chunk)+1))))
	}
	ds.runs = runs
	if err := r.Err(); err != nil {
		return 0, err
	}
	pos := r.Pos()
	for g, l := range runs {
		runs[g] = pos
		if pos += l; pos > len(chunk) {
			return 0, fmt.Errorf("evstore: offset table entry %d runs past the chunk", g)
		}
	}
	if pos != len(chunk) {
		return 0, fmt.Errorf("evstore: offset table ends at byte %d of a %d-byte chunk", pos, len(chunk))
	}
	ds.runs = append(runs, pos)
	return nd, nil
}

// internAll walks every entry of the value dictionary readRuns just
// read, each within its run, checks that every run ends where the offset
// table says, and interns the entries: remap[i] is entry i's global id.
func (ds *decodeScratch) internAll(chunk []byte, nd int, paths bool, remap []uint32) error {
	pos := ds.runs[0]
	for i := 0; i < nd; i++ {
		run := i / entryStride
		end := ds.runs[run+1]
		next, err := walkEntry(chunk[:end], pos, paths)
		if err != nil {
			return err
		}
		remap[i] = ds.intern(chunk[pos:next], paths)
		pos = next
		if (i%entryStride == entryStride-1 || i == nd-1) && pos != end {
			return fmt.Errorf("evstore: entry run %d ends at byte %d, the offset table says %d", run, pos, end)
		}
	}
	return nil
}

// resolve returns the global id of entry k of the value dictionary
// readRuns just read, walking to it from the start of its run: the
// entries before it in the run are validated on the way, no other.
func (ds *decodeScratch) resolve(chunk []byte, k int, paths bool) (uint32, error) {
	run := k / entryStride
	b, pos := chunk[:ds.runs[run+1]], ds.runs[run]
	for i := run * entryStride; ; i++ {
		next, err := walkEntry(b, pos, paths)
		if err != nil {
			return 0, err
		}
		if i == k {
			return ds.intern(b[pos:next], paths), nil
		}
		pos = next
	}
}

// readTimes reads the times chunk, len(dst) zigzag deltas, straight off
// the bytes: a delta of up to eight bytes — nanosecond deltas take four
// or five — is gathered out of one little-endian word, without a loop
// over its bytes.
func readTimes(chunk []byte, dst []int64) error {
	pos, t := 0, int64(0)
	for i := range dst {
		var v uint64
		if pos+8 <= len(chunk) {
			w := binary.LittleEndian.Uint64(chunk[pos:])
			if ends := ^w & 0x8080808080808080; ends != 0 {
				l := bits.TrailingZeros64(ends)>>3 + 1
				w &= ^uint64(0) >> (64 - 8*l)
				v = w&0x7f | w>>1&(0x7f<<7) | w>>2&(0x7f<<14) | w>>3&(0x7f<<21) |
					w>>4&(0x7f<<28) | w>>5&(0x7f<<35) | w>>6&(0x7f<<42) | w>>7&(0x7f<<49)
				pos += l
				t += wire.Unzigzag(v)
				dst[i] = t
				continue
			}
		}
		v, sz := binary.Uvarint(chunk[pos:])
		if sz <= 0 {
			return fmt.Errorf("wire: truncated varint at offset %d", pos)
		}
		pos += sz
		t += wire.Unzigzag(v)
		dst[i] = t
	}
	return nil
}

// readIDColumn reads all n of a column's per-event dictionary indexes
// from chunk[pos:], range-checking each against the block-local
// dictionary size and remapping it into dst's global ids. The loop
// decodes straight off the bytes with a single-byte fast path — id
// columns are the bulk of a block's varints and dictionaries are rarely
// larger than 127 entries, so the generic sticky-error Reader machinery
// would dominate the decode.
func readIDColumn(chunk []byte, pos, n, dictLen int, remap, dst []uint32) error {
	dl := uint64(dictLen)
	for i := 0; i < n; i++ {
		var id uint64
		if pos < len(chunk) && chunk[pos] < 0x80 {
			id = uint64(chunk[pos])
			pos++
		} else {
			v, sz := binary.Uvarint(chunk[pos:])
			if sz <= 0 {
				return fmt.Errorf("wire: truncated varint at offset %d", pos)
			}
			id = v
			pos += sz
		}
		if id >= dl {
			return fmt.Errorf("evstore: dictionary index %d out of range (dict size %d)", id, dictLen)
		}
		dst[i] = remap[id]
	}
	return nil
}

// readSparseIDs reads, from the id column at chunk[pos:], the ids of
// the rows in sel (ascending), range-checks each against the dictionary
// size nd and stores it block-local at dst[row]. The ids of the rows
// between are skipped, not decoded or range-checked, and the column is
// not read past the last selected row.
func readSparseIDs(chunk []byte, pos, nd int, sel []int32, dst []uint32) error {
	row := 0
	for _, s := range sel {
		pos = skipUvarints(chunk, pos, int(s)-row)
		id, next, ok := uvarintAt(chunk, pos)
		if !ok {
			return fmt.Errorf("wire: truncated varint at row %d", s)
		}
		if id >= uint64(nd) {
			return fmt.Errorf("evstore: dictionary index %d out of range (dict size %d) at row %d", id, nd, s)
		}
		dst[s] = uint32(id)
		pos, row = next, int(s)+1
	}
	return nil
}

// skipUvarints returns the position k uvarints past pos (at most
// len(b)): it counts varint-ending bytes, those with the high bit clear,
// a word at a time.
func skipUvarints(b []byte, pos, k int) int {
	for k > 0 && pos+8 <= len(b) {
		ends := ^binary.LittleEndian.Uint64(b[pos:]) & 0x8080808080808080
		if c := bits.OnesCount64(ends); c < k {
			pos, k = pos+8, k-c
			continue
		}
		for ; k > 1; k-- {
			ends &= ends - 1
		}
		return pos + bits.TrailingZeros64(ends)>>3 + 1
	}
	for ; k > 0 && pos < len(b); pos++ {
		if b[pos] < 0x80 {
			k--
		}
	}
	return pos
}

// readSparseMEDs reads, from the MED varints at chunk[pos:] — one per
// row whose hasMED bit is set — the MEDs of the rows in sel (ascending)
// into dst, zero where a row has none. The varints of the rows between
// are skipped, counted by a popcount of hasMED, not decoded.
func readSparseMEDs(chunk []byte, pos int, hasMED classify.Bitset, sel []int32, dst []uint32) error {
	row := 0
	for _, s := range sel {
		pos = skipUvarints(chunk, pos, onesBetween(hasMED, row, int(s)))
		row, dst[s] = int(s)+1, 0
		if !hasMED.Get(int(s)) {
			continue
		}
		med, next, ok := uvarintAt(chunk, pos)
		if !ok || med > math.MaxUint32 {
			return fmt.Errorf("evstore: MED truncated or overflowing at row %d", s)
		}
		dst[s], pos = uint32(med), next
	}
	return nil
}

// onesBetween counts the set bits of bs in [from, to).
func onesBetween(bs classify.Bitset, from, to int) int {
	n := 0
	for ; from < to && from%8 != 0; from++ {
		if bs.Get(from) {
			n++
		}
	}
	for ; from+8 <= to; from += 8 {
		n += bits.OnesCount8(bs[from/8])
	}
	for ; from < to; from++ {
		if bs.Get(from) {
			n++
		}
	}
	return n
}

// unresolved marks a block-local dictionary entry no selected row has
// referenced yet; no scan interns that many values (see release).
const unresolved = math.MaxUint32

// readSmallColumn decodes column c's chunk — a collector, peer-AS,
// peer-address or prefix dictionary, then one id per event — into *dst:
// at every row when rows is nil, else at rows only — and when they are
// fewer than the entries, interning only the ones they reference (every
// entry is still checked).
func (ds *decodeScratch) readSmallColumn(h *blockHead, block []byte, c column, rows []int32, dst *[]uint32) error {
	chunk, err := ds.open(h, block, c)
	if err != nil {
		return err
	}
	*dst = growU32(*dst, h.n)
	r := wire.NewReader(chunk)
	nd := r.Count(1)
	remap, starts := ds.remap[:0], ds.runs[:0]
	lazy := rows != nil && len(rows) < nd
	for i := 0; i < nd; i++ {
		starts = append(starts, r.Pos())
		gid := ds.internSmall(c, r, lazy)
		if r.Err() != nil {
			return r.Err()
		}
		remap = append(remap, gid)
	}
	ds.remap, ds.runs = remap, starts
	if err := r.Err(); err != nil {
		return err
	}
	if rows == nil {
		return readIDColumn(chunk, r.Pos(), h.n, nd, remap, *dst)
	}
	if err := readSparseIDs(chunk, r.Pos(), nd, rows, *dst); err != nil {
		return err
	}
	for _, s := range rows {
		k := (*dst)[s]
		if remap[k] == unresolved {
			remap[k] = ds.internSmall(c, wire.NewReader(chunk[starts[k]:]), false)
		}
		(*dst)[s] = remap[k]
	}
	return nil
}

// readValueColumn decodes a path or community-set column — the
// dictionary chunk dictCol and the id chunk after it — into *dst at
// rows, interning each entry by its encoded bytes where a selected row
// references it; a repeat entry never re-decodes. With rows nil (every
// row) the whole dictionary is walked and checked first, as the oracle
// does; otherwise only the referenced entries are, through the offset
// table.
func (ds *decodeScratch) readValueColumn(h *blockHead, block []byte, dictCol column, rows []int32, dst *[]uint32) error {
	paths := dictCol == colPathDict
	dict, err := ds.open(h, block, dictCol)
	if err != nil {
		return err
	}
	nd, err := ds.readRuns(dict)
	if err != nil {
		return err
	}
	remap := growU32(ds.remap, nd)
	ds.remap = remap
	*dst = growU32(*dst, h.n)
	if rows == nil {
		if err := ds.internAll(dict, nd, paths, remap); err != nil {
			return err
		}
		ids, err := ds.open(h, block, dictCol+1)
		if err == nil {
			err = readIDColumn(ids, 0, h.n, nd, remap, *dst)
		}
		return err
	}
	ids, err := ds.open(h, block, dictCol+1)
	if err == nil {
		err = readSparseIDs(ids, 0, nd, rows, *dst)
	}
	if err != nil {
		return err
	}
	ds.col = dictCol
	for k := range remap {
		remap[k] = unresolved
	}
	for _, s := range rows {
		k := (*dst)[s]
		if remap[k] == unresolved {
			if remap[k], err = ds.resolve(dict, int(k), paths); err != nil {
				return err
			}
		}
		(*dst)[s] = remap[k]
	}
	return nil
}

// internSmall reads one entry of column c's dictionary off r and
// returns its global id, interning it by value on first sight; with
// skip it only reads it and returns unresolved. On a read error it
// interns nothing.
func (ds *decodeScratch) internSmall(c column, r *wire.Reader, skip bool) uint32 {
	switch c {
	case colCollector:
		raw := r.Bytes(r.Count(1))
		if skip || r.Err() != nil {
			return unresolved
		}
		if gid, ok := ds.collIDs[string(raw)]; ok {
			return gid
		}
		return internValue(ds.collIDs, &ds.dict.Collectors, string(raw))
	case colPeerAS:
		if as := r.Uint32(); r.Err() == nil && !skip {
			return internValue(ds.asIDs, &ds.dict.PeerASNs, as)
		}
	case colPeerAddr:
		if a := r.Addr(); r.Err() == nil && !skip {
			return internValue(ds.addrIDs, &ds.dict.PeerAddrs, a)
		}
	default:
		if p := r.Prefix(); r.Err() == nil && !skip {
			return internValue(ds.pfxIDs, &ds.dict.Prefixes, p)
		}
	}
	return unresolved
}

// internValue returns v's id in the table ids indexes, appending it on
// first sight.
func internValue[K comparable](ids map[K]uint32, table *[]K, v K) uint32 {
	gid, ok := ids[v]
	if !ok {
		gid = uint32(len(*table))
		*table = append(*table, v)
		ids[v] = gid
	}
	return gid
}

// intern returns the global id of a value-dictionary entry — an AS path,
// or a community set — by its encoded bytes (validated by walkEntry),
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

// decodeBatch parses a stored block into the scratch's batch and
// returns it with the rows slr selects. It opens — decompresses and
// CRC-checks — only the chunks it decodes, in this order: times; the
// chunks slr's predicate reads, at every row; then, once the predicate
// has selected, the rest of the projected chunks at the selected rows
// only, and flags and MED. A block whose rows are all unselected stops
// after the predicate, and only Times and the predicate's columns are
// set. Every column but Times is defined at the selected rows and
// nowhere else. With every row selected and every column projected it
// accepts and rejects exactly the blocks the row-decoder oracle
// (decodeBlock, in the tests) does, with the same first error;
// otherwise it checks only what it reads. The returned batch aliases the
// scratch and the block, the selection is slr's scratch; both are valid
// only until the next decode.
func (ds *decodeScratch) decodeBatch(block []byte, proj classify.Projection, slr *selector) (*classify.Batch, []int32, error) {
	h, err := parseHead(block)
	if err != nil {
		return nil, nil, err
	}
	if cap(ds.ubuf) < h.raw {
		ds.ubuf = make([]byte, h.raw)
	}
	ds.io = chunkIO{head: headLen}
	sel, err := ds.decodeChunks(&h, block, proj, slr)
	if err != nil {
		return nil, nil, fmt.Errorf("%s chunk: %w", ds.col, err)
	}
	return &ds.batch, sel, nil
}

// open makes column c the one being decoded (ds.col, which a decode
// error names), counts it in ds.io and returns its raw bytes.
func (ds *decodeScratch) open(h *blockHead, block []byte, c column) ([]byte, error) {
	ch := &h.chunks[c]
	ds.io.stored[ch.codec] += ch.stored
	ds.io.raw[ch.codec] += ch.raw
	ds.col = c
	return h.open(block, ds.ubuf, c)
}

// decodeChunks is decodeBatch past the head.
func (ds *decodeScratch) decodeChunks(h *blockHead, block []byte, proj classify.Projection, slr *selector) ([]int32, error) {
	n, pred := h.n, slr.cq.residualProjection()
	proj |= pred
	b := &ds.batch
	b.N, b.Dict, b.Cols = n, ds.dict, proj
	chunk, err := ds.open(h, block, colTimes)
	if err != nil {
		return nil, err
	}
	b.Times = growI64(b.Times, n)
	if err := readTimes(chunk, b.Times); err != nil {
		return nil, err
	}
	smalls := [...]struct {
		c   column
		p   classify.Projection
		dst *[]uint32
	}{
		{colCollector, classify.ProjCollector, &b.Collector},
		{colPeerAS, classify.ProjPeerAS, &b.PeerAS},
		{colPeerAddr, classify.ProjPeerAddr, &b.PeerAddr},
		{colPrefix, classify.ProjPrefix, &b.Prefix},
	}
	for _, s := range smalls {
		if pred&s.p != 0 {
			if err := ds.readSmallColumn(h, block, s.c, nil, s.dst); err != nil {
				return nil, err
			}
		}
	}

	// The predicate's columns are all in: select.
	sel := slr.selection(b)
	if len(sel) == 0 && n > 0 {
		return sel, nil
	}
	var rows []int32 // the selected rows, nil when that is every row
	if len(sel) < n {
		rows = sel
	}
	for _, s := range smalls {
		if proj&s.p != 0 && pred&s.p == 0 {
			if err := ds.readSmallColumn(h, block, s.c, rows, s.dst); err != nil {
				return nil, err
			}
		}
	}
	if proj&classify.ProjPath != 0 {
		if err := ds.readValueColumn(h, block, colPathDict, rows, &b.Path); err != nil {
			return nil, err
		}
	}
	if proj&classify.ProjComms != 0 {
		if err := ds.readValueColumn(h, block, colCommDict, rows, &b.Comms); err != nil {
			return nil, err
		}
	}

	// Flag bitsets (aliasing the chunk), then MED values: none unless
	// projected, only the selected rows' when a selection drops some.
	if chunk, err = ds.open(h, block, colFlags); err != nil {
		return nil, err
	}
	r := wire.NewReader(chunk)
	nb := (n + 7) / 8
	b.Withdraw = classify.Bitset(r.Bytes(nb))
	b.HasMED = classify.Bitset(r.Bytes(nb))
	if err := r.Err(); err != nil || proj&classify.ProjMED == 0 {
		return sel, err
	}
	b.MED = growU32(b.MED, n)
	if rows != nil {
		return sel, readSparseMEDs(chunk, r.Pos(), b.HasMED, rows, b.MED)
	}
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
	return sel, r.Err()
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
// the scan kernel; the row path materializes from it. A partition its
// held footer (e.foot) prunes is never opened.
func scanPartitionBatch(ctx context.Context, e storeEntry, cq *compiledQuery, br *blockReader, st *ScanStats, proj classify.Projection, fn batchFunc) (more bool, err error) {
	if e.foot != nil && cq.prunes(e.foot, st) {
		return true, nil
	}
	p, f, err := readPartition(e.path, e.foot)
	if err != nil {
		return false, err
	}
	defer f.Close()
	return br.scanBlocks(ctx, p, f, cq, st, proj, fn)
}

// prunes reports whether p's collector or footer aggregate rules out
// every event cq selects, and counts the partition pruned in st if so.
func (cq *compiledQuery) prunes(p *partition, st *ScanStats) bool {
	if (cq.collectors == nil || cq.collectors[p.collector]) && cq.matchSummary(p.agg, false) {
		return false
	}
	if st != nil {
		st.PartitionsPruned++
	}
	return true
}

// scanBlocks is scanPartitionBatch over an opened partition. It walks
// the blocks in order on the calling goroutine: prune by summary, check
// ctx, read the block, decode the chunks it needs, check the footer
// count, hand the selected rows to fn. Nothing is read ahead, so a
// cancelled scan stops at the end of the block in flight.
func (br *blockReader) scanBlocks(ctx context.Context, p *partition, f *os.File, cq *compiledQuery, st *ScanStats, proj classify.Projection, fn batchFunc) (more bool, err error) {
	if cq.prunes(p, st) {
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
	for i, bm := range p.blocks {
		if !cq.matchSummary(bm.sum, true) {
			if st != nil {
				st.BlocksPruned++
			}
			continue
		}
		if err := ctx.Err(); err != nil {
			return false, err
		}
		block, err := br.readBlock(f, bm)
		if err != nil {
			return false, fmt.Errorf("%s: block %d: %w", p.path, i, err)
		}
		b, sel, err := br.scratch.decodeBatch(block, proj, br.slr)
		if err != nil {
			return false, fmt.Errorf("%s: block %d: %w", p.path, i, err)
		}
		// Pruning, sidecar time bounds and replay offsets all trust the
		// footer's counts; a block that decodes to another length makes
		// every one of them wrong.
		if b.N != bm.sum.count {
			return false, fmt.Errorf("%s: block at offset %d decodes to %d events, footer says %d", p.path, bm.offset, b.N, bm.sum.count)
		}
		if st != nil {
			st.countBlock(bm, &br.scratch.io)
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
