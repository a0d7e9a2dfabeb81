package evstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"math"
	"net/netip"
	"sort"

	"repro/internal/bgp"
	"repro/internal/classify"
	"repro/internal/wire"
)

// ---------------------------------------------------------------------------
// Prefix membership filter
// ---------------------------------------------------------------------------

// prefixFilter is a bloom filter over prefix keys. Each stored prefix
// inserts one key per /8 ancestor level up to its own length, so a
// containment query at bits b probes the filter at level b - b%8 > 0
// and prunes blocks that hold nothing under the queried range.
type prefixFilter struct {
	keys map[string]struct{}
}

const filterHashes = 3

// prefixKey builds the filter key for addr masked at level bits.
func prefixKey(addr netip.Addr, bits int) string {
	masked := netip.PrefixFrom(addr, bits).Masked().Addr()
	b16 := masked.As16()
	key := make([]byte, 0, 18)
	key = append(key, b16[:]...)
	key = append(key, byte(bits))
	if masked.Is4() {
		key = append(key, 4)
	} else {
		key = append(key, 6)
	}
	return string(key)
}

// add inserts a stored prefix's keys: every /8 multiple level up to and
// including its own length.
func (f *prefixFilter) add(p netip.Prefix) {
	if !p.IsValid() {
		return
	}
	if f.keys == nil {
		f.keys = make(map[string]struct{})
	}
	for l := 8; l <= p.Bits(); l += 8 {
		f.keys[prefixKey(p.Addr(), l)] = struct{}{}
	}
	if b := p.Bits(); b%8 != 0 || b == 0 {
		f.keys[prefixKey(p.Addr(), b)] = struct{}{}
	}
}

// filterPositions derives the bit positions of key in a filter of mbits
// bits (mbits must be a power of two).
func filterPositions(key string, mbits uint32) [filterHashes]uint32 {
	h := fnv.New64a()
	h.Write([]byte(key))
	sum := h.Sum64()
	h1, h2 := uint32(sum>>32), uint32(sum)|1
	var pos [filterHashes]uint32
	for i := range pos {
		pos[i] = (h1 + uint32(i)*h2) & (mbits - 1)
	}
	return pos
}

// bits renders the accumulated keys as a bloom bit array sized to the
// key count (~10 bits/key, clamped to [256, 32768] bits).
func (f *prefixFilter) bits() []byte {
	if len(f.keys) == 0 {
		return nil
	}
	want := 10 * len(f.keys)
	mbits := uint32(256)
	for mbits < uint32(want) && mbits < 32768 {
		mbits *= 2
	}
	out := make([]byte, mbits/8)
	for key := range f.keys {
		for _, p := range filterPositions(key, mbits) {
			out[p/8] |= 1 << (p % 8)
		}
	}
	return out
}

// filterMaybeContains probes a serialized filter for key; an empty or
// invalid-size filter conservatively reports true.
func filterMaybeContains(filter []byte, key string) bool {
	n := uint32(len(filter))
	if n == 0 || n&(n-1) != 0 {
		return true
	}
	mbits := n * 8
	for _, p := range filterPositions(key, mbits) {
		if filter[p/8]&(1<<(p%8)) == 0 {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// Block summary
// ---------------------------------------------------------------------------

// blockSummary is the footer-resident pushdown metadata of one block.
type blockSummary struct {
	count      int
	tmin, tmax int64 // unix nanoseconds, inclusive
	peerAS     []uint32
	// minAddr/maxAddr bound the prefix addresses (netip.Addr.Compare
	// order); invalid when the block has no valid prefixes.
	minAddr, maxAddr netip.Addr
	filter           []byte
}

// merge widens s to also cover o — the partition-level aggregate. The
// bloom filters are not merged (they may differ in size); partition
// pruning relies on the other dimensions.
func (s *blockSummary) merge(o blockSummary) {
	if s.count == 0 {
		peerAS := append([]uint32(nil), o.peerAS...)
		*s = o
		s.peerAS = peerAS
		s.filter = nil
		return
	}
	s.count += o.count
	if o.tmin < s.tmin {
		s.tmin = o.tmin
	}
	if o.tmax > s.tmax {
		s.tmax = o.tmax
	}
	s.peerAS = unionSorted(s.peerAS, o.peerAS)
	if o.minAddr.IsValid() && (!s.minAddr.IsValid() || o.minAddr.Compare(s.minAddr) < 0) {
		s.minAddr = o.minAddr
	}
	if o.maxAddr.IsValid() && (!s.maxAddr.IsValid() || o.maxAddr.Compare(s.maxAddr) > 0) {
		s.maxAddr = o.maxAddr
	}
	s.filter = nil
}

// unionSorted merges two ascending uint32 slices without duplicates.
func unionSorted(a, b []uint32) []uint32 {
	out := make([]uint32, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j == len(b) || (i < len(a) && a[i] < b[j]):
			out = append(out, a[i])
			i++
		case i == len(a) || b[j] < a[i]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

func (s blockSummary) append(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(s.count))
	dst = wire.AppendVarint(dst, s.tmin)
	dst = binary.AppendUvarint(dst, uint64(s.tmax-s.tmin))
	dst = binary.AppendUvarint(dst, uint64(len(s.peerAS)))
	prev := uint32(0)
	for i, as := range s.peerAS {
		if i == 0 {
			dst = binary.AppendUvarint(dst, uint64(as))
		} else {
			dst = binary.AppendUvarint(dst, uint64(as-prev))
		}
		prev = as
	}
	dst = wire.AppendAddr(dst, s.minAddr)
	dst = wire.AppendAddr(dst, s.maxAddr)
	dst = binary.AppendUvarint(dst, uint64(len(s.filter)))
	return append(dst, s.filter...)
}

func readSummary(r *wire.Reader) blockSummary {
	var s blockSummary
	s.count = int(r.Uvarint())
	s.tmin = r.Varint()
	span := r.Uvarint()
	if span > math.MaxInt64 {
		r.Fail("evstore: bad time span")
		return s
	}
	s.tmax = s.tmin + int64(span)
	nas := r.Count(1)
	s.peerAS = make([]uint32, 0, nas)
	prev := uint64(0)
	for i := 0; i < nas; i++ {
		d := r.Uvarint()
		if i == 0 {
			prev = d
		} else {
			prev += d
		}
		if prev > math.MaxUint32 {
			r.Fail("evstore: peer AS overflow")
			return s
		}
		s.peerAS = append(s.peerAS, uint32(prev))
	}
	s.minAddr = r.Addr()
	s.maxAddr = r.Addr()
	s.filter = r.Bytes(r.Count(1))
	return s
}

// ---------------------------------------------------------------------------
// Columnar block codec
// ---------------------------------------------------------------------------

// column names one chunk of a block. A block holds one chunk per
// column, in this order, so the columns a residual predicate reads come
// before the path and community columns a filtered scan decodes only at
// its selected rows.
type column uint8

const (
	colTimes     column = iota // zigzag deltas from the previous event
	colCollector               // length-prefixed names, then one id per event
	colPeerAS                  // uvarint ASNs, then one id per event
	colPeerAddr                // wire addresses, then one id per event
	colPrefix                  // wire prefixes, then one id per event
	colPathDict                // the AS-path dictionary, with its offset table
	colPathIDs                 // one AS-path id per event
	colCommDict                // the community-set dictionary, with its offset table
	colCommIDs                 // one community-set id per event
	colFlags                   // withdraw and has-MED bitsets, a MED per has-MED event
	numColumns
)

var columnNames = [numColumns]string{"times", "collector", "peer AS", "peer address", "prefix",
	"path dictionary", "path ids", "community dictionary", "community ids", "flags"}

func (c column) String() string {
	if c < numColumns {
		return columnNames[c]
	}
	return fmt.Sprintf("column(%d)", uint8(c))
}

// A stored block is a head and then the stored chunks, back to back.
// The head is the event count and a directory of one dirEntryLen-byte
// entry per chunk, in column order: column id, codec id, raw length,
// stored length and the CRC32C of the raw bytes, the counts and
// lengths little-endian uint32s. A fixed-width head keeps a block's raw
// size one number under every codec.
const (
	dirEntryLen = 14
	headLen     = 4 + int(numColumns)*dirEntryLen
)

// entryStride is the number of value-dictionary entries per slot of a
// dictionary chunk's offset table. A path or community-set dictionary
// chunk is its entry count, then one uvarint per run of entryStride
// entries giving the run's byte length (the last run may be short),
// then the entries: entry k is reached by summing the table up to run
// k/entryStride and walking at most entryStride-1 entries into it.
const entryStride = 4

// maxChunkBytes bounds a chunk's raw length, protecting the decoder's
// buffer against corrupt or hostile directories.
const maxChunkBytes = maxBlockEvents * 64

// castagnoli is the CRC32C table chunks and footers are checked with.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// rawBlock is one encoded block before framing: its event count and
// the raw chunk bodies back to back, column c's ending at end[c].
type rawBlock struct {
	n   int
	buf []byte
	end [numColumns]int
}

// chunk returns column c's raw body.
func (rb *rawBlock) chunk(c column) []byte {
	start := 0
	if c > 0 {
		start = rb.end[c-1]
	}
	return rb.buf[start:rb.end[c]]
}

// size is the block's raw length: its head and every chunk's raw body.
func (rb *rawBlock) size() int { return headLen + len(rb.buf) }

// chunkRef locates one chunk of a stored block.
type chunkRef struct {
	codec       Codec
	off         int // of the stored bytes, in the block
	stored, raw int
	rawOff      int // of the raw bytes, in a buffer of blockHead.raw bytes
	crc         uint32
}

// blockHead is a stored block's parsed head.
type blockHead struct {
	n      int
	raw    int // raw bytes of all chunks together
	chunks [numColumns]chunkRef
}

// parseHead reads a stored block's head and checks it against the
// block: columns in order, known codecs, and stored lengths that tile
// the rest of the block exactly. Chunk contents are not touched.
func parseHead(block []byte) (blockHead, error) {
	var h blockHead
	if len(block) < headLen {
		return h, fmt.Errorf("evstore: truncated block head: %d of %d bytes", len(block), headLen)
	}
	pos := headLen
	for c := range numColumns {
		e := block[4+int(c)*dirEntryLen:]
		ch := &h.chunks[c]
		ch.codec = Codec(e[1])
		ch.raw = int(binary.LittleEndian.Uint32(e[2:]))
		ch.stored = int(binary.LittleEndian.Uint32(e[6:]))
		ch.crc = binary.LittleEndian.Uint32(e[10:])
		switch {
		case column(e[0]) != c:
			return h, fmt.Errorf("%s chunk: directory entry %d holds %s", c, c, column(e[0]))
		case ch.codec.check() != nil:
			return h, fmt.Errorf("%s chunk: %w", c, ch.codec.check())
		case ch.stored > len(block)-pos:
			return h, fmt.Errorf("%s chunk: stored length %d runs past the block's end (%d bytes left)", c, ch.stored, len(block)-pos)
		case ch.raw > maxChunkBytes || ch.codec == CodecRaw && ch.raw != ch.stored ||
			ch.codec == CodecLZ && ch.raw > 256*ch.stored:
			return h, fmt.Errorf("%s chunk: raw length %d does not fit %d stored %s bytes", c, ch.raw, ch.stored, ch.codec)
		}
		ch.off, ch.rawOff = pos, h.raw
		pos += ch.stored
		h.raw += ch.raw
	}
	if pos != len(block) {
		return h, fmt.Errorf("evstore: chunks end at byte %d of a %d-byte block", pos, len(block))
	}
	n := binary.LittleEndian.Uint32(block)
	if n > maxBlockEvents || int(n) > h.chunks[colTimes].raw {
		return h, fmt.Errorf("evstore: implausible block event count %d", n)
	}
	h.n = int(n)
	return h, nil
}

// open returns column c's raw bytes, CRC-checked: the stored bytes
// themselves when the chunk is raw, else decompressed into its slot of
// buf (at least h.raw bytes). Its errors leave naming the column to the
// caller.
func (h *blockHead) open(block, buf []byte, c column) ([]byte, error) {
	ch := &h.chunks[c]
	raw := block[ch.off : ch.off+ch.stored]
	if ch.codec != CodecRaw {
		raw = buf[ch.rawOff : ch.rawOff+ch.raw]
		if err := decompress(ch.codec, raw, block[ch.off:ch.off+ch.stored]); err != nil {
			return nil, err
		}
	}
	if crc32.Checksum(raw, castagnoli) != ch.crc {
		return nil, errors.New("evstore: CRC mismatch")
	}
	return raw, nil
}

// dict accumulates a per-block dictionary keyed by the encoded form.
type dict struct {
	index map[string]uint32
	keys  []string
}

func (d *dict) id(key string) uint32 {
	if d.index == nil {
		d.index = make(map[string]uint32)
	}
	if id, ok := d.index[key]; ok {
		return id
	}
	id := uint32(len(d.keys))
	d.index[key] = id
	d.keys = append(d.keys, key)
	return id
}

// pathKey serializes an AS path for dictionary keying and storage.
func pathKey(p bgp.ASPath) string {
	return string(wire.AppendPath(make([]byte, 0, 8+8*len(p)), p))
}

// commsKey serializes a community set for the dictionary.
func commsKey(cs bgp.Communities) string {
	return string(wire.AppendComms(make([]byte, 0, 2+5*len(cs)), cs))
}

// prefixKeyEnc serializes a prefix for the dictionary.
func prefixKeyEnc(p netip.Prefix) string {
	return string(wire.AppendPrefix(make([]byte, 0, 19), p))
}

// addrKey serializes a peer address for the dictionary.
func addrKey(a netip.Addr) string { return string(wire.AppendAddr(nil, a)) }

// bitset packs one bit per event.
type bitset []byte

func newBitset(n int) bitset { return make(bitset, (n+7)/8) }

func (b bitset) set(i int) { b[i/8] |= 1 << (i % 8) }

// encodeBlock renders events into rb's raw chunks (see column for what
// each holds) and returns the block's pushdown summary.
func encodeBlock(events []classify.Event, rb *rawBlock) blockSummary {
	n := len(events)
	sum := blockSummary{count: n, tmin: math.MaxInt64, tmax: math.MinInt64}
	var filter prefixFilter
	rb.n = n
	dst := rb.buf[:0]
	next := colTimes
	endChunk := func() {
		rb.end[next] = len(dst)
		next++
	}

	// Times: zigzag deltas from the previous event.
	prev := int64(0)
	for _, e := range events {
		t := e.Time.UnixNano()
		dst = wire.AppendVarint(dst, t-prev)
		prev = t
		if t < sum.tmin {
			sum.tmin = t
		}
		if t > sum.tmax {
			sum.tmax = t
		}
	}
	if n == 0 {
		sum.tmin, sum.tmax = 0, 0
	}
	endChunk()

	// Dictionary columns.
	var collectors, peerAS, peerAddrs, prefixes, paths, comms dict
	ids := make([]uint32, n)
	writeIDs := func() {
		for _, id := range ids {
			dst = binary.AppendUvarint(dst, uint64(id))
		}
		endChunk()
	}
	writeDict := func(d *dict) {
		dst = binary.AppendUvarint(dst, uint64(len(d.keys)))
		for _, key := range d.keys {
			dst = append(dst, key...)
		}
		writeIDs()
	}
	writeStringDict := func(d *dict) {
		dst = binary.AppendUvarint(dst, uint64(len(d.keys)))
		for _, key := range d.keys {
			dst = binary.AppendUvarint(dst, uint64(len(key)))
			dst = append(dst, key...)
		}
		writeIDs()
	}
	// A value dictionary is a chunk of its own, with its offset table.
	writeValueDict := func(d *dict) {
		dst = binary.AppendUvarint(dst, uint64(len(d.keys)))
		for run := 0; run < len(d.keys); run += entryStride {
			size := 0
			for _, key := range d.keys[run:min(run+entryStride, len(d.keys))] {
				size += len(key)
			}
			dst = binary.AppendUvarint(dst, uint64(size))
		}
		for _, key := range d.keys {
			dst = append(dst, key...)
		}
		endChunk()
		writeIDs()
	}

	for i, e := range events {
		ids[i] = collectors.id(e.Collector)
	}
	writeStringDict(&collectors)

	for i, e := range events {
		var buf [5]byte
		k := binary.PutUvarint(buf[:], uint64(e.PeerAS))
		ids[i] = peerAS.id(string(buf[:k]))
	}
	writeDict(&peerAS)
	for _, key := range peerAS.keys {
		as, _ := binary.Uvarint([]byte(key))
		sum.peerAS = append(sum.peerAS, uint32(as))
	}
	sort.Slice(sum.peerAS, func(i, j int) bool { return sum.peerAS[i] < sum.peerAS[j] })

	for i, e := range events {
		ids[i] = peerAddrs.id(addrKey(e.PeerAddr))
	}
	writeDict(&peerAddrs)

	for i, e := range events {
		ids[i] = prefixes.id(prefixKeyEnc(e.Prefix))
		if e.Prefix.IsValid() {
			a := e.Prefix.Addr()
			if !sum.minAddr.IsValid() || a.Compare(sum.minAddr) < 0 {
				sum.minAddr = a
			}
			if !sum.maxAddr.IsValid() || a.Compare(sum.maxAddr) > 0 {
				sum.maxAddr = a
			}
			filter.add(e.Prefix)
		}
	}
	writeDict(&prefixes)

	for i, e := range events {
		ids[i] = paths.id(pathKey(e.ASPath))
	}
	writeValueDict(&paths)

	for i, e := range events {
		ids[i] = comms.id(commsKey(e.Communities))
	}
	writeValueDict(&comms)

	// Flag bitsets and MED values.
	withdraw, hasMED := newBitset(n), newBitset(n)
	for i, e := range events {
		if e.Withdraw {
			withdraw.set(i)
		}
		if e.HasMED {
			hasMED.set(i)
		}
	}
	dst = append(dst, withdraw...)
	dst = append(dst, hasMED...)
	for _, e := range events {
		if e.HasMED {
			dst = binary.AppendUvarint(dst, uint64(e.MED))
		}
	}
	endChunk()

	rb.buf = dst
	sum.filter = filter.bits()
	return sum
}
