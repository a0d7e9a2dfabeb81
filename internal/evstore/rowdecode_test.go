package evstore

import (
	"fmt"
	"math"
	"net/netip"
	"time"

	"repro/internal/bgp"
	"repro/internal/classify"
	"repro/internal/wire"
)

func (b bitset) get(i int) bool { return b[i/8]&(1<<(i%8)) != 0 }

// storedBlock encodes events as one stored block under codec, the way a
// writer flushes them.
func storedBlock(events []classify.Event, codec Codec) ([]byte, blockSummary) {
	var rb rawBlock
	sum := encodeBlock(events, &rb)
	var bc blockCompressor
	block, _, err := bc.appendBlock(nil, &rb, codec)
	if err != nil {
		panic(err)
	}
	return block, sum
}

// decodeBlock parses a stored block back into events, one block at a
// time with per-block dictionaries — the row decoder the batch kernel
// replaced, kept as the independent oracle the fuzz targets and the
// decode benchmarks compare decodeBatch against. It shares the block
// framing (parseHead, blockHead.open) with the kernel, opens every
// chunk in column order and parses each in full, every dictionary entry
// and every id included.
func decodeBlock(block []byte) ([]classify.Event, error) {
	h, err := parseHead(block)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, h.raw)
	n := h.n
	events := make([]classify.Event, n)

	var chunk []byte
	var r *wire.Reader
	col := colTimes
	open := func(c column) error {
		col = c
		chunk, err = h.open(block, buf, c)
		r = wire.NewReader(chunk)
		return err
	}
	fail := func(err error) ([]classify.Event, error) {
		return nil, fmt.Errorf("%s chunk: %w", col, err)
	}
	readIDs := func(dictLen int) []uint32 {
		if r.Err() != nil {
			return nil
		}
		out := make([]uint32, n)
		for i := range out {
			id := r.Uvarint()
			if id >= uint64(dictLen) {
				r.Fail("evstore: dictionary index %d out of range (dict size %d)", id, dictLen)
				return nil
			}
			out[i] = uint32(id)
		}
		return out
	}
	// readValues reads a value dictionary: its count, its offset table
	// (every length first, then their sum against the chunk), and each
	// entry within its run, every run checked to end where the table
	// says.
	readValues := func(entry func(*wire.Reader)) error {
		nd := r.Count(1)
		lens := make([]uint64, (nd+entryStride-1)/entryStride)
		for g := range lens {
			lens[g] = r.Uvarint()
		}
		if err := r.Err(); err != nil {
			return err
		}
		ends := make([]int, len(lens))
		pos := r.Pos()
		for g, l := range lens {
			if l > uint64(len(chunk)-pos) {
				return fmt.Errorf("evstore: offset table entry %d runs past the chunk", g)
			}
			pos += int(l)
			ends[g] = pos
		}
		if pos != len(chunk) {
			return fmt.Errorf("evstore: offset table ends at byte %d of a %d-byte chunk", pos, len(chunk))
		}
		pos = r.Pos()
		for i := 0; i < nd; i++ {
			run := i / entryStride
			er := wire.NewReader(chunk[:ends[run]])
			er.Bytes(pos)
			entry(er)
			if err := er.Err(); err != nil {
				return err
			}
			pos = er.Pos()
			if (i%entryStride == entryStride-1 || i == nd-1) && pos != ends[run] {
				return fmt.Errorf("evstore: entry run %d ends at byte %d, the offset table says %d", run, pos, ends[run])
			}
		}
		return nil
	}

	if err := open(colTimes); err != nil {
		return fail(err)
	}
	prev := int64(0)
	for i := range events {
		prev += r.Varint()
		events[i].Time = time.Unix(0, prev).UTC()
	}
	if err := r.Err(); err != nil {
		return fail(err)
	}

	// Collectors.
	if err := open(colCollector); err != nil {
		return fail(err)
	}
	collectors := make([]string, r.Count(1))
	for i := range collectors {
		collectors[i] = r.String()
	}
	for i, id := range readIDs(len(collectors)) {
		events[i].Collector = collectors[id]
	}
	if err := r.Err(); err != nil {
		return fail(err)
	}

	// Peer ASNs.
	if err := open(colPeerAS); err != nil {
		return fail(err)
	}
	peerAS := make([]uint32, r.Count(1))
	for i := range peerAS {
		peerAS[i] = r.Uint32()
	}
	for i, id := range readIDs(len(peerAS)) {
		events[i].PeerAS = peerAS[id]
	}
	if err := r.Err(); err != nil {
		return fail(err)
	}

	// Peer addresses.
	if err := open(colPeerAddr); err != nil {
		return fail(err)
	}
	peerAddrs := make([]netip.Addr, r.Count(1))
	for i := range peerAddrs {
		peerAddrs[i] = r.Addr()
	}
	for i, id := range readIDs(len(peerAddrs)) {
		events[i].PeerAddr = peerAddrs[id]
	}
	if err := r.Err(); err != nil {
		return fail(err)
	}

	// Prefixes.
	if err := open(colPrefix); err != nil {
		return fail(err)
	}
	prefixes := make([]netip.Prefix, r.Count(1))
	for i := range prefixes {
		prefixes[i] = r.Prefix()
	}
	for i, id := range readIDs(len(prefixes)) {
		events[i].Prefix = prefixes[id]
	}
	if err := r.Err(); err != nil {
		return fail(err)
	}

	// AS paths.
	if err := open(colPathDict); err != nil {
		return fail(err)
	}
	var paths []bgp.ASPath
	if err := readValues(func(er *wire.Reader) { paths = append(paths, er.Path()) }); err != nil {
		return fail(err)
	}
	if err := open(colPathIDs); err != nil {
		return fail(err)
	}
	for i, id := range readIDs(len(paths)) {
		events[i].ASPath = paths[id]
	}
	if err := r.Err(); err != nil {
		return fail(err)
	}

	// Communities.
	if err := open(colCommDict); err != nil {
		return fail(err)
	}
	var comms []bgp.Communities
	if err := readValues(func(er *wire.Reader) { comms = append(comms, er.Comms()) }); err != nil {
		return fail(err)
	}
	if err := open(colCommIDs); err != nil {
		return fail(err)
	}
	for i, id := range readIDs(len(comms)) {
		events[i].Communities = comms[id]
	}
	if err := r.Err(); err != nil {
		return fail(err)
	}

	// Flags and MED.
	if err := open(colFlags); err != nil {
		return fail(err)
	}
	withdraw := bitset(r.Bytes((n + 7) / 8))
	hasMED := bitset(r.Bytes((n + 7) / 8))
	if err := r.Err(); err != nil {
		return fail(err)
	}
	for i := range events {
		events[i].Withdraw = withdraw.get(i)
		if hasMED.get(i) {
			events[i].HasMED = true
			med := r.Uvarint()
			if med > math.MaxUint32 {
				r.Fail("evstore: MED overflow")
			}
			events[i].MED = uint32(med)
		}
	}
	if err := r.Err(); err != nil {
		return fail(err)
	}
	return events, nil
}
