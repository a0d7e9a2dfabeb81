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

// decodeBlock parses a columnar payload back into events, one block at
// a time with per-block dictionaries — the row decoder the batch kernel
// replaced, kept as the independent oracle the fuzz targets and the
// decode benchmarks compare decodeBatch against.
func decodeBlock(payload []byte) ([]classify.Event, error) {
	r := wire.NewReader(payload)
	rawN := r.Uvarint()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if rawN > maxBlockEvents || rawN > uint64(r.Remaining()) {
		return nil, fmt.Errorf("evstore: implausible block event count %d", rawN)
	}
	n := int(rawN)
	events := make([]classify.Event, n)

	prev := int64(0)
	for i := range events {
		prev += r.Varint()
		events[i].Time = time.Unix(0, prev).UTC()
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

	// Collectors.
	nc := r.Count(1)
	collectors := make([]string, nc)
	for i := range collectors {
		collectors[i] = r.String()
	}
	for i, id := range readIDs(nc) {
		events[i].Collector = collectors[id]
	}

	// Peer ASNs.
	na := r.Count(1)
	peerAS := make([]uint32, na)
	for i := range peerAS {
		peerAS[i] = r.Uint32()
	}
	for i, id := range readIDs(na) {
		events[i].PeerAS = peerAS[id]
	}

	// Peer addresses.
	nr := r.Count(1)
	peerAddrs := make([]netip.Addr, nr)
	for i := range peerAddrs {
		peerAddrs[i] = r.Addr()
	}
	for i, id := range readIDs(nr) {
		events[i].PeerAddr = peerAddrs[id]
	}

	// Prefixes.
	np := r.Count(1)
	prefixes := make([]netip.Prefix, np)
	for i := range prefixes {
		prefixes[i] = r.Prefix()
	}
	for i, id := range readIDs(np) {
		events[i].Prefix = prefixes[id]
	}

	// AS paths.
	npth := r.Count(1)
	paths := make([]bgp.ASPath, npth)
	for i := range paths {
		paths[i] = r.Path()
	}
	for i, id := range readIDs(npth) {
		events[i].ASPath = paths[id]
	}

	// Communities.
	ncs := r.Count(1)
	comms := make([]bgp.Communities, ncs)
	for i := range comms {
		comms[i] = r.Comms()
	}
	for i, id := range readIDs(ncs) {
		events[i].Communities = comms[id]
	}

	// Flags and MED.
	withdraw := bitset(r.Bytes((n + 7) / 8))
	hasMED := bitset(r.Bytes((n + 7) / 8))
	if err := r.Err(); err != nil {
		return nil, err
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
		return nil, err
	}
	return events, nil
}
