package evstore

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/rand/v2"
	"net/netip"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/classify"
	"repro/internal/lz"
	"repro/internal/stream"
	"repro/internal/wire"
)

// fuzzReader doles out fuzzer bytes; exhausted input yields zeros, so
// every input prefix defines a complete event list deterministically.
type fuzzReader struct {
	b   []byte
	pos int
}

func (r *fuzzReader) byte() byte {
	if r.pos >= len(r.b) {
		return 0
	}
	v := r.b[r.pos]
	r.pos++
	return v
}

func (r *fuzzReader) uint32() uint32 {
	return uint32(r.byte())<<24 | uint32(r.byte())<<16 | uint32(r.byte())<<8 | uint32(r.byte())
}

func (r *fuzzReader) int64() int64 {
	return int64(r.uint32())<<32 | int64(r.uint32())
}

// fuzzEvents derives an event list from raw fuzzer input, covering the
// full field space: both address families, invalid addresses and
// prefixes, AS sets, empty and unsorted community lists, withdrawals,
// MEDs, and arbitrary timestamps (including negative).
func fuzzEvents(data []byte) []classify.Event {
	r := &fuzzReader{b: data}
	n := int(r.byte()%16) + 1
	events := make([]classify.Event, n)
	for i := range events {
		e := &events[i]
		e.Time = time.Unix(0, r.int64()).UTC()
		e.Collector = string(data[:int(r.byte())%(len(data)+1)])
		e.PeerAS = r.uint32()
		switch r.byte() % 3 {
		case 0:
			e.PeerAddr = netip.AddrFrom4([4]byte{r.byte(), r.byte(), r.byte(), r.byte()})
		case 1:
			var b [16]byte
			for j := range b {
				b[j] = r.byte()
			}
			e.PeerAddr = netip.AddrFrom16(b)
		}
		switch r.byte() % 4 {
		case 0, 1:
			a := netip.AddrFrom4([4]byte{r.byte(), r.byte(), r.byte(), r.byte()})
			e.Prefix = netip.PrefixFrom(a, int(r.byte())%33)
		case 2:
			var b [16]byte
			for j := range b {
				b[j] = r.byte()
			}
			e.Prefix = netip.PrefixFrom(netip.AddrFrom16(b), int(r.byte())%129)
		}
		e.Withdraw = r.byte()%4 == 0
		if !e.Withdraw {
			nseg := int(r.byte() % 3)
			for s := 0; s < nseg; s++ {
				seg := bgp.ASPathSegment{Type: r.byte()}
				for a := int(r.byte() % 5); a > 0; a-- {
					seg.ASNs = append(seg.ASNs, r.uint32())
				}
				e.ASPath = append(e.ASPath, seg)
			}
			for c := int(r.byte() % 6); c > 0; c-- {
				e.Communities = append(e.Communities, bgp.Community(r.uint32()))
			}
			if r.byte()%2 == 0 {
				e.HasMED = true
				e.MED = r.uint32()
			}
		}
	}
	return events
}

func fuzzEventsEqual(a, b classify.Event) bool {
	return a.Time.Equal(b.Time) &&
		a.Collector == b.Collector &&
		a.PeerAS == b.PeerAS &&
		a.PeerAddr == b.PeerAddr &&
		a.Prefix == b.Prefix &&
		a.Withdraw == b.Withdraw &&
		a.ASPath.Equal(b.ASPath) &&
		a.Communities.Equal(b.Communities) &&
		a.HasMED == b.HasMED &&
		a.MED == b.MED
}

// FuzzBlockRoundTrip: encode/decode must be the identity on every
// event list the fuzzer can construct, under either codec, and the
// summary must cover it.
func FuzzBlockRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01})
	f.Add([]byte{0xff, 0x00, 0x80, 0x7f, 0x01, 0x02, 0x03, 0x04, 0x05})
	f.Add(bytes.Repeat([]byte{0xa5, 0x3c, 0x07}, 40))
	f.Add(bytes.Repeat([]byte{0x10, 0x00, 0x00, 0x5e, 0x2a}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		events := fuzzEvents(data)
		codec := CodecLZ
		if len(data)%2 == 1 {
			codec = CodecRaw
		}
		block, sum := storedBlock(events, codec)
		decoded, err := decodeBlock(block)
		if err != nil {
			t.Fatalf("decode of a fresh encode failed: %v", err)
		}
		if len(decoded) != len(events) {
			t.Fatalf("decoded %d of %d events", len(decoded), len(events))
		}
		for i := range events {
			if !fuzzEventsEqual(events[i], decoded[i]) {
				t.Fatalf("event %d:\n in  %+v\n out %+v", i, events[i], decoded[i])
			}
		}
		if sum.count != len(events) {
			t.Fatalf("summary count %d != %d", sum.count, len(events))
		}
		for _, e := range events {
			n := e.Time.UnixNano()
			if n < sum.tmin || n > sum.tmax {
				t.Fatalf("summary window [%d,%d] misses %d", sum.tmin, sum.tmax, n)
			}
			found := false
			for _, as := range sum.peerAS {
				if as == e.PeerAS {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("summary peer-AS set misses %d", e.PeerAS)
			}
		}
	})
}

// fuzzSelections derives from the fuzz input the dimension a scan adds
// to a decode: a projection, and three residual queries over the events
// the oracle decoded — the identity, a sparse one (the peer AS, the
// prefix or the instant of one event, so at least that row survives)
// and one no row passes (a peer AS the block does not hold).
func fuzzSelections(data []byte, events []classify.Event) (classify.Projection, [3]Query) {
	sum := 0
	for _, c := range data {
		sum += int(c)
	}
	qs := [3]Query{{}, {PeerAS: []uint32{uint32(sum)}}, {}}
	present := make(map[uint32]bool, len(events))
	for _, e := range events {
		present[e.PeerAS] = true
	}
	absent := uint32(sum)
	for present[absent] {
		absent++
	}
	qs[2].PeerAS = []uint32{absent}
	if len(events) > 0 {
		switch e := events[sum%len(events)]; {
		case sum%3 == 0 && e.Prefix.IsValid():
			qs[1] = Query{PrefixRange: e.Prefix}
		case sum%3 == 1 && e.Time.UnixNano() < math.MaxInt64:
			qs[1] = Query{Window: TimeRange{From: e.Time, To: e.Time.Add(1)}}
		default:
			qs[1] = Query{PeerAS: []uint32{e.PeerAS}}
		}
	}
	return classify.Projection(sum>>2) & classify.ProjAll, qs
}

// checkSelected holds one decode to the oracle's events: sel is exactly
// the rows the row-path predicate passes, and every selected row carries
// the oracle's event in each column the batch projects — through
// Batch.Event when that is all of them.
func checkSelected(t *testing.T, b *classify.Batch, sel []int32, cq *compiledQuery, rows []classify.Event) {
	t.Helper()
	if b.N != len(rows) {
		t.Fatalf("batch has %d events, row decode %d", b.N, len(rows))
	}
	var want []int32
	for i, e := range rows {
		if cq.match(e) {
			want = append(want, int32(i))
		}
	}
	if !slices.Equal(sel, want) {
		t.Fatalf("query %+v selected rows %v, the row predicate passes %v", cq.q, sel, want)
	}
	for _, si := range sel {
		i, e, d := int(si), rows[si], b.Dict
		if b.Cols == classify.ProjAll {
			if got := b.Event(i); !fuzzEventsEqual(e, got) {
				t.Fatalf("event %d:\n row   %+v\n batch %+v", i, e, got)
			}
			continue
		}
		ok := b.Times[i] == e.Time.UnixNano() && b.Withdraw.Get(i) == e.Withdraw && b.HasMED.Get(i) == e.HasMED
		ok = ok && (b.Cols&classify.ProjMED == 0 || b.MED[i] == e.MED)
		ok = ok && (b.Cols&classify.ProjCollector == 0 || d.Collectors[b.Collector[i]] == e.Collector)
		ok = ok && (b.Cols&classify.ProjPeerAS == 0 || d.PeerASNs[b.PeerAS[i]] == e.PeerAS)
		ok = ok && (b.Cols&classify.ProjPeerAddr == 0 || d.PeerAddrs[b.PeerAddr[i]] == e.PeerAddr)
		ok = ok && (b.Cols&classify.ProjPrefix == 0 || d.Prefixes[b.Prefix[i]] == e.Prefix)
		ok = ok && (b.Cols&classify.ProjPath == 0 || d.Paths[b.Path[i]].Equal(e.ASPath))
		ok = ok && (b.Cols&classify.ProjComms == 0 || d.CommSets[b.Comms[i]].Equal(e.Communities))
		if !ok {
			t.Fatalf("projection %b: event %d's columns diverge from %+v", b.Cols, i, e)
		}
	}
}

// offsetSuffix is where a wire.Reader error says how far it got; the
// batch decoder reads whole columns off a chunk and reports a column's
// first byte, the row decoder the failing varint's.
var offsetSuffix = regexp.MustCompile(` at offset \d+$`)

// reframe gives every chunk of a fuzzed block whose stored bytes decode
// under its directory entry the CRC32C of what they decode to, so a
// mutated chunk body passes the CRC and reaches the structural checks
// behind it. A block whose head does not parse comes back unchanged.
func reframe(data []byte) []byte {
	if len(data) < headLen {
		return data
	}
	out := bytes.Clone(data)
	pos := headLen
	for c := range int(numColumns) {
		e := out[4+c*dirEntryLen:]
		raw, stored := int(binary.LittleEndian.Uint32(e[2:])), int(binary.LittleEndian.Uint32(e[6:]))
		if stored > len(out)-pos {
			break
		}
		body := out[pos : pos+stored]
		if Codec(e[1]) == CodecLZ {
			if raw > 256*stored || raw > 1<<20 {
				break
			}
			body = make([]byte, raw)
			if lz.Decompress(body, out[pos:pos+stored]) != nil {
				body = nil
			}
		}
		if body != nil {
			binary.LittleEndian.PutUint32(e[10:], crc32.Checksum(body, castagnoli))
		}
		pos += stored
	}
	return out
}

// withChunk returns rb with column c's body replaced.
func withChunk(rb rawBlock, c column, body []byte) rawBlock {
	out := rawBlock{n: rb.n}
	for col := range numColumns {
		if col == c {
			out.buf = append(out.buf, body...)
		} else {
			out.buf = append(out.buf, rb.chunk(col)...)
		}
		out.end[col] = len(out.buf)
	}
	return out
}

// rawFramed frames rb with every chunk stored raw.
func rawFramed(rb rawBlock) []byte {
	var bc blockCompressor
	block, _, err := bc.appendBlock(nil, &rb, CodecRaw)
	if err != nil {
		panic(err)
	}
	return block
}

// FuzzDecodeBatch holds the vectorized decoder to the row decoder on
// every input, as it arrives (so CRC and length refusal are exercised)
// and reframed with valid CRCs (so mutations reach the structural
// checks). With every column projected and every row selected the two
// must agree exactly: the same accept/reject verdict with the same first
// error, and on success the same events. Under every other projection
// and selection decodeBatch reads only what the query needs, so it may
// accept a block the row decoder refuses; it must never panic, and
// whenever the row decoder accepts it must accept too, select exactly
// the predicate's rows and carry the row decoder's value at each of
// them in every projected column. One scratch serves every decode of a
// fuzz case, so interning (an entry first unreferenced, then referenced
// by a later decode's selection) and buffer reuse are exercised too;
// the last decode repeats the exact one through the warm scratch.
func FuzzDecodeBatch(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	valid, _ := storedBlock(fuzzEvents([]byte{9, 1, 2, 3, 4, 5, 6, 7, 8}), CodecLZ)
	f.Add(valid)
	f.Add(bytes.Repeat([]byte{0xa5, 0x3c, 0x07}, 40))
	// The widest ASN a path entry may hold is a five-byte varint ending
	// 0x0f; next to it sit the overflow (0x1f: rejected) and a padded
	// six-byte form of the same value (accepted, by the Reader the entry
	// walk falls back to). Each is framed with a consistent offset table.
	var rb rawBlock
	encodeBlock([]classify.Event{{Collector: "c", ASPath: bgp.NewASPath(math.MaxUint32)}}, &rb)
	entry := wire.AppendPath(nil, bgp.NewASPath(math.MaxUint32))
	asn := []byte{0xff, 0xff, 0xff, 0xff, 0x0f}
	for _, widened := range [][]byte{asn, {0xff, 0xff, 0xff, 0xff, 0x1f}, {0xff, 0xff, 0xff, 0xff, 0x8f, 0x00}} {
		e := bytes.Replace(entry, asn, widened, 1)
		dict := append([]byte{1, byte(len(e))}, e...)
		f.Add(rawFramed(withChunk(rb, colPathDict, dict)))
	}
	f.Add(rawFramed(rb))
	live, _ := storedBlock(liveBlockEvents(64), CodecLZ)
	f.Add(live)
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecodeBatch(t, data)
		if re := reframe(data); !bytes.Equal(re, data) {
			checkDecodeBatch(t, re)
		}
	})
}

// checkDecodeBatch is FuzzDecodeBatch's oracle over one block.
func checkDecodeBatch(t *testing.T, data []byte) {
	rowEvents, rowErr := decodeBlock(data)
	proj, qs := fuzzSelections(data, rowEvents)
	ds := newDecodeScratch()
	for _, tc := range []struct {
		proj classify.Projection
		q    Query
	}{
		{proj, qs[2]}, {proj, qs[1]}, {classify.ProjAll, qs[1]}, {classify.ProjAll, qs[0]},
		{0, qs[0]}, {classify.ProjAll, qs[2]}, {classify.ProjAll, qs[0]},
	} {
		cq := compileQuery(tc.q)
		b, sel, err := ds.decodeBatch(data, tc.proj, newSelector(cq))
		exact := tc.proj == classify.ProjAll && tc.q.PeerAS == nil && !tc.q.PrefixRange.IsValid() && tc.q.Window == (TimeRange{})
		switch {
		case exact && (rowErr == nil) != (err == nil):
			t.Fatalf("decoder disagreement (every row, every column): decodeBlock err=%v, decodeBatch err=%v", rowErr, err)
		case exact && rowErr != nil:
			if got, want := offsetSuffix.ReplaceAllString(err.Error(), ""), offsetSuffix.ReplaceAllString(rowErr.Error(), ""); got != want {
				t.Fatalf("first error: decodeBatch %q, decodeBlock %q", got, want)
			}
		case rowErr == nil && err != nil:
			t.Fatalf("decodeBatch refused a block the row decoder accepts (projection %b, query %+v): %v", tc.proj, tc.q, err)
		case rowErr == nil:
			checkSelected(t, b, sel, cq, rowEvents)
		}
	}
}

// TestSparseMEDMatchesFullDecode pins the MED column's two readers
// against each other: under random peer-AS and time-window selections
// and random projections, a decode that projects MED carries at every
// selected row the MED the every-row decode read — over a block whose
// MEDs are random in presence and width — and one that does not still
// selects the same rows. A MED that overflows fails the every-row
// decode with the row decoder's error, and a sparse decode exactly when
// the selection holds its row.
func TestSparseMEDMatchesFullDecode(t *testing.T) {
	rng := rand.New(rand.NewPCG(38, 1))
	events := liveBlockEvents(1000)
	for i := range events {
		if events[i].HasMED = rng.IntN(3) > 0; events[i].HasMED {
			events[i].MED = rng.Uint32() >> rng.IntN(32)
		}
	}
	block, _ := storedBlock(events, CodecLZ)
	ds := newDecodeScratch()
	full, _, err := ds.decodeBatch(block, classify.ProjAll, newSelector(compileQuery(Query{})))
	if err != nil {
		t.Fatal(err)
	}
	want := slices.Clone(full.MED)
	for i, e := range events {
		if want[i] != e.MED {
			t.Fatalf("every-row decode: row %d has MED %d, want %d", i, want[i], e.MED)
		}
	}
	sparse := 0
	for trial := range 300 {
		var q Query
		if trial%3 != 1 {
			for as := uint32(64500); as < 64515; as++ {
				if rng.IntN(4) == 0 {
					q.PeerAS = append(q.PeerAS, as)
				}
			}
		}
		if trial%3 != 0 {
			from := events[0].Time.Add(time.Duration(rng.IntN(20000)) * time.Millisecond)
			q.Window = TimeRange{From: from, To: from.Add(time.Duration(rng.IntN(8000)) * time.Millisecond)}
		}
		proj := classify.Projection(rng.IntN(int(classify.ProjAll) + 1))
		cq := compileQuery(q)
		b, sel, err := ds.decodeBatch(block, proj|classify.ProjMED, newSelector(cq))
		if err != nil {
			t.Fatalf("trial %d (query %+v, projection %b): %v", trial, q, proj, err)
		}
		if len(sel) > 0 && len(sel) < len(events) {
			sparse++
		}
		for _, si := range sel {
			if b.MED[si] != want[si] {
				t.Fatalf("trial %d (query %+v, projection %b): row %d has MED %d, the every-row decode %d", trial, q, proj, si, b.MED[si], want[si])
			}
		}
		sel = slices.Clone(sel)
		b, noMED, err := ds.decodeBatch(block, proj&^classify.ProjMED, newSelector(cq))
		if err != nil || !slices.Equal(noMED, sel) || len(sel) > 0 && b.HasMED.Get(int(sel[0])) != events[sel[0]].HasMED {
			t.Fatalf("trial %d without MED: selected %v (err %v), with it %v", trial, noMED, err, sel)
		}
	}
	if sparse < 200 {
		t.Fatalf("%d of 300 trials selected some but not all rows", sparse)
	}

	// Three MED-carrying rows of peer ASes 1, 2, 3; row 1's MED is
	// rewritten as a five-byte varint of 2^32.
	three := make([]classify.Event, 3)
	for i := range three {
		three[i] = classify.Event{Time: events[i].Time, Collector: "c", PeerAS: uint32(i + 1), HasMED: true, MED: uint32(i + 1)}
	}
	var rb rawBlock
	encodeBlock(three, &rb)
	flags := rb.chunk(colFlags)
	flags = append(slices.Clone(flags[:3]), append([]byte{0x80, 0x80, 0x80, 0x80, 0x10}, flags[4:]...)...)
	bad := rawFramed(withChunk(rb, colFlags, flags))
	_, rowErr := decodeBlock(bad)
	if rowErr == nil || !strings.Contains(rowErr.Error(), "MED overflow") {
		t.Fatalf("row decoder: %v, want a MED overflow", rowErr)
	}
	for _, tc := range []struct {
		peers []uint32
		fails bool
	}{{nil, true}, {[]uint32{1, 3}, false}, {[]uint32{2}, true}, {[]uint32{3}, false}} {
		b, sel, err := ds.decodeBatch(bad, classify.ProjAll, newSelector(compileQuery(Query{PeerAS: tc.peers})))
		if tc.fails != (err != nil) || err != nil && !strings.Contains(err.Error(), "overflow") {
			t.Fatalf("peers %v: %v, want a MED overflow: %t", tc.peers, err, tc.fails)
		}
		if tc.peers == nil && err.Error() != rowErr.Error() {
			t.Fatalf("every-row decode: %q, the row decoder %q", err, rowErr)
		}
		for _, si := range sel {
			if err == nil && b.MED[si] != uint32(si+1) {
				t.Fatalf("peers %v: row %d has MED %d", tc.peers, si, b.MED[si])
			}
		}
	}
}

// FuzzBlockDecode: arbitrary bytes must never panic or over-allocate —
// corrupt stores fail with an error, not a crash.
func FuzzBlockDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	// Valid blocks as seeds so mutations explore near-valid inputs.
	valid, _ := storedBlock(fuzzEvents([]byte{9, 1, 2, 3, 4, 5, 6, 7, 8}), CodecLZ)
	f.Add(valid)
	raw, _ := storedBlock(fuzzEvents([]byte{9, 1, 2, 3, 4, 5, 6, 7, 8}), CodecRaw)
	f.Add(raw)
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, block := range [][]byte{data, reframe(data)} {
			if events, err := decodeBlock(block); err == nil {
				// Whatever decoded must re-encode without panicking.
				storedBlock(events, CodecLZ)
			}
		}
	})
}

// FuzzSnapshotDecode: arbitrary bytes must never panic the sidecar
// decoder or make it over-allocate, and whatever it accepts holds
// exactly one valid result code per event — the invariants replay
// indexes the column by. Seeded with a real sidecar, as a build pass
// writes it, so mutations explore near-valid inputs.
func FuzzSnapshotDecode(f *testing.F) {
	dir := f.TempDir()
	w, err := Open(dir)
	if err != nil {
		f.Fatal(err)
	}
	events := fuzzEvents(bytes.Repeat([]byte{9, 1, 2, 3, 4, 5, 6, 7, 8}, 30))
	for i := range events {
		events[i].Time = time.Date(2020, 3, 15, 0, 0, i, 0, time.UTC)
		events[i].Collector = "rrc00"
	}
	if err := w.Ingest(stream.FromSlice(events)); err != nil {
		f.Fatal(err)
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	named := []NamedAnalyzer{{Key: "counts", Proto: &classify.CountsAnalyzer{}}}
	if bs, err := BuildSnapshots(context.Background(), dir, named); err != nil || bs.Built != 1 {
		f.Fatalf("seed build: %+v, %v", bs, err)
	}
	m, err := LoadManifest(dir)
	if err != nil {
		f.Fatal(err)
	}
	seed, err := os.ReadFile(SnapshotPath(m.Partitions[0].Path))
	if err != nil {
		f.Fatal(err)
	}
	if snap, err := parseSnapshot(seed); err != nil || snap.Events != len(events) {
		f.Fatalf("seed sidecar: %+v, %v", snap, err)
	}
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte(snapshotMagic))
	f.Add(append([]byte(snapshotMagic), byte(CodecRaw), 0xff, 0xff, 0xff, 0xff, 0x0f))
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := parseSnapshot(data)
		if err != nil {
			return
		}
		if snap.Events < 0 || len(snap.Results) != snap.Events {
			t.Fatalf("accepted %d result codes for %d events", len(snap.Results), snap.Events)
		}
		for i, code := range snap.Results {
			if _, _, ok := classify.DecodeResult(code); !ok {
				t.Fatalf("accepted unknown result code %#x at event %d", code, i)
			}
		}
	})
}
