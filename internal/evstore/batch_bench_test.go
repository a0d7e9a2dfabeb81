package evstore

import (
	"net/netip"
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/classify"
)

// benchBlockEvents builds one block's worth of realistic events: a few
// sessions and prefixes cycling, so the dictionaries are small and the
// id columns long — the shape ingest produces.
func benchBlockEvents(n int) []classify.Event {
	paths := []bgp.ASPath{
		bgp.NewASPath(64500, 3356, 12654),
		bgp.NewASPath(64500, 174, 12654),
		bgp.NewASPath(64501, 3320, 174, 12654),
	}
	comms := []bgp.Communities{
		nil,
		{bgp.NewCommunity(3356, 901), bgp.NewCommunity(3356, 2056)},
		{bgp.NewCommunity(174, 21)},
	}
	t0 := time.Date(2020, 3, 15, 0, 0, 0, 0, time.UTC)
	events := make([]classify.Event, n)
	for i := range events {
		e := &events[i]
		e.Time = t0.Add(time.Duration(i) * 20 * time.Millisecond)
		e.Collector = "rrc00"
		e.PeerAS = uint32(64500 + i%4)
		e.PeerAddr = netip.AddrFrom4([4]byte{10, 0, 0, byte(1 + i%4)})
		e.Prefix = netip.PrefixFrom(netip.AddrFrom4([4]byte{192, 0, byte(2 + i%8), 0}), 24)
		if i%9 == 8 {
			e.Withdraw = true
			continue
		}
		e.ASPath = paths[i%len(paths)]
		e.Communities = comms[i%len(comms)]
		if i%2 == 0 {
			e.HasMED = true
			e.MED = uint32(i % 3)
		}
	}
	return events
}

// liveBlockEvents builds one live-sealed partition's block: one
// collector's 15 peers over 100 prefixes, the AS path and the community
// set functions of (peer, prefix), so nearly every announcement carries
// its own dictionary entries and a per-peer or per-prefix filter
// references a small share of them — the shape a filtered cold scan
// decodes, which benchBlockEvents' three paths cannot show.
func liveBlockEvents(n int) []classify.Event {
	t0 := time.Date(2020, 3, 15, 0, 0, 0, 0, time.UTC)
	events := make([]classify.Event, n)
	for i := range events {
		peer, pfx := i%15, (i/15)%100
		e := &events[i]
		e.Time = t0.Add(time.Duration(i) * 20 * time.Millisecond)
		e.Collector = "rrc00"
		e.PeerAS = uint32(64500 + peer)
		e.PeerAddr = netip.AddrFrom4([4]byte{10, 0, 0, byte(1 + peer)})
		e.Prefix = netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(pfx), 0, 0}), 16)
		if i%9 == 8 {
			e.Withdraw = true
			continue
		}
		e.ASPath = bgp.NewASPath(e.PeerAS, uint32(3000+pfx), uint32(200000+7*peer+pfx%5), 174, 12654)
		e.Communities = bgp.Communities{bgp.NewCommunity(174, 21), bgp.NewCommunity(3356, uint16(pfx)),
			bgp.NewCommunity(3356, 2056), bgp.NewCommunity(uint16(e.PeerAS), uint16(peer))}
	}
	return events
}

// BenchmarkDecodeBatch measures the vectorized block decode with a
// warm scratch — the steady state of a scan, where every column buffer
// and dictionary intern entry is reused and decoding allocates
// nothing. full, classifier-cols and counts-only decode benchBlockEvents
// with the identity selection; the sel-* cases decode a live-shaped
// block under the identity, a one-peer-of-15 and a ~2%-of-rows prefix
// selection, and interned-entries/op is how many path and community-set
// dictionary entries each of those decodes resolves against the scan
// dictionary (counted on a cold scratch, where each one is an insert).
// BenchmarkDecodeBlock is the row-path decode of the same payload for
// comparison.
func BenchmarkDecodeBatch(b *testing.B) {
	block := benchBlockEvents(4096)
	live := liveBlockEvents(2048)
	for _, tc := range []struct {
		name   string
		events []classify.Event
		proj   classify.Projection
		q      Query
	}{
		{"full", block, classify.ProjAll, Query{}},
		{"classifier-cols", block, classify.ClassifierProjection, Query{}},
		{"classifier-cols/sel-all", live, classify.ClassifierProjection, Query{}},
		{"classifier-cols/sel-1of15", live, classify.ClassifierProjection, Query{PeerAS: []uint32{64507}}},
		{"classifier-cols/sel-2pct", live, classify.ClassifierProjection, Query{PrefixRange: netip.MustParsePrefix("10.36.0.0/15")}},
		{"counts-only", block, 0, Query{}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			payload, _ := storedBlock(tc.events, CodecLZ)
			ds := newDecodeScratch()
			slr := newSelector(compileQuery(tc.q))
			_, sel, err := ds.decodeBatch(payload, tc.proj, slr)
			if err != nil {
				b.Fatal(err)
			}
			selected, interned := len(sel), len(ds.dict.Paths)+len(ds.dict.CommSets)
			b.SetBytes(int64(len(payload)))
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				batch, sel, err := ds.decodeBatch(payload, tc.proj, slr)
				if err != nil {
					b.Fatal(err)
				}
				if batch.N != len(tc.events) || len(sel) != selected {
					b.Fatalf("decoded %d of %d events, selected %d of %d", batch.N, len(tc.events), len(sel), selected)
				}
			}
			b.ReportMetric(float64(len(tc.events)), "events/op")
			b.ReportMetric(float64(selected), "selected/op")
			b.ReportMetric(float64(interned), "interned-entries/op")
		})
	}
}

// BenchmarkDecodeBlock is the row-path baseline: the same block
// materialized into a fresh []classify.Event per decode.
func BenchmarkDecodeBlock(b *testing.B) {
	events := benchBlockEvents(4096)
	payload, _ := storedBlock(events, CodecLZ)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		decoded, err := decodeBlock(payload)
		if err != nil {
			b.Fatal(err)
		}
		if len(decoded) != len(events) {
			b.Fatalf("decoded %d of %d events", len(decoded), len(events))
		}
	}
	b.ReportMetric(float64(len(events)), "events/op")
}

// BenchmarkRunBatch measures vectorized classification of a warm
// batch: id-cache hits for every event, no value comparisons.
func BenchmarkRunBatch(b *testing.B) {
	events := benchBlockEvents(4096)
	payload, _ := storedBlock(events, CodecLZ)
	ds := newDecodeScratch()
	batch, sel, err := ds.decodeBatch(payload, classify.ClassifierProjection, newSelector(compileQuery(Query{})))
	if err != nil {
		b.Fatal(err)
	}
	results := make([]classify.Result, batch.N)
	cl := classify.New()
	cl.RunBatch(batch, sel, results)
	b.SetBytes(int64(batch.N))
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cl.RunBatch(batch, sel, results)
	}
	b.ReportMetric(float64(batch.N), "events/op")
}
