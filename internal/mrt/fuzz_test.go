package mrt

import (
	"bytes"
	"errors"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"repro/internal/bgp"
)

// Reader.Next parses whatever archive it is handed: bgpcollect -replay,
// evstore ingest -in and evstore dump all read MRT files from outside the
// repo. FuzzReader pins two things over a stream of records. Next never
// panics, and neither does decoding a BGP4MP record's message. A record
// it accepts and the Writer can re-encode reads back as an equal header
// and record, so nothing a read lets through is lost or altered on the
// way back out.
func FuzzReader(f *testing.F) {
	recs := fuzzSeedRecords(f)
	var all bytes.Buffer
	for i, rec := range recs {
		for _, ext := range []bool{false, true} {
			f.Add(writeArchive(f, ext, rec))
		}
		w := NewWriter(&all)
		w.ExtendedTime = i%2 == 1
		if err := w.Write(time.Unix(1584230400+int64(i), 250000), rec); err != nil {
			f.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(all.Bytes())
	f.Fuzz(func(t *testing.T, b []byte) {
		r := NewReader(bytes.NewReader(b))
		for {
			h, rec, err := r.Next()
			if errors.Is(err, ErrUnsupported) {
				continue
			}
			if err != nil {
				return
			}
			if m, ok := rec.(*BGP4MPMessage); ok {
				m.Decode()
			}
			var buf bytes.Buffer
			w := NewWriter(&buf)
			w.ExtendedTime = true // keeps the microseconds of an _ET record
			if w.Write(h.Time(), rec) != nil {
				continue
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			h2, rec2, err := NewReader(&buf).Next()
			if err != nil {
				t.Fatalf("re-written %T does not read: %v", rec, err)
			}
			if !reflect.DeepEqual(h2, h) {
				t.Fatalf("header changed across a re-write:\n got %+v\nwant %+v", h2, h)
			}
			if !reflect.DeepEqual(rec2, rec) {
				t.Fatalf("record changed across a re-write:\n got %#v\nwant %#v", rec2, rec)
			}
		}
	})
}

// writeArchive is one record as a one-record archive.
func writeArchive(t testing.TB, ext bool, rec Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.ExtendedTime = ext
	if err := w.Write(time.Date(2020, 3, 15, 2, 0, 1, 123456000, time.UTC), rec); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// fuzzSeedRecords are the records of the round-trip tests.
func fuzzSeedRecords(t testing.TB) []Record {
	addr := netip.MustParseAddr
	twoByte, err := bgp.Marshal(&bgp.Update{
		Withdrawn: []netip.Prefix{netip.MustParsePrefix("10.0.0.0/8")},
	}, bgp.MarshalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rib := func(prefix string) *RIBUnicast {
		return &RIBUnicast{
			Sequence: 42,
			Prefix:   netip.MustParsePrefix(prefix),
			Entries: []RIBEntry{
				{
					PeerIndex:  1,
					Originated: time.Unix(1584230400, 0).UTC(),
					Attrs: bgp.PathAttrs{
						Origin:      bgp.OriginIGP,
						ASPath:      bgp.NewASPath(20205, 3356, 12654),
						Communities: bgp.Communities{bgp.NewCommunity(3356, 901)},
					},
				},
				{
					PeerIndex:  7,
					Originated: time.Unix(1584230500, 0).UTC(),
					Attrs: bgp.PathAttrs{
						Origin: bgp.OriginIGP,
						ASPath: bgp.NewASPath(20205, 6939, 50304, 12654),
					},
				},
			},
		}
	}
	return []Record{
		&BGP4MPMessage{
			PeerAS: 20205, LocalAS: 12654, IfIndex: 3,
			PeerAddr: addr("203.0.113.5"), LocalAddr: addr("203.0.113.6"),
			Data: sampleUpdateWire(t), FourByteAS: true,
		},
		&BGP4MPMessage{
			PeerAS: 1, LocalAS: 2,
			PeerAddr: addr("2001:db8::1"), LocalAddr: addr("2001:db8::2"),
			Data: sampleUpdateWire(t), FourByteAS: true,
		},
		&BGP4MPMessage{
			PeerAS: 20205, LocalAS: 12654,
			PeerAddr: addr("10.0.0.1"), LocalAddr: addr("10.0.0.2"),
			Data: twoByte,
		},
		&BGP4MPStateChange{
			PeerAS: 20205, LocalAS: 12654,
			PeerAddr: addr("203.0.113.5"), LocalAddr: addr("203.0.113.6"),
			OldState: StateEstablished, NewState: StateIdle,
			FourByteAS: true,
		},
		&PeerIndexTable{
			CollectorBGPID: addr("198.51.100.1"),
			ViewName:       "rrc00",
			Peers: []Peer{
				{BGPID: addr("10.0.0.1"), Addr: addr("203.0.113.5"), AS: 20205},
				{BGPID: addr("10.0.0.2"), Addr: addr("2001:db8::5"), AS: 4200000001},
			},
		},
		rib("84.205.64.0/24"),
		rib("2001:7fb:ff00::/48"),
	}
}
