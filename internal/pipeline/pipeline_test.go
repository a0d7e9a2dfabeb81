package pipeline

import (
	"bytes"
	"net/netip"
	"slices"
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/classify"
	"repro/internal/mrt"
	"repro/internal/registry"
)

var (
	epoch = time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)
	ts0   = time.Date(2020, 3, 15, 2, 0, 1, 0, time.UTC)
)

func record(t testing.TB, peerAS uint32, u *bgp.Update) *mrt.BGP4MPMessage {
	t.Helper()
	wire, err := bgp.Marshal(u, bgp.MarshalOptions{FourByteAS: true})
	if err != nil {
		t.Fatal(err)
	}
	return &mrt.BGP4MPMessage{
		PeerAS:     peerAS,
		LocalAS:    12654,
		PeerAddr:   netip.MustParseAddr("203.0.113.5"),
		LocalAddr:  netip.MustParseAddr("203.0.113.1"),
		Data:       wire,
		FourByteAS: true,
	}
}

func announce(t testing.TB, peerAS uint32, prefix string, path bgp.ASPath, comms bgp.Communities) *mrt.BGP4MPMessage {
	t.Helper()
	return record(t, peerAS, &bgp.Update{
		NLRI: []netip.Prefix{netip.MustParsePrefix(prefix)},
		Attrs: bgp.PathAttrs{
			Origin:      bgp.OriginIGP,
			ASPath:      path,
			NextHop:     netip.MustParseAddr("10.0.0.1"),
			Communities: comms,
		},
	})
}

func hdr(ts time.Time) mrt.Header {
	return mrt.Header{Timestamp: ts.Truncate(time.Second), Type: mrt.TypeBGP4MP, Subtype: mrt.SubtypeMessageAS4,
		Microsecond: uint32(ts.Nanosecond() / 1000)}
}

func TestBasicAnnouncement(t *testing.T) {
	n := NewNormalizer(registry.Synthetic(epoch))
	rec := announce(t, 20205, "84.205.64.0/24", bgp.NewASPath(20205, 3356, 12654), bgp.Communities{bgp.NewCommunity(3356, 901)})
	events, err := n.Process("rrc00", hdr(ts0), rec)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 {
		t.Fatalf("events = %d", len(events))
	}
	e := events[0]
	if e.Withdraw || e.Prefix != netip.MustParsePrefix("84.205.64.0/24") || e.PeerAS != 20205 {
		t.Errorf("event: %+v", e)
	}
	if e.ASPath.String() != "20205 3356 12654" {
		t.Errorf("path: %v", e.ASPath)
	}
	if n.Stats.Announcements != 1 || n.Stats.Messages != 1 {
		t.Errorf("stats: %+v", n.Stats)
	}
}

func TestWithdrawal(t *testing.T) {
	n := NewNormalizer(registry.Synthetic(epoch))
	rec := record(t, 20205, &bgp.Update{Withdrawn: []netip.Prefix{netip.MustParsePrefix("84.205.64.0/24")}})
	events, err := n.Process("rrc00", hdr(ts0), rec)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || !events[0].Withdraw {
		t.Fatalf("events: %+v", events)
	}
	if n.Stats.Withdrawals != 1 {
		t.Errorf("stats: %+v", n.Stats)
	}
}

func TestBogonASNDropped(t *testing.T) {
	n := NewNormalizer(registry.Synthetic(epoch))
	// 64500 falls in the reserved 64496–64511 gap.
	rec := announce(t, 20205, "84.205.64.0/24", bgp.NewASPath(20205, 64500, 12654), nil)
	events, err := n.Process("rrc00", hdr(ts0), rec)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 0 {
		t.Fatalf("bogon path produced events: %+v", events)
	}
	if n.Stats.DroppedBogonASN != 1 {
		t.Errorf("stats: %+v", n.Stats)
	}
}

func TestBogonPrefixDropped(t *testing.T) {
	n := NewNormalizer(registry.Synthetic(epoch))
	rec := announce(t, 20205, "192.88.99.0/24", bgp.NewASPath(20205, 12654), nil)
	events, err := n.Process("rrc00", hdr(ts0), rec)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 0 || n.Stats.DroppedBogonPrefix != 1 {
		t.Errorf("events %v, stats %+v", events, n.Stats)
	}
}

func TestNilRegistrySkipsFiltering(t *testing.T) {
	n := NewNormalizer(nil)
	rec := announce(t, 20205, "192.88.99.0/24", bgp.NewASPath(20205, 64500), nil)
	events, err := n.Process("rrc00", hdr(ts0), rec)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 {
		t.Fatalf("filter ran with nil registry: %+v", events)
	}
}

func TestRouteServerFixup(t *testing.T) {
	n := NewNormalizer(registry.Synthetic(epoch))
	n.RouteServers[6695] = true // a route-server peer
	// Path does not start with the route server's ASN.
	rec := announce(t, 6695, "84.205.64.0/24", bgp.NewASPath(3356, 12654), nil)
	events, err := n.Process("rrc00", hdr(ts0), rec)
	if err != nil {
		t.Fatal(err)
	}
	if got := events[0].ASPath.String(); got != "6695 3356 12654" {
		t.Errorf("path = %q, want route server ASN prepended", got)
	}
	if n.Stats.RouteServerFixups != 1 {
		t.Errorf("stats: %+v", n.Stats)
	}
	// Path already starting with the RS ASN is untouched.
	rec = announce(t, 6695, "84.205.64.0/24", bgp.NewASPath(6695, 3356, 12654), nil)
	events, _ = n.Process("rrc00", hdr(ts0.Add(time.Second)), rec)
	if got := events[0].ASPath.String(); got != "6695 3356 12654" {
		t.Errorf("path = %q, want unchanged", got)
	}
	if n.Stats.RouteServerFixups != 1 {
		t.Errorf("fixup double counted: %+v", n.Stats)
	}
}

func TestSameSecondDisambiguation(t *testing.T) {
	n := NewNormalizer(registry.Synthetic(epoch))
	h := mrt.Header{Timestamp: ts0.Truncate(time.Second), Type: mrt.TypeBGP4MP, Subtype: mrt.SubtypeMessageAS4}
	rec := announce(t, 20205, "84.205.64.0/24", bgp.NewASPath(20205, 12654), nil)
	var times []time.Time
	for i := 0; i < 3; i++ {
		events, err := n.Process("rrc00", h, rec)
		if err != nil {
			t.Fatal(err)
		}
		times = append(times, events[0].Time)
	}
	if !times[1].After(times[0]) || !times[2].After(times[1]) {
		t.Errorf("same-second times not strictly increasing: %v", times)
	}
	if d := times[1].Sub(times[0]); d != 10*time.Microsecond {
		t.Errorf("step = %v, want 10µs", d)
	}
	if n.Stats.Adjusted != 2 {
		t.Errorf("stats: %+v", n.Stats)
	}
	// Separate collectors keep independent clocks.
	events, _ := n.Process("rrc01", h, rec)
	if !events[0].Time.Equal(h.Time()) {
		t.Error("collector clocks are not independent")
	}
}

func TestNonUpdateSkipped(t *testing.T) {
	n := NewNormalizer(registry.Synthetic(epoch))
	ka, err := bgp.Marshal(&bgp.Keepalive{}, bgp.MarshalOptions{FourByteAS: true})
	if err != nil {
		t.Fatal(err)
	}
	rec := &mrt.BGP4MPMessage{
		PeerAS: 20205, LocalAS: 12654,
		PeerAddr:  netip.MustParseAddr("203.0.113.5"),
		LocalAddr: netip.MustParseAddr("203.0.113.1"),
		Data:      ka, FourByteAS: true,
	}
	events, err := n.Process("rrc00", hdr(ts0), rec)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 0 || n.Stats.NonUpdate != 1 {
		t.Errorf("events %v, stats %+v", events, n.Stats)
	}
}

func TestProcessReaderEndToEnd(t *testing.T) {
	// Write a small MRT stream, read it back through the pipeline, and
	// classify the result: announcement, nc announcement, withdrawal.
	var buf bytes.Buffer
	w := mrt.NewWriter(&buf)
	w.ExtendedTime = true
	path := bgp.NewASPath(20205, 3356, 12654)
	recs := []*mrt.BGP4MPMessage{
		announce(t, 20205, "84.205.64.0/24", path, bgp.Communities{bgp.NewCommunity(3356, 901)}),
		announce(t, 20205, "84.205.64.0/24", path, bgp.Communities{bgp.NewCommunity(3356, 902)}),
		record(t, 20205, &bgp.Update{Withdrawn: []netip.Prefix{netip.MustParsePrefix("84.205.64.0/24")}}),
	}
	for i, r := range recs {
		if err := w.Write(ts0.Add(time.Duration(i)*time.Second), r); err != nil {
			t.Fatal(err)
		}
	}
	w.Flush()

	n := NewNormalizer(registry.Synthetic(epoch))
	var evs []classify.Event
	err := n.ProcessReader("rrc00", mrt.NewReader(&buf), func(e classify.Event) error {
		evs = append(evs, e)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var tally classify.CountsAnalyzer
	classify.RunAll(slices.Values(evs), nil, &tally)
	counts := tally.Counts
	if counts.Announcements() != 2 || counts.Withdrawals != 1 {
		t.Fatalf("counts: %+v", counts)
	}
	if counts.Of(classify.PC) != 1 || counts.Of(classify.NC) != 1 {
		t.Errorf("types: %+v", counts)
	}
}

func TestMultiPrefixUpdate(t *testing.T) {
	n := NewNormalizer(registry.Synthetic(epoch))
	u := &bgp.Update{
		NLRI: []netip.Prefix{
			netip.MustParsePrefix("10.1.0.0/16"),
			netip.MustParsePrefix("10.2.0.0/16"),
		},
		Withdrawn: []netip.Prefix{netip.MustParsePrefix("10.3.0.0/16")},
		Attrs: bgp.PathAttrs{
			Origin:  bgp.OriginIGP,
			ASPath:  bgp.NewASPath(20205, 12654),
			NextHop: netip.MustParseAddr("10.0.0.1"),
		},
	}
	events, err := n.Process("rrc00", hdr(ts0), record(t, 20205, u))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 {
		t.Fatalf("events = %d, want 3", len(events))
	}
	if !events[0].Withdraw || events[1].Withdraw || events[2].Withdraw {
		t.Error("withdrawals must precede announcements within one update")
	}
	// All events share the (possibly adjusted) timestamp of the message.
	if !events[0].Time.Equal(events[2].Time) {
		t.Error("events from one message must share a timestamp")
	}
}
