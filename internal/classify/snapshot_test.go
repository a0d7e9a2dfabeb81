package classify

import (
	"net/netip"
	"reflect"
	"testing"
	"time"

	"repro/internal/bgp"
)

// snapshotEvents builds a small multi-session stream with withdrawals,
// MED changes, prepending, and community churn — every classifier state
// transition the snapshot must preserve.
func snapshotEvents() []Event {
	day := time.Date(2020, 3, 15, 0, 0, 0, 0, time.UTC)
	addr1 := netip.MustParseAddr("10.0.0.1")
	addr2 := netip.MustParseAddr("2001:db8::2")
	p1 := netip.MustParsePrefix("192.0.2.0/24")
	p2 := netip.MustParsePrefix("2001:db8:1::/48")
	path1 := bgp.NewASPath(64500, 64501)
	path2 := bgp.NewASPath(64500, 64500, 64501) // prepend of path1
	path3 := bgp.NewASPath(64502, 64501)
	comms := bgp.Communities{bgp.NewCommunity(64500, 2100)}
	var evs []Event
	add := func(e Event) { evs = append(evs, e) }
	add(Event{Time: day, Collector: "rrc00", PeerAS: 64500, PeerAddr: addr1, Prefix: p1, ASPath: path1, Communities: comms})
	add(Event{Time: day.Add(1 * time.Minute), Collector: "rrc00", PeerAS: 64500, PeerAddr: addr1, Prefix: p1, ASPath: path2})
	add(Event{Time: day.Add(2 * time.Minute), Collector: "rrc00", PeerAS: 64500, PeerAddr: addr1, Prefix: p2, ASPath: path1, HasMED: true, MED: 50})
	add(Event{Time: day.Add(3 * time.Minute), Collector: "rrc01", PeerAS: 64502, PeerAddr: addr2, Prefix: p1, ASPath: path3, Communities: comms})
	add(Event{Time: day.Add(4 * time.Minute), Collector: "rrc00", PeerAS: 64500, PeerAddr: addr1, Prefix: p1, Withdraw: true})
	add(Event{Time: day.Add(5 * time.Minute), Collector: "rrc00", PeerAS: 64500, PeerAddr: addr1, Prefix: p1, ASPath: path1, Communities: comms})
	add(Event{Time: day.Add(6 * time.Minute), Collector: "rrc00", PeerAS: 64500, PeerAddr: addr1, Prefix: p2, ASPath: path1, HasMED: true, MED: 70})
	add(Event{Time: day.Add(7 * time.Minute), Collector: "rrc01", PeerAS: 64502, PeerAddr: addr2, Prefix: p1, ASPath: path3})
	return evs
}

// TestClassifierSnapshotResume is the property the serving layer's
// partition jumps rely on: snapshot the classifier mid-stream, restore
// into a fresh one, continue — every later classification must equal
// the uninterrupted run's.
func TestClassifierSnapshotResume(t *testing.T) {
	evs := snapshotEvents()
	for cut := 0; cut <= len(evs); cut++ {
		ref := New()
		var wantRes []Result
		var wantOK []bool
		for _, e := range evs {
			res, ok := ref.Observe(e)
			wantRes = append(wantRes, res)
			wantOK = append(wantOK, ok)
		}

		interrupted := New()
		for _, e := range evs[:cut] {
			interrupted.Observe(e)
		}
		snap := interrupted.Snapshot(nil)
		resumed := New()
		if err := resumed.Restore(snap); err != nil {
			t.Fatalf("cut %d: restore: %v", cut, err)
		}
		if resumed.Streams() != interrupted.Streams() {
			t.Fatalf("cut %d: restored %d streams, want %d", cut, resumed.Streams(), interrupted.Streams())
		}
		for i, e := range evs[cut:] {
			res, ok := resumed.Observe(e)
			if res != wantRes[cut+i] || ok != wantOK[cut+i] {
				t.Errorf("cut %d: event %d classified (%+v, %v), want (%+v, %v)",
					cut, cut+i, res, ok, wantRes[cut+i], wantOK[cut+i])
			}
		}
	}
}

// TestClassifierSnapshotRejectsCorrupt pins that a truncated snapshot
// errors and leaves the classifier untouched.
func TestClassifierSnapshotRejectsCorrupt(t *testing.T) {
	cl := New()
	for _, e := range snapshotEvents() {
		cl.Observe(e)
	}
	snap := cl.Snapshot(nil)
	before := cl.Streams()
	if err := cl.Restore(snap[:len(snap)-3]); err == nil {
		t.Fatal("truncated classifier snapshot restored without error")
	}
	if cl.Streams() != before {
		t.Fatal("failed restore mutated classifier state")
	}
}

// TestCountsSnapshotRoundTrip pins the shared Counts codec.
func TestCountsSnapshotRoundTrip(t *testing.T) {
	a := &CountsAnalyzer{Counts: Counts{
		ByType:      [6]int{10, 2, 33, 47, 0, 5},
		Withdrawals: 7,
		MEDOnlyNN:   3,
	}}
	restored := a.Fresh().(*CountsAnalyzer)
	if err := restored.Restore(a.Snapshot(nil)); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(restored.Counts, a.Counts) {
		t.Fatalf("round trip diverged: %+v != %+v", restored.Counts, a.Counts)
	}
}

// TestResultCodeRoundTrip pins the result-code codec: every
// classification the classifier produces survives the byte, withdrawals
// decode to the zero Result, and of the 256 byte values exactly the 15
// EncodeResult can produce are accepted.
func TestResultCodeRoundTrip(t *testing.T) {
	cl := New()
	for i, e := range snapshotEvents() {
		res, ok := cl.Observe(e)
		got, withdraw, valid := DecodeResult(EncodeResult(res, !ok))
		if !valid || withdraw != e.Withdraw || got != res {
			t.Errorf("event %d: %+v (withdraw=%t) decoded as %+v (withdraw=%t, valid=%t)", i, res, e.Withdraw, got, withdraw, valid)
		}
	}
	accepted := 0
	for c := 0; c < 256; c++ {
		res, withdraw, ok := DecodeResult(byte(c))
		if !ok {
			continue
		}
		accepted++
		if back := EncodeResult(res, withdraw); back != byte(c) {
			t.Errorf("code %#x decodes to %+v (withdraw=%t), which encodes as %#x", c, res, withdraw, back)
		}
		if res.First && (res.MEDChanged || (res.Type != PC && res.Type != PN)) {
			t.Errorf("code %#x accepted as a first announcement of type %v, MEDChanged=%t", c, res.Type, res.MEDChanged)
		}
	}
	if accepted != 15 {
		t.Errorf("%d byte values accepted, want 15", accepted)
	}
}
