package router

import (
	"net/netip"
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/dampening"
)

var start = time.Date(2020, 3, 15, 0, 0, 0, 0, time.UTC)

func addr(s string) netip.Addr { return netip.MustParseAddr(s) }
func pfx(s string) netip.Prefix {
	return netip.MustParsePrefix(s)
}

// pair builds two routers connected by one eBGP session.
func pair(t *testing.T, bA, bB Behavior, cfg SessionConfig) (*Network, *Router, *Router) {
	t.Helper()
	n := NewNetwork(start)
	a := n.AddRouter("A", 65001, addr("10.255.0.1"), bA)
	b := n.AddRouter("B", 65002, addr("10.255.0.2"), bB)
	if cfg.AAddr == (netip.Addr{}) {
		cfg.AAddr, cfg.BAddr = addr("10.0.0.1"), addr("10.0.0.2")
	}
	n.Connect(a, b, cfg)
	return n, a, b
}

func TestBasicPropagation(t *testing.T) {
	n, a, b := pair(t, CiscoIOS, CiscoIOS, SessionConfig{})
	p := pfx("192.0.2.0/24")
	a.Originate(p, nil)
	if _, err := n.Run(); err != nil {
		t.Fatal(err)
	}
	best := b.Best(p)
	if best == nil {
		t.Fatal("route did not propagate")
	}
	if got := best.Attrs.ASPath.String(); got != "65001" {
		t.Errorf("path = %q", got)
	}
	if best.Attrs.NextHop != addr("10.0.0.1") {
		t.Errorf("next hop = %v, want next-hop-self 10.0.0.1", best.Attrs.NextHop)
	}
	if best.PeerAS != 65001 {
		t.Errorf("peer AS = %d", best.PeerAS)
	}
}

func TestOriginateWithCommunities(t *testing.T) {
	n, a, b := pair(t, CiscoIOS, CiscoIOS, SessionConfig{})
	p := pfx("192.0.2.0/24")
	tag := bgp.NewCommunity(65001, 666)
	a.Originate(p, bgp.Communities{tag})
	n.Run()
	best := b.Best(p)
	if best == nil || !best.Attrs.Communities.Contains(tag) {
		t.Fatalf("communities did not propagate: %+v", best)
	}
}

func TestWithdrawPropagation(t *testing.T) {
	n, a, b := pair(t, CiscoIOS, CiscoIOS, SessionConfig{})
	p := pfx("192.0.2.0/24")
	a.Originate(p, nil)
	n.Run()
	a.WithdrawOriginated(p)
	n.Run()
	if b.Best(p) != nil {
		t.Error("withdrawal did not propagate")
	}
	// Re-withdrawing a missing prefix is a no-op.
	n.EnableTrace()
	a.WithdrawOriginated(p)
	n.Run()
	if len(n.Trace()) != 0 {
		t.Error("double withdrawal generated messages")
	}
}

func TestEBGPLoopPrevention(t *testing.T) {
	// Triangle A-B, B-C, C-A: routes must not loop.
	n := NewNetwork(start)
	a := n.AddRouter("A", 65001, addr("10.255.0.1"), CiscoIOS)
	b := n.AddRouter("B", 65002, addr("10.255.0.2"), CiscoIOS)
	c := n.AddRouter("C", 65003, addr("10.255.0.3"), CiscoIOS)
	n.Connect(a, b, SessionConfig{AAddr: addr("10.0.1.1"), BAddr: addr("10.0.1.2")})
	n.Connect(b, c, SessionConfig{AAddr: addr("10.0.2.2"), BAddr: addr("10.0.2.3")})
	n.Connect(c, a, SessionConfig{AAddr: addr("10.0.3.3"), BAddr: addr("10.0.3.1")})
	p := pfx("192.0.2.0/24")
	a.Originate(p, nil)
	if _, err := n.Run(); err != nil {
		t.Fatalf("network did not converge (loop?): %v", err)
	}
	for _, r := range []*Router{b, c} {
		best := r.Best(p)
		if best == nil {
			t.Fatalf("%s has no route", r.Name)
		}
		if best.Attrs.ASPath.Contains(r.AS) {
			t.Errorf("%s accepted a looping path %v", r.Name, best.Attrs.ASPath)
		}
		if best.Attrs.ASPath.Length() != 1 {
			t.Errorf("%s picked the long way: %v", r.Name, best.Attrs.ASPath)
		}
	}
}

func TestIBGPNoReflection(t *testing.T) {
	// A1 -eBGP- B1 -iBGP- B2 -iBGP- B3: B2 must not pass B1's route to B3.
	n := NewNetwork(start)
	a1 := n.AddRouter("A1", 65001, addr("10.255.1.1"), CiscoIOS)
	b1 := n.AddRouter("B1", 65002, addr("10.255.2.1"), CiscoIOS)
	b2 := n.AddRouter("B2", 65002, addr("10.255.2.2"), CiscoIOS)
	b3 := n.AddRouter("B3", 65002, addr("10.255.2.3"), CiscoIOS)
	n.Connect(a1, b1, SessionConfig{AAddr: addr("10.0.1.1"), BAddr: addr("10.0.1.2")})
	n.Connect(b1, b2, SessionConfig{AAddr: addr("10.1.12.1"), BAddr: addr("10.1.12.2")})
	n.Connect(b2, b3, SessionConfig{AAddr: addr("10.1.23.2"), BAddr: addr("10.1.23.3")})
	p := pfx("192.0.2.0/24")
	a1.Originate(p, nil)
	n.Run()
	if b2.Best(p) == nil {
		t.Fatal("B2 missing route")
	}
	if b3.Best(p) != nil {
		t.Error("B3 learned an iBGP route through B2: full-mesh rule violated")
	}
}

func TestIBGPLocalPrefPropagates(t *testing.T) {
	n := NewNetwork(start)
	b1 := n.AddRouter("B1", 65002, addr("10.255.2.1"), CiscoIOS)
	b2 := n.AddRouter("B2", 65002, addr("10.255.2.2"), CiscoIOS)
	n.Connect(b1, b2, SessionConfig{AAddr: addr("10.1.12.1"), BAddr: addr("10.1.12.2")})
	p := pfx("192.0.2.0/24")
	b1.Originate(p, nil)
	n.Run()
	best := b2.Best(p)
	if best == nil {
		t.Fatal("no route")
	}
	if !best.Attrs.HasLocalPref || best.Attrs.LocalPref != 100 {
		t.Errorf("LOCAL_PREF = %v/%d, want set/100", best.Attrs.HasLocalPref, best.Attrs.LocalPref)
	}
	if best.Attrs.ASPath.Length() != 0 {
		t.Errorf("iBGP export must not prepend: %v", best.Attrs.ASPath)
	}
}

func TestLocalPrefStrippedOnEBGP(t *testing.T) {
	n := NewNetwork(start)
	b1 := n.AddRouter("B1", 65002, addr("10.255.2.1"), CiscoIOS)
	b2 := n.AddRouter("B2", 65002, addr("10.255.2.2"), CiscoIOS)
	c1 := n.AddRouter("C1", 65003, addr("10.255.3.1"), CiscoIOS)
	n.Connect(b1, b2, SessionConfig{AAddr: addr("10.1.12.1"), BAddr: addr("10.1.12.2")})
	n.Connect(b2, c1, SessionConfig{AAddr: addr("10.0.23.2"), BAddr: addr("10.0.23.3")})
	p := pfx("192.0.2.0/24")
	b1.Originate(p, nil)
	n.Run()
	best := c1.Best(p)
	if best == nil {
		t.Fatal("no route at C1")
	}
	if best.Attrs.HasLocalPref {
		t.Error("LOCAL_PREF leaked across an eBGP session")
	}
}

// setLocalPref pins LOCAL_PREF on import; rejectIf drops routes for
// which the predicate holds. Both drive the decision-process and
// export-filter tests below.
type setLocalPref uint32

func (v setLocalPref) Apply(attrs *bgp.PathAttrs) bool {
	attrs.LocalPref, attrs.HasLocalPref = uint32(v), true
	return true
}

type rejectIf func(*bgp.PathAttrs) bool

func (r rejectIf) Apply(attrs *bgp.PathAttrs) bool { return !r(attrs) }

func TestImportPolicyLocalPrefSteering(t *testing.T) {
	// B prefers A2 because of import LOCAL_PREF despite equal path length.
	n := NewNetwork(start)
	a1 := n.AddRouter("A1", 65001, addr("10.255.1.1"), CiscoIOS)
	a2 := n.AddRouter("A2", 65003, addr("10.255.1.2"), CiscoIOS)
	b := n.AddRouter("B", 65002, addr("10.255.2.1"), CiscoIOS)
	n.Connect(a1, b, SessionConfig{AAddr: addr("10.0.1.1"), BAddr: addr("10.0.1.2")})
	n.Connect(a2, b, SessionConfig{
		AAddr: addr("10.0.2.1"), BAddr: addr("10.0.2.2"),
		BImport: Policy{setLocalPref(200)},
	})
	p := pfx("192.0.2.0/24")
	a1.Originate(p, nil)
	a2.Originate(p, nil)
	n.Run()
	best := b.Best(p)
	if best == nil || best.PeerAS != 65003 {
		t.Fatalf("best = %+v, want via A2 (65003)", best)
	}
}

func TestExportPolicyReject(t *testing.T) {
	n, a, b := pair(t, CiscoIOS, CiscoIOS, SessionConfig{
		AExport: Policy{rejectIf(func(attrs *bgp.PathAttrs) bool {
			return attrs.Communities.Contains(bgp.CommunityNoExport)
		})},
	})
	p1, p2 := pfx("192.0.2.0/24"), pfx("198.51.100.0/24")
	a.Originate(p1, bgp.Communities{bgp.CommunityNoExport})
	a.Originate(p2, nil)
	n.Run()
	if b.Best(p1) != nil {
		t.Error("no-export route leaked")
	}
	if b.Best(p2) == nil {
		t.Error("clean route filtered")
	}
}

func TestExportRejectAfterAdvertisementWithdraws(t *testing.T) {
	// A route that becomes rejected must be withdrawn from the peer.
	blockComm := bgp.NewCommunity(65001, 999)
	n := NewNetwork(start)
	a := n.AddRouter("A", 65001, addr("10.255.0.1"), CiscoIOS)
	b := n.AddRouter("B", 65002, addr("10.255.0.2"), CiscoIOS)
	c := n.AddRouter("C", 65003, addr("10.255.0.3"), CiscoIOS)
	n.Connect(a, b, SessionConfig{AAddr: addr("10.0.1.1"), BAddr: addr("10.0.1.2")})
	n.Connect(b, c, SessionConfig{
		AAddr: addr("10.0.2.2"), BAddr: addr("10.0.2.3"),
		AExport: Policy{rejectIf(func(attrs *bgp.PathAttrs) bool {
			return attrs.Communities.Contains(blockComm)
		})},
	})
	p := pfx("192.0.2.0/24")
	a.Originate(p, nil)
	n.Run()
	if c.Best(p) == nil {
		t.Fatal("route should initially reach C")
	}
	// Re-originate with the blocking community: B must withdraw from C.
	a.Originate(p, bgp.Communities{blockComm})
	n.Run()
	if c.Best(p) != nil {
		t.Error("C still holds a route B should have withdrawn")
	}
}

func TestSessionDownWithdraws(t *testing.T) {
	n, a, b := pair(t, CiscoIOS, CiscoIOS, SessionConfig{})
	p := pfx("192.0.2.0/24")
	a.Originate(p, nil)
	n.Run()
	if err := n.SetSession("A", "B", false); err != nil {
		t.Fatal(err)
	}
	n.Run()
	if b.Best(p) != nil {
		t.Error("B retains route after session down")
	}
	// Bring it back: table must be resent.
	if err := n.SetSession("A", "B", true); err != nil {
		t.Fatal(err)
	}
	n.Run()
	if b.Best(p) == nil {
		t.Error("route not re-advertised after session restore")
	}
	if err := n.SetSession("A", "Z", false); err == nil {
		t.Error("unknown session accepted")
	}
	if err := n.SetSession("Z", "A", false); err == nil {
		t.Error("unknown router accepted")
	}
}

func TestDuplicateSuppressionUnit(t *testing.T) {
	// Directly exercise the vendor difference: create two candidate paths
	// at B via iBGP, fail one, and count updates toward eBGP peer C.
	run := func(behavior Behavior) int {
		n := NewNetwork(start)
		origin := n.AddRouter("O", 65000, addr("10.255.9.1"), behavior)
		b1 := n.AddRouter("B1", 65002, addr("10.255.2.1"), behavior)
		b2 := n.AddRouter("B2", 65002, addr("10.255.2.2"), behavior)
		b3 := n.AddRouter("B3", 65002, addr("10.255.2.3"), behavior)
		c := n.AddRouter("C", 65003, addr("10.255.3.1"), behavior)
		// O feeds B2 and B3 (eBGP); B1 hears both via iBGP; B1 exports to C.
		n.Connect(origin, b2, SessionConfig{AAddr: addr("10.0.2.9"), BAddr: addr("10.0.2.2")})
		n.Connect(origin, b3, SessionConfig{AAddr: addr("10.0.3.9"), BAddr: addr("10.0.3.3")})
		n.Connect(b1, b2, SessionConfig{AAddr: addr("10.1.12.1"), BAddr: addr("10.1.12.2")})
		n.Connect(b1, b3, SessionConfig{AAddr: addr("10.1.13.1"), BAddr: addr("10.1.13.3")})
		n.Connect(b2, b3, SessionConfig{AAddr: addr("10.1.23.2"), BAddr: addr("10.1.23.3")})
		n.Connect(b1, c, SessionConfig{AAddr: addr("10.0.31.1"), BAddr: addr("10.0.31.3")})
		p := pfx("192.0.2.0/24")
		origin.Originate(p, nil)
		n.Run()
		n.EnableTrace()
		n.SetSession("B1", "B2", false)
		n.Run()
		return len(n.TraceBetween("B1", "C"))
	}
	if got := run(CiscoIOS); got != 1 {
		t.Errorf("cisco-ios: %d messages, want 1 duplicate", got)
	}
	if got := run(Junos); got != 0 {
		t.Errorf("junos: %d messages, want 0", got)
	}
}

func TestTraceBetweenAndClear(t *testing.T) {
	n, a, _ := pair(t, CiscoIOS, CiscoIOS, SessionConfig{})
	n.EnableTrace()
	a.Originate(pfx("192.0.2.0/24"), nil)
	n.Run()
	if len(n.TraceBetween("A", "B")) != 1 {
		t.Errorf("A→B trace = %d", len(n.TraceBetween("A", "B")))
	}
	if len(n.TraceBetween("B", "A")) != 0 {
		t.Errorf("B→A trace = %d", len(n.TraceBetween("B", "A")))
	}
	n.ClearTrace()
	if len(n.Trace()) != 0 {
		t.Error("ClearTrace left messages")
	}
}

func TestTracingOffByDefault(t *testing.T) {
	// No sink installed: messages are delivered but nothing is retained.
	n, a, b := pair(t, CiscoIOS, CiscoIOS, SessionConfig{})
	p := pfx("192.0.2.0/24")
	a.Originate(p, nil)
	n.Run()
	if b.Best(p) == nil {
		t.Fatal("route did not propagate without a sink")
	}
	if got := n.Trace(); got != nil {
		t.Errorf("Trace() = %d messages without a sink, want none", len(got))
	}
	if got := n.TraceBetween("A", "B"); got != nil {
		t.Errorf("TraceBetween = %d messages without a sink", len(got))
	}
	// Installing a sink mid-run captures from the next delivery on.
	buf := n.EnableTrace()
	a.Originate(p, bgp.Communities{bgp.NewCommunity(65001, 1)})
	n.Run()
	if len(buf.Messages()) != 1 {
		t.Errorf("buffer saw %d messages after install, want 1", len(buf.Messages()))
	}
	if n.EnableTrace() != buf {
		t.Error("EnableTrace replaced the already-installed buffer")
	}
}

func TestFilterAndMultiSink(t *testing.T) {
	n := NewNetwork(start)
	a := n.AddRouter("A", 65001, addr("10.255.0.1"), CiscoIOS)
	b := n.AddRouter("B", 65002, addr("10.255.0.2"), CiscoIOS)
	c := n.AddRouter("C", 65003, addr("10.255.0.3"), CiscoIOS)
	n.Connect(a, b, SessionConfig{AAddr: addr("10.0.1.1"), BAddr: addr("10.0.1.2")})
	n.Connect(b, c, SessionConfig{AAddr: addr("10.0.2.2"), BAddr: addr("10.0.2.3")})
	all := NewTraceBuffer()
	bc := NewTraceBuffer()
	n.SetSink(MultiSink(nil, all, FilterSink(func(m TracedMessage) bool {
		return m.From == "B" && m.To == "C"
	}, bc)))
	a.Originate(pfx("192.0.2.0/24"), nil)
	n.Run()
	if len(all.Messages()) != 2 {
		t.Errorf("full buffer = %d messages, want 2", len(all.Messages()))
	}
	if len(bc.Messages()) != 1 || bc.Messages()[0].From != "B" {
		t.Errorf("filtered buffer = %+v, want exactly the B→C message", bc.Messages())
	}
}

func TestDuplicateRouterNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate name did not panic")
		}
	}()
	n := NewNetwork(start)
	n.AddRouter("A", 1, addr("10.0.0.1"), CiscoIOS)
	n.AddRouter("A", 2, addr("10.0.0.2"), CiscoIOS)
}

func TestPolicyActions(t *testing.T) {
	attrs := bgp.PathAttrs{ASPath: bgp.NewASPath(5)}
	p := Policy{AddCommunity(bgp.NewCommunity(1, 2))}
	if !p.Run(&attrs) {
		t.Fatal("policy rejected")
	}
	if !attrs.Communities.Contains(bgp.NewCommunity(1, 2)) {
		t.Error("AddCommunity failed")
	}

	attrs.Communities = bgp.Communities{1, 2, 3}
	all := Policy{StripAllCommunities()}
	all.Run(&attrs)
	if len(attrs.Communities) != 0 {
		t.Error("StripAllCommunities failed")
	}

	var nilPolicy Policy
	if !nilPolicy.Run(&attrs) {
		t.Error("nil policy must accept")
	}
}

func TestPeerAccessors(t *testing.T) {
	n, a, _ := pair(t, CiscoIOS, CiscoIOS, SessionConfig{})
	a.Originate(pfx("192.0.2.0/24"), nil)
	n.Run()
	if len(a.Peers()) != 1 {
		t.Fatalf("Peers() = %d", len(a.Peers()))
	}
	pa := a.Peers()[0]
	if !pa.Up() {
		t.Error("session should be up")
	}
	if pa.AdjInLen() != 0 {
		t.Errorf("A learned %d routes from B", pa.AdjInLen())
	}
	if pa.Remote.AdjInLen() != 1 {
		t.Errorf("B learned %d routes from A, want 1", pa.Remote.AdjInLen())
	}
	if a.LocRIBLen() != 1 {
		t.Errorf("LocRIBLen() = %d", a.LocRIBLen())
	}
}

func TestMRAICoalescesAnnouncements(t *testing.T) {
	// B rate-limits exports to C with a 30s MRAI. Three community flips at
	// the origin inside one interval must reach C as the initial update
	// plus one coalesced update carrying only the final state.
	n := NewNetwork(start)
	a := n.AddRouter("A", 65001, addr("10.255.0.1"), CiscoIOS)
	b := n.AddRouter("B", 65002, addr("10.255.0.2"), CiscoIOS)
	c := n.AddRouter("C", 65003, addr("10.255.0.3"), CiscoIOS)
	n.Connect(a, b, SessionConfig{AAddr: addr("10.0.1.1"), BAddr: addr("10.0.1.2")})
	n.Connect(b, c, SessionConfig{
		AAddr: addr("10.0.2.2"), BAddr: addr("10.0.2.3"),
		AMRAI: 30 * time.Second,
	})
	p := pfx("192.0.2.0/24")
	a.Originate(p, bgp.Communities{bgp.NewCommunity(65001, 1)})
	n.Run()
	// Let the initial advertisement's MRAI interval lapse, then flip the
	// communities three times in quick succession.
	n.Engine.RunUntil(n.Engine.Now().Add(time.Minute))
	n.EnableTrace()

	for i := uint16(2); i <= 4; i++ {
		a.Originate(p, bgp.Communities{bgp.NewCommunity(65001, i)})
		n.Engine.RunUntil(n.Engine.Now().Add(2 * time.Second))
	}
	n.Run()

	msgs := n.TraceBetween("B", "C")
	if len(msgs) != 2 {
		t.Fatalf("B→C messages = %d, want 2 (first + coalesced)", len(msgs))
	}
	final := msgs[len(msgs)-1]
	if !final.Update.Attrs.Communities.Contains(bgp.NewCommunity(65001, 4)) {
		t.Errorf("coalesced update carries %v, want the final state 65001:4",
			final.Update.Attrs.Communities)
	}
	// Without MRAI, A→B saw every flip.
	if got := len(n.TraceBetween("A", "B")); got != 3 {
		t.Errorf("A→B messages = %d, want 3", got)
	}
	// C converged to the final state.
	best := c.Best(p)
	if best == nil || !best.Attrs.Communities.Contains(bgp.NewCommunity(65001, 4)) {
		t.Errorf("C best = %+v", best)
	}
}

func TestMRAIDoesNotDelayWithdrawals(t *testing.T) {
	n := NewNetwork(start)
	a := n.AddRouter("A", 65001, addr("10.255.0.1"), CiscoIOS)
	b := n.AddRouter("B", 65002, addr("10.255.0.2"), CiscoIOS)
	n.Connect(a, b, SessionConfig{
		AAddr: addr("10.0.1.1"), BAddr: addr("10.0.1.2"),
		AMRAI: time.Hour,
	})
	p := pfx("192.0.2.0/24")
	a.Originate(p, nil)
	n.Run()
	// Immediately withdraw: must reach B despite the huge MRAI.
	a.WithdrawOriginated(p)
	n.Run()
	if b.Best(p) != nil {
		t.Error("withdrawal was rate-limited")
	}
}

func TestMRAIFlushAfterWithdrawReannounce(t *testing.T) {
	// Announce, then inside the MRAI window withdraw and re-announce with
	// new attributes: the flush must deliver the re-announced state.
	n := NewNetwork(start)
	a := n.AddRouter("A", 65001, addr("10.255.0.1"), CiscoIOS)
	b := n.AddRouter("B", 65002, addr("10.255.0.2"), CiscoIOS)
	n.Connect(a, b, SessionConfig{
		AAddr: addr("10.0.1.1"), BAddr: addr("10.0.1.2"),
		AMRAI: 20 * time.Second,
	})
	p := pfx("192.0.2.0/24")
	a.Originate(p, bgp.Communities{bgp.NewCommunity(65001, 1)})
	n.Run()
	a.WithdrawOriginated(p)
	n.Engine.RunUntil(n.Engine.Now().Add(time.Second))
	a.Originate(p, bgp.Communities{bgp.NewCommunity(65001, 2)})
	n.Run()
	best := b.Best(p)
	if best == nil {
		t.Fatal("B lost the route")
	}
	if !best.Attrs.Communities.Contains(bgp.NewCommunity(65001, 2)) {
		t.Errorf("B holds %v, want the re-announced 65001:2", best.Attrs.Communities)
	}
}

func TestMRAIWithdrawDuringPendingFlush(t *testing.T) {
	// Announce, change attributes inside the MRAI window (flush deferred),
	// then withdraw for good. The withdrawal goes out immediately, and the
	// deferred flush must NOT re-advertise anything when it expires.
	n := NewNetwork(start)
	a := n.AddRouter("A", 65001, addr("10.255.0.1"), CiscoIOS)
	b := n.AddRouter("B", 65002, addr("10.255.0.2"), CiscoIOS)
	n.Connect(a, b, SessionConfig{
		AAddr: addr("10.0.1.1"), BAddr: addr("10.0.1.2"),
		AMRAI: 30 * time.Second,
	})
	buf := n.EnableTrace()
	p := pfx("192.0.2.0/24")
	a.Originate(p, bgp.Communities{bgp.NewCommunity(65001, 1)})
	n.Run()
	a.Originate(p, bgp.Communities{bgp.NewCommunity(65001, 2)}) // deferred
	n.Engine.RunUntil(n.Engine.Now().Add(time.Second))
	a.WithdrawOriginated(p)
	n.Run() // drains past the flush expiry
	msgs := buf.Between("A", "B")
	if len(msgs) != 2 {
		t.Fatalf("A→B messages = %d, want announce + withdraw only", len(msgs))
	}
	if !msgs[len(msgs)-1].Withdraw {
		t.Errorf("last message = %v, want the withdrawal", msgs[len(msgs)-1].Update)
	}
	if b.Best(p) != nil {
		t.Error("B still holds the route")
	}
}

func TestMRAISessionResetDuringPendingFlush(t *testing.T) {
	// Reset the session while a flush is pending: the stale closure must
	// not fire after re-establishment, the initial table exchange must not
	// be rate-limited by pre-reset advertisement times, and no duplicate
	// beyond the table exchange may appear.
	n := NewNetwork(start)
	a := n.AddRouter("A", 65001, addr("10.255.0.1"), CiscoIOS)
	b := n.AddRouter("B", 65002, addr("10.255.0.2"), CiscoIOS)
	n.Connect(a, b, SessionConfig{
		AAddr: addr("10.0.1.1"), BAddr: addr("10.0.1.2"),
		AMRAI: 30 * time.Second,
	})
	p := pfx("192.0.2.0/24")
	a.Originate(p, bgp.Communities{bgp.NewCommunity(65001, 1)})
	n.Run()
	a.Originate(p, bgp.Communities{bgp.NewCommunity(65001, 2)}) // deferred
	n.Engine.RunUntil(n.Engine.Now().Add(time.Second))
	if err := n.SetSession("A", "B", false); err != nil {
		t.Fatal(err)
	}
	n.Run()
	buf := n.EnableTrace()
	if err := n.SetSession("A", "B", true); err != nil {
		t.Fatal(err)
	}
	// Re-establishment resends the table immediately: lastAdv must have
	// been cleared, or the exchange would be deferred ~29s.
	n.Engine.RunUntil(n.Engine.Now().Add(5 * time.Second))
	msgs := buf.Between("A", "B")
	if len(msgs) != 1 {
		t.Fatalf("A→B after re-establish = %d messages, want the immediate table exchange only", len(msgs))
	}
	if !msgs[0].Update.Attrs.Communities.Contains(bgp.NewCommunity(65001, 2)) {
		t.Errorf("table exchange carries %v, want current state 65001:2",
			msgs[0].Update.Attrs.Communities)
	}
	// Run past the stale flush expiry: nothing further may be sent.
	n.Run()
	n.Engine.RunUntil(n.Engine.Now().Add(2 * time.Minute))
	if got := len(buf.Between("A", "B")); got != 1 {
		t.Errorf("stale pending flush fired: %d messages total, want 1", got)
	}
}

func TestOriginateDoesNotAliasCallerCommunities(t *testing.T) {
	// Canonical() may return the caller's own slice; Originate must
	// decouple the RIB from it so later caller mutation cannot corrupt
	// routing state.
	n, a, b := pair(t, CiscoIOS, CiscoIOS, SessionConfig{})
	p := pfx("192.0.2.0/24")
	comms := bgp.Communities{bgp.NewCommunity(65001, 1), bgp.NewCommunity(65001, 2)}
	a.Originate(p, comms)
	n.Run()
	comms[0] = bgp.NewCommunity(65001, 999) // caller scribbles on its slice
	best := a.Best(p)
	if best == nil || !best.Attrs.Communities.Equal(bgp.Communities{
		bgp.NewCommunity(65001, 1), bgp.NewCommunity(65001, 2),
	}) {
		t.Errorf("locRIB communities corrupted by caller mutation: %v", best.Attrs.Communities)
	}
	if got := b.Best(p); got == nil || got.Attrs.Communities.Contains(bgp.NewCommunity(65001, 999)) {
		t.Errorf("peer saw mutated communities: %+v", got)
	}
}

func TestDampeningSuppressesFlappingRoute(t *testing.T) {
	// A flaps its origin; B dampens A's routes; C sits behind B. After
	// enough flaps the route is suppressed: C loses it and stops hearing
	// updates until the penalty decays.
	cfg := dampening.DefaultConfig()
	n := NewNetwork(start)
	a := n.AddRouter("A", 65001, addr("10.255.0.1"), CiscoIOS)
	b := n.AddRouter("B", 65002, addr("10.255.0.2"), CiscoIOS)
	c := n.AddRouter("C", 65003, addr("10.255.0.3"), CiscoIOS)
	n.Connect(a, b, SessionConfig{
		AAddr: addr("10.0.1.1"), BAddr: addr("10.0.1.2"),
		BDampening: &cfg,
	})
	n.Connect(b, c, SessionConfig{AAddr: addr("10.0.2.2"), BAddr: addr("10.0.2.3")})
	p := pfx("192.0.2.0/24")

	// Three rapid withdraw/announce cycles: 3×1000 penalty > 2000.
	for i := 0; i < 3; i++ {
		a.Originate(p, nil)
		n.Run()
		a.WithdrawOriginated(p)
		n.Run()
	}
	a.Originate(p, nil)
	n.Engine.RunUntil(n.Engine.Now().Add(time.Second))
	if c.Best(p) != nil {
		t.Fatal("flapping route not suppressed at C")
	}

	// Penalty decays below 750 after ~ 2 half-lives from ~3000; the
	// scheduled reuse reinstates the held route.
	n.Engine.RunUntil(n.Engine.Now().Add(2 * time.Hour))
	n.Run()
	if c.Best(p) == nil {
		t.Fatal("suppressed route never reinstated after decay")
	}
}

func TestDampeningLeavesStableRoutesAlone(t *testing.T) {
	cfg := dampening.DefaultConfig()
	n, a, b := pair(t, CiscoIOS, CiscoIOS, SessionConfig{
		BDampening: &cfg,
	})
	p := pfx("192.0.2.0/24")
	a.Originate(p, nil)
	n.Run()
	if b.Best(p) == nil {
		t.Fatal("stable route blocked by dampening")
	}
	// A single attribute change is penalized but far below suppression.
	a.Originate(p, bgp.Communities{bgp.NewCommunity(65001, 7)})
	n.Run()
	best := b.Best(p)
	if best == nil || !best.Attrs.Communities.Contains(bgp.NewCommunity(65001, 7)) {
		t.Fatalf("single change suppressed: %+v", best)
	}
}

func TestDampeningReducesDownstreamMessages(t *testing.T) {
	run := func(useDamp bool) int {
		n := NewNetwork(start)
		a := n.AddRouter("A", 65001, addr("10.255.0.1"), CiscoIOS)
		b := n.AddRouter("B", 65002, addr("10.255.0.2"), CiscoIOS)
		c := n.AddRouter("C", 65003, addr("10.255.0.3"), CiscoIOS)
		scfg := SessionConfig{AAddr: addr("10.0.1.1"), BAddr: addr("10.0.1.2")}
		if useDamp {
			dcfg := dampening.DefaultConfig()
			scfg.BDampening = &dcfg
		}
		n.Connect(a, b, scfg)
		n.Connect(b, c, SessionConfig{AAddr: addr("10.0.2.2"), BAddr: addr("10.0.2.3")})
		n.EnableTrace()
		p := pfx("192.0.2.0/24")
		// Flap faster than the penalty can decay; advance time in bounded
		// steps so scheduled reuse events stay in the future.
		for i := 0; i < 8; i++ {
			a.Originate(p, nil)
			n.Engine.RunUntil(n.Engine.Now().Add(10 * time.Second))
			a.WithdrawOriginated(p)
			n.Engine.RunUntil(n.Engine.Now().Add(10 * time.Second))
		}
		return len(n.TraceBetween("B", "C"))
	}
	plain, damped := run(false), run(true)
	if damped >= plain {
		t.Errorf("dampening did not reduce messages: %d vs %d", damped, plain)
	}
}
