package labexp

import (
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/router"
	"repro/internal/topo"
)

// nonSuppressing are the vendor profiles that emit duplicates by default.
var nonSuppressing = []router.Behavior{router.CiscoIOS, router.CiscoIOSXR, router.BIRD1, router.BIRD2}

func TestExp1DuplicateOnNextHopChange(t *testing.T) {
	// Without communities, failing Y1–Y2 makes Y1 switch next hop to Y3.
	// The AS path is unchanged, yet non-Junos routers send an update to X1.
	for _, b := range nonSuppressing {
		res, err := Run(Exp1, b)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Y1toX1) != 1 {
			t.Errorf("%s: Y1→X1 messages = %d, want 1 duplicate", b.Name, len(res.Y1toX1))
			continue
		}
		m := res.Y1toX1[0]
		if m.Withdraw {
			t.Errorf("%s: got withdrawal, want duplicate announcement", b.Name)
		}
		if got := m.Update.Attrs.ASPath.String(); got != "65200 65300" {
			t.Errorf("%s: path %q, want unchanged 65200 65300", b.Name, got)
		}
		if len(m.Update.Attrs.Communities) != 0 {
			t.Errorf("%s: unexpected communities %v", b.Name, m.Update.Attrs.Communities)
		}
		// The duplicate must not propagate: no message reaches the collector.
		if len(res.X1toC1) != 0 {
			t.Errorf("%s: X1→C1 messages = %d, want 0", b.Name, len(res.X1toC1))
		}
	}
}

func TestExp1JunosSuppresses(t *testing.T) {
	res, err := Run(Exp1, router.Junos)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Y1toX1) != 0 {
		t.Errorf("Junos: Y1→X1 messages = %d, want 0", len(res.Y1toX1))
	}
	if len(res.X1toC1) != 0 {
		t.Errorf("Junos: X1→C1 messages = %d, want 0", len(res.X1toC1))
	}
}

func TestExp2CommunityChangeReachesCollector(t *testing.T) {
	// With geo tags and no filtering, the community change Y:300 → Y:400 is
	// the sole trigger for an update at the collector (type nc).
	for _, b := range router.AllBehaviors() {
		res, err := Run(Exp2, b)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Y1toX1) != 1 {
			t.Fatalf("%s: Y1→X1 messages = %d, want 1", b.Name, len(res.Y1toX1))
		}
		if got := res.Y1toX1[0].Update.Attrs.Communities.Canonical(); !got.Equal(bgp.Communities{topo.TagY400}) {
			t.Errorf("%s: Y1→X1 communities = %v, want [Y:400]", b.Name, got)
		}
		if len(res.X1toC1) != 1 {
			t.Fatalf("%s: X1→C1 messages = %d, want 1", b.Name, len(res.X1toC1))
		}
		m := res.X1toC1[0]
		if got := m.Update.Attrs.ASPath.String(); got != "65100 65200 65300" {
			t.Errorf("%s: collector path %q (must be unchanged)", b.Name, got)
		}
		if got := m.Update.Attrs.Communities.Canonical(); !got.Equal(bgp.Communities{topo.TagY400}) {
			t.Errorf("%s: collector communities = %v, want [Y:400]", b.Name, got)
		}
	}
}

func TestExp2BaselineCommunityIsY300(t *testing.T) {
	// Before the failure the collector must have seen Y:300 (Y2 preferred).
	lab, err := topo.BuildLab(testStart(), Exp2.Config(router.CiscoIOS))
	if err != nil {
		t.Fatal(err)
	}
	best := lab.C1.Best(lab.Prefix)
	if best == nil {
		t.Fatal("collector has no route before the event")
	}
	if !best.Attrs.Communities.Canonical().Equal(bgp.Communities{topo.TagY300}) {
		t.Errorf("pre-event communities = %v, want [Y:300]", best.Attrs.Communities)
	}
	if got := best.Attrs.ASPath.String(); got != "65100 65200 65300" {
		t.Errorf("pre-event path = %q", got)
	}
}

func TestExp3EgressCleaningStillEmitsDuplicate(t *testing.T) {
	// X1 strips communities toward C1, yet non-Junos X1 still sends an
	// update with unchanged path and no communities — the unnecessary nn.
	for _, b := range nonSuppressing {
		res, err := Run(Exp3, b)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Y1toX1) != 1 {
			t.Fatalf("%s: Y1→X1 = %d, want 1", b.Name, len(res.Y1toX1))
		}
		if len(res.X1toC1) != 1 {
			t.Fatalf("%s: X1→C1 = %d, want 1 duplicate", b.Name, len(res.X1toC1))
		}
		m := res.X1toC1[0]
		if m.Withdraw {
			t.Errorf("%s: got withdrawal", b.Name)
		}
		if len(m.Update.Attrs.Communities) != 0 {
			t.Errorf("%s: communities leaked through egress cleaning: %v", b.Name, m.Update.Attrs.Communities)
		}
		if got := m.Update.Attrs.ASPath.String(); got != "65100 65200 65300" {
			t.Errorf("%s: path %q changed", b.Name, got)
		}
	}
}

func TestExp3JunosSuppressesCollectorDuplicate(t *testing.T) {
	res, err := Run(Exp3, router.Junos)
	if err != nil {
		t.Fatal(err)
	}
	// Y1 still updates X1 (communities genuinely changed Y:300→Y:400).
	if len(res.Y1toX1) != 1 {
		t.Errorf("Junos: Y1→X1 = %d, want 1", len(res.Y1toX1))
	}
	// But X1's outbound attrs are unchanged after cleaning, so Junos stays
	// quiet toward the collector.
	if len(res.X1toC1) != 0 {
		t.Errorf("Junos: X1→C1 = %d, want 0", len(res.X1toC1))
	}
}

func TestExp4IngressCleaningSuppressesForAllVendors(t *testing.T) {
	// Cleaning on ingress keeps the communities out of X1's RIB entirely,
	// so no vendor emits the spurious update (§3: ingress vs egress
	// cleaning are distinguishable).
	for _, b := range router.AllBehaviors() {
		res, err := Run(Exp4, b)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Y1toX1) != 1 {
			t.Errorf("%s: Y1→X1 = %d, want 1 (Y1 is unaffected by X1 policy)", b.Name, len(res.Y1toX1))
		}
		if len(res.X1toC1) != 0 {
			t.Errorf("%s: X1→C1 = %d, want 0", b.Name, len(res.X1toC1))
		}
	}
}

// TestMatrixShape pins the §3 summary: every experiment across every
// vendor profile, as commstudy lab prints it.
func TestMatrixShape(t *testing.T) {
	for _, e := range []Experiment{Exp1, Exp2, Exp3, Exp4} {
		for _, b := range router.AllBehaviors() {
			res, err := Run(e, b)
			if err != nil {
				t.Fatal(err)
			}
			x1, c1 := len(res.Y1toX1), len(res.X1toC1)
			junos := b.Name == router.Junos.Name
			switch e {
			case Exp1:
				wantX1 := 1
				if junos {
					wantX1 = 0
				}
				if x1 != wantX1 || c1 != 0 {
					t.Errorf("%v/%s: X1=%d C1=%d", e, b.Name, x1, c1)
				}
			case Exp2:
				if x1 != 1 || c1 != 1 {
					t.Errorf("%v/%s: X1=%d C1=%d, want 1/1", e, b.Name, x1, c1)
				}
			case Exp3:
				wantC1 := 1
				if junos {
					wantC1 = 0
				}
				if x1 != 1 || c1 != wantC1 {
					t.Errorf("%v/%s: X1=%d C1=%d", e, b.Name, x1, c1)
				}
			case Exp4:
				if c1 != 0 {
					t.Errorf("%v/%s: C1=%d, want 0", e, b.Name, c1)
				}
			}
		}
	}
}

func TestLinkRestoreReconverges(t *testing.T) {
	lab, err := topo.BuildLab(testStart(), Exp2.Config(router.CiscoIOS))
	if err != nil {
		t.Fatal(err)
	}
	if err := lab.FailY1Y2(); err != nil {
		t.Fatal(err)
	}
	best := lab.C1.Best(lab.Prefix)
	if best == nil || !best.Attrs.Communities.Contains(topo.TagY400) {
		t.Fatalf("after failure: %+v", best)
	}
	if err := lab.Net.SetSession("Y1", "Y2", true); err != nil {
		t.Fatal(err)
	}
	if _, err := lab.Net.Run(); err != nil {
		t.Fatal(err)
	}
	best = lab.C1.Best(lab.Prefix)
	if best == nil || !best.Attrs.Communities.Contains(topo.TagY300) {
		t.Fatalf("after restore, collector should see Y:300 again: %+v", best)
	}
}

func TestOriginWithdrawalPropagates(t *testing.T) {
	lab, err := topo.BuildLab(testStart(), Exp2.Config(router.CiscoIOS))
	if err != nil {
		t.Fatal(err)
	}
	lab.Net.ClearTrace()
	lab.Z1.WithdrawOriginated(lab.Prefix)
	if _, err := lab.Net.Run(); err != nil {
		t.Fatal(err)
	}
	if lab.C1.Best(lab.Prefix) != nil {
		t.Error("collector still has a route after origin withdrawal")
	}
	msgs := lab.Net.TraceBetween("X1", "C1")
	if len(msgs) == 0 {
		t.Fatal("no messages reached the collector")
	}
	last := msgs[len(msgs)-1]
	if !last.Withdraw {
		t.Errorf("last collector message is not a withdrawal: %v", last.Update)
	}
}

func testStart() time.Time {
	return time.Date(2020, 3, 15, 0, 0, 0, 0, time.UTC)
}
