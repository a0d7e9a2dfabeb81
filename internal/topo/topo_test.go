package topo

import (
	"fmt"
	"net/netip"
	"slices"
	"testing"
	"time"

	"repro/internal/classify"
	"repro/internal/router"
)

var start = time.Date(2020, 3, 15, 0, 0, 0, 0, time.UTC)

func TestBuildLabConverges(t *testing.T) {
	lab, err := BuildLab(start, LabConfig{Behavior: router.CiscoIOS, GeoTags: true})
	if err != nil {
		t.Fatal(err)
	}
	// Every router except Z1's own origin view reaches the prefix.
	for _, r := range []*router.Router{lab.C1, lab.X1, lab.Y1, lab.Y2, lab.Y3} {
		if r.Best(lab.Prefix) == nil {
			t.Errorf("%s has no route to the beacon prefix", r.Name)
		}
	}
	// Collector path is X Y Z.
	best := lab.C1.Best(lab.Prefix)
	if got := best.Attrs.ASPath.String(); got != "65100 65200 65300" {
		t.Errorf("collector path = %q", got)
	}
	// Y1 prefers Y2 (lower router ID) and thus carries Y:300.
	y1 := lab.Y1.Best(lab.Prefix)
	if !y1.Attrs.Communities.Contains(TagY300) {
		t.Errorf("Y1 communities = %v, want Y:300", y1.Attrs.Communities)
	}
	// Converged network has no queued events.
	if lab.Net.Engine.Pending() != 0 {
		t.Error("events pending after convergence")
	}
}

func TestBuildInternetConverges(t *testing.T) {
	cfg := DefaultInternetConfig(router.CiscoIOS)
	inet, err := BuildInternet(start, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if inet.Origin == nil || inet.Collector == nil {
		t.Fatal("missing origin or collector")
	}
	if len(inet.CollectorPeerNames) != cfg.CollectorPeers {
		t.Errorf("collector peers = %d", len(inet.CollectorPeerNames))
	}
	// Nothing originated yet: collector table is empty.
	if inet.Collector.LocRIBLen() != 0 {
		t.Errorf("collector already has %d routes", inet.Collector.LocRIBLen())
	}
}

func TestInternetReachability(t *testing.T) {
	inet, err := BuildInternet(start, DefaultInternetConfig(router.CiscoIOS))
	if err != nil {
		t.Fatal(err)
	}
	p := netip.MustParsePrefix("84.205.64.0/24")
	inet.Origin.Originate(p, nil)
	if _, err := inet.Net.Run(); err != nil {
		t.Fatal(err)
	}
	best := inet.Collector.Best(p)
	if best == nil {
		t.Fatal("collector did not learn the origin's prefix")
	}
	if o, ok := best.Attrs.ASPath.Origin(); !ok || o != inet.Origin.AS {
		t.Errorf("collector path %v does not end at the origin", best.Attrs.ASPath)
	}
	// With geo tagging, the collector's best route carries at least one
	// tier-1 community (unless it came through a cleaning peer).
	cleaned := false
	if len(best.Attrs.Communities) == 0 {
		cleaned = true
	}
	_ = cleaned // either outcome is topologically valid; just ensure no panic
}

// runBeaconCycle drives one announce/withdraw beacon cycle from the
// origin stub: announce at the current instant, run to convergence,
// advance to the withdraw offset, withdraw, and reconverge. It returns
// the collector trace observed during the cycle.
func runBeaconCycle(inet *Internet, prefix netip.Prefix, gap time.Duration) ([]router.TracedMessage, error) {
	n := inet.Net
	n.ClearTrace()
	inet.Origin.Originate(prefix, nil)
	if _, err := n.Run(); err != nil {
		return nil, fmt.Errorf("topo: announce convergence: %w", err)
	}
	n.Engine.RunUntil(n.Engine.Now().Add(gap))
	inet.Origin.WithdrawOriginated(prefix)
	if _, err := n.Run(); err != nil {
		return nil, fmt.Errorf("topo: withdraw convergence: %w", err)
	}
	var out []router.TracedMessage
	for _, m := range n.Trace() {
		if m.To == "COLLECTOR" {
			out = append(out, m)
		}
	}
	return out, nil
}

// TestInternetPathExploration is the end-to-end protocol validation of §6:
// when the origin withdraws, asynchronous withdrawal propagation makes the
// collector observe alternate paths — and with geo tagging, alternate
// community sets — before the final withdrawal.
func TestInternetPathExploration(t *testing.T) {
	cfg := DefaultInternetConfig(router.CiscoIOS)
	cfg.Stubs = 4 // keep it fast; exploration needs only the core
	inet, err := BuildInternet(start, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := netip.MustParsePrefix("84.205.64.0/24")
	msgs, err := runBeaconCycle(inet, p, 2*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) == 0 {
		t.Fatal("no collector messages")
	}

	// Classify the collector's view per session.
	var evs []classify.Event
	announceTime := start
	withdrawPhase := announceTime.Add(2 * time.Hour)
	var exploredDuringWithdrawal int
	for _, m := range msgs {
		for _, prefix := range m.Update.Announced() {
			e := classify.Event{
				Time:        m.Time,
				Collector:   "COLLECTOR",
				PeerAS:      inet.PeerAS[m.From],
				PeerAddr:    inet.PeerAddr[m.From],
				Prefix:      prefix,
				ASPath:      m.Update.Attrs.ASPath,
				Communities: m.Update.Attrs.Communities.Canonical(),
			}
			evs = append(evs, e)
			if !m.Time.Before(withdrawPhase) {
				exploredDuringWithdrawal++
			}
		}
		for _, prefix := range m.Update.AllWithdrawn() {
			e := classify.Event{
				Time:     m.Time,
				PeerAS:   inet.PeerAS[m.From],
				PeerAddr: inet.PeerAddr[m.From],
				Prefix:   prefix, Withdraw: true,
				Collector: "COLLECTOR",
			}
			evs = append(evs, e)
		}
	}
	var tally classify.CountsAnalyzer
	classify.RunAll(slices.Values(evs), nil, &tally)
	counts := tally.Counts
	// Every collector peer must end with a withdrawal.
	if counts.Withdrawals == 0 {
		t.Error("no withdrawals reached the collector")
	}
	// Path exploration: announcements arrive during the withdrawal wave.
	if exploredDuringWithdrawal == 0 {
		t.Error("no path exploration observed at the collector")
	}
	// With geo tagging, exploration changes paths and/or communities.
	if counts.Of(classify.PC)+counts.Of(classify.PN)+counts.Of(classify.NC) == 0 {
		t.Errorf("no path/community changes classified: %+v", counts)
	}
}

// TestInternetCommunityExplorationRevealsMore verifies the §6 information
// asymmetry end to end: with geo tagging, strictly more distinct
// community attributes are observed during the withdrawal wave than in
// steady state.
func TestInternetCommunityExplorationRevealsMore(t *testing.T) {
	cfg := DefaultInternetConfig(router.CiscoIOS)
	cfg.Stubs = 4
	cfg.CleanEgressPeers = 0 // transparent peers only for this check
	inet, err := BuildInternet(start, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := netip.MustParsePrefix("84.205.64.0/24")

	inet.Net.ClearTrace()
	inet.Origin.Originate(p, nil)
	if _, err := inet.Net.Run(); err != nil {
		t.Fatal(err)
	}
	steady := communityKeys(inet, p)

	inet.Net.ClearTrace()
	inet.Origin.WithdrawOriginated(p)
	if _, err := inet.Net.Run(); err != nil {
		t.Fatal(err)
	}
	withdrawal := communityKeys(inet, p)

	onlyWithdrawal := 0
	for k := range withdrawal {
		if _, ok := steady[k]; !ok {
			onlyWithdrawal++
		}
	}
	if onlyWithdrawal == 0 {
		t.Errorf("withdrawal wave revealed no new community attributes (steady %d, withdrawal %d)",
			len(steady), len(withdrawal))
	}
}

// communityKeys collects distinct community attribute values seen at the
// collector in the current trace.
func communityKeys(inet *Internet, p netip.Prefix) map[string]struct{} {
	out := make(map[string]struct{})
	for _, m := range inet.Net.Trace() {
		if m.To != "COLLECTOR" || m.Withdraw {
			continue
		}
		for range m.Update.Announced() {
			key := m.Update.Attrs.Communities.Canonical().Key()
			if key != "" {
				out[key] = struct{}{}
			}
		}
	}
	return out
}

func TestInternetDeterministic(t *testing.T) {
	run := func() int {
		inet, err := BuildInternet(start, DefaultInternetConfig(router.BIRD2))
		if err != nil {
			t.Fatal(err)
		}
		msgs, err := runBeaconCycle(inet, netip.MustParsePrefix("84.205.64.0/24"), time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		return len(msgs)
	}
	if a, b := run(), run(); a != b {
		t.Errorf("non-deterministic: %d vs %d messages", a, b)
	}
}

func TestInternetConfigValidation(t *testing.T) {
	if _, err := BuildInternet(start, InternetConfig{Tier1: 1, Mids: 2, Stubs: 1, Behavior: router.CiscoIOS}); err == nil {
		t.Error("degenerate config accepted")
	}
	// CollectorPeers clamped to Mids.
	cfg := DefaultInternetConfig(router.CiscoIOS)
	cfg.CollectorPeers = 100
	inet, err := BuildInternet(start, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(inet.CollectorPeerNames) != cfg.Mids {
		t.Errorf("collector peers = %d, want clamped to %d", len(inet.CollectorPeerNames), cfg.Mids)
	}
}

func TestLabJunosConvergesIdentically(t *testing.T) {
	// Duplicate suppression must not change steady-state routing, only the
	// number of messages.
	for _, b := range router.AllBehaviors() {
		lab, err := BuildLab(start, LabConfig{Behavior: b, GeoTags: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := lab.FailY1Y2(); err != nil {
			t.Fatal(err)
		}
		best := lab.C1.Best(lab.Prefix)
		if best == nil {
			t.Fatalf("%s: collector lost the route", b.Name)
		}
		if got := best.Attrs.ASPath.String(); got != "65100 65200 65300" {
			t.Errorf("%s: path %q", b.Name, got)
		}
	}
}
