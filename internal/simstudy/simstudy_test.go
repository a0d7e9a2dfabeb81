package simstudy

import (
	"testing"
	"time"

	"repro/internal/beacon"
	"repro/internal/classify"
	"repro/internal/router"
)

var day = time.Date(2020, 3, 15, 0, 0, 0, 0, time.UTC)

func runDefault(t *testing.T, b router.Behavior) Result {
	t.Helper()
	cfg := DefaultConfig(b, day)
	cfg.Topology.Stubs = 4 // keep the graph small and fast
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSimulatedBeaconDayBasics(t *testing.T) {
	res := runDefault(t, router.CiscoIOS)
	if res.CollectorMessages == 0 {
		t.Fatal("collector saw nothing")
	}
	// Six withdrawal phases across 5 collector peers: roughly one
	// withdrawal per peer per phase. Protocol dynamics (in-flight
	// announcements overtaken by the withdrawal wave) can shave a few off.
	if res.Counts.Withdrawals < 24 || res.Counts.Withdrawals > 60 {
		t.Errorf("withdrawals = %d, want around 30 (5 peers x 6 phases)", res.Counts.Withdrawals)
	}
	if res.Counts.Announcements() <= res.Counts.Withdrawals {
		t.Errorf("announcements (%d) should exceed withdrawals (%d): re-announcement plus exploration",
			res.Counts.Announcements(), res.Counts.Withdrawals)
	}
}

func TestSimulatedDayShowsPathExploration(t *testing.T) {
	res := runDefault(t, router.CiscoIOS)
	// Path exploration produces announcements during withdrawal phases.
	exploration := 0
	for e := range res.Source() {
		if e.Withdraw {
			continue
		}
		if beacon.RIPE.PhaseAt(e.Time) == beacon.PhaseWithdrawal {
			exploration++
		}
	}
	if exploration == 0 {
		t.Error("no exploration announcements during withdrawal phases")
	}
	// And classified path/community changes, not only stream openers.
	changed := res.Counts.Of(classify.PC) + res.Counts.Of(classify.PN) +
		res.Counts.Of(classify.NC)
	if changed == 0 {
		t.Errorf("no change-type announcements: %+v", res.Counts)
	}
}

func TestSimulatedDayRevealsMoreDuringWithdrawals(t *testing.T) {
	// The §6 asymmetry must emerge from the protocol: more unique
	// community attributes are revealed during withdrawal phases than
	// during announcement phases.
	res := runDefault(t, router.CiscoIOS)
	if res.Revealed.Total == 0 {
		t.Fatal("no community attributes revealed")
	}
	if res.Revealed.WithdrawalOnly <= res.Revealed.AnnouncementOnly {
		t.Errorf("withdrawal-only %d should exceed announcement-only %d (total %d, ambiguous %d)",
			res.Revealed.WithdrawalOnly, res.Revealed.AnnouncementOnly,
			res.Revealed.Total, res.Revealed.Ambiguous)
	}
}

func TestSimulatedDayJunosSendsFewerMessages(t *testing.T) {
	ios := runDefault(t, router.CiscoIOS)
	junos := runDefault(t, router.Junos)
	if junos.CollectorMessages > ios.CollectorMessages {
		t.Errorf("junos (%d msgs) should not exceed cisco (%d msgs)",
			junos.CollectorMessages, ios.CollectorMessages)
	}
	// Routing outcome is identical: same number of withdrawals reach the
	// collector (reachability events are not suppressible).
	if junos.Counts.Withdrawals != ios.Counts.Withdrawals {
		t.Errorf("withdrawals differ: junos %d, ios %d",
			junos.Counts.Withdrawals, ios.Counts.Withdrawals)
	}
}

func TestSimulatedDayDeterministic(t *testing.T) {
	a := runDefault(t, router.BIRD2)
	b := runDefault(t, router.BIRD2)
	if a.CollectorMessages != b.CollectorMessages || a.Revealed.Total != b.Revealed.Total {
		t.Errorf("non-deterministic: %d/%d vs %d/%d",
			a.CollectorMessages, a.Revealed.Total, b.CollectorMessages, b.Revealed.Total)
	}
}

func TestMultipleBeaconPrefixes(t *testing.T) {
	cfg := DefaultConfig(router.CiscoIOS, day)
	cfg.Topology.Stubs = 4
	cfg.BeaconPrefixes = 3
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	single := runDefault(t, router.CiscoIOS)
	if res.Counts.Withdrawals != 3*single.Counts.Withdrawals {
		t.Errorf("3 beacons: %d withdrawals, single: %d",
			res.Counts.Withdrawals, single.Counts.Withdrawals)
	}
}

func TestGeoTaggingOffRemovesCommunityReveals(t *testing.T) {
	cfg := DefaultConfig(router.CiscoIOS, day)
	cfg.Topology.Stubs = 4
	cfg.Topology.GeoTagging = false
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Revealed.Total != 0 {
		t.Errorf("without geo tagging nothing should be revealed, got %d", res.Revealed.Total)
	}
	// nc announcements disappear entirely: only path changes remain.
	if res.Counts.Of(classify.NC) != 0 {
		t.Errorf("nc = %d without communities", res.Counts.Of(classify.NC))
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := DefaultConfig(router.CiscoIOS, day)
	cfg.Topology.Tier1 = 0
	if _, err := Run(cfg); err == nil {
		t.Error("degenerate topology accepted")
	}
}

func TestSimulatedDayProducesNCAndNN(t *testing.T) {
	// With parallel sessions to the same tier-1 (different ingress tags)
	// and egress-cleaning collector peers, both unnecessary-update types
	// must emerge from protocol mechanics alone: nc from AS-path-identical
	// failover between ingress points, nn from cleaned community churn.
	res := runDefault(t, router.CiscoIOS)
	if res.Counts.Of(classify.NC) == 0 {
		t.Errorf("no nc announcements at the protocol level: %+v", res.Counts)
	}
	if res.Counts.Of(classify.NN) == 0 {
		t.Errorf("no nn announcements at the protocol level: %+v", res.Counts)
	}
	// And they occur during withdrawal phases (community exploration).
	cl := classify.New()
	ncInWithdrawal := 0
	for e := range res.Source() {
		r, ok := cl.Observe(e)
		if !ok {
			continue
		}
		if r.Type == classify.NC && beacon.RIPE.PhaseAt(e.Time) == beacon.PhaseWithdrawal {
			ncInWithdrawal++
		}
	}
	if ncInWithdrawal == 0 {
		t.Error("no nc announcements during withdrawal phases")
	}
}
