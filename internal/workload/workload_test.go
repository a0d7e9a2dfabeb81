package workload

import (
	"slices"
	"testing"
	"time"

	"repro/internal/beacon"
	"repro/internal/classify"
	"repro/internal/stream"
)

var day = time.Date(2020, 3, 15, 0, 0, 0, 0, time.UTC)

// smallDayConfig keeps unit tests fast.
func smallDayConfig() DayConfig {
	cfg := DefaultDayConfig(day)
	cfg.Collectors = 3
	cfg.PeersPerCollector = 8
	cfg.PrefixesV4 = 120
	cfg.PrefixesV6 = 12
	return cfg
}

func smallBeaconConfig() BeaconConfig {
	cfg := DefaultBeaconConfig(day)
	cfg.Collectors = 4
	cfg.PeersPerCollector = 8
	return cfg
}

// dayEvents is the generated day globally time-ordered: the merge of its
// per-session sources.
func dayEvents(cfg DayConfig) []classify.Event {
	_, sources := DaySources(cfg)
	return stream.Collect(stream.Merge(sources...))
}

// beaconEvents is dayEvents for the beacon generator.
func beaconEvents(cfg BeaconConfig) []classify.Event {
	_, sources := BeaconSources(cfg)
	return stream.Collect(stream.Merge(sources...))
}

// classifyAll counts the in-window events of evs in one classification
// pass.
func classifyAll(evs []classify.Event, inWindow func(classify.Event) bool) classify.Counts {
	var counts classify.CountsAnalyzer
	classify.RunAll(slices.Values(evs), inWindow, &counts)
	return counts.Counts
}

func TestDaySourcesDeterministic(t *testing.T) {
	a := dayEvents(smallDayConfig())
	b := dayEvents(smallDayConfig())
	if len(a) != len(b) {
		t.Fatalf("event counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		x, y := a[i], b[i]
		if !x.Time.Equal(y.Time) || x.Prefix != y.Prefix || x.PeerAddr != y.PeerAddr ||
			x.Withdraw != y.Withdraw || !x.ASPath.Equal(y.ASPath) || !x.Communities.Equal(y.Communities) {
			t.Fatalf("event %d differs:\n%+v\n%+v", i, x, y)
		}
	}
	// A different seed produces a different stream.
	cfg := smallDayConfig()
	cfg.Seed++
	c := dayEvents(cfg)
	if len(c) == len(a) {
		same := true
		for i := range c {
			if !c[i].Time.Equal(a[i].Time) {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical datasets")
		}
	}
}

func TestDaySourcesMergeSorted(t *testing.T) {
	evs := dayEvents(smallDayConfig())
	if len(evs) == 0 {
		t.Fatal("no events")
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Time.Before(evs[i-1].Time) {
			t.Fatalf("events out of order at %d", i)
		}
	}
}

func TestDaySourcesWarmup(t *testing.T) {
	cfg := smallDayConfig()
	var warm, inday int
	for _, e := range dayEvents(cfg) {
		if cfg.InWindow(e) {
			inday++
		} else {
			warm++
			if e.Withdraw {
				t.Error("warm-up events must be announcements")
			}
			if !e.Time.Before(cfg.Day) {
				t.Error("non-window event after day start")
			}
		}
	}
	if warm == 0 || inday == 0 {
		t.Fatalf("warm=%d inday=%d", warm, inday)
	}
}

func TestDayTypeSharesMatchTable2(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a full-scale synthetic day; skipped in -short mode")
	}
	// Paper Table 2 (d_mar20): pc 33.7, pn 15.1, nc 24.5, nn 25.7,
	// xc 0.3, xn 0.7. The synthetic mechanisms should land near these.
	cfg := DefaultDayConfig(day)
	c := classifyAll(dayEvents(cfg), cfg.InWindow)
	checks := []struct {
		ty       classify.Type
		lo, hi   float64
		paperPct float64
	}{
		{classify.PC, 0.27, 0.42, 33.7},
		{classify.PN, 0.09, 0.22, 15.1},
		{classify.NC, 0.18, 0.32, 24.5},
		{classify.NN, 0.15, 0.32, 25.7},
		{classify.XC, 0, 0.02, 0.3},
		{classify.XN, 0, 0.03, 0.7},
	}
	for _, ck := range checks {
		got := c.Share(ck.ty)
		if got < ck.lo || got > ck.hi {
			t.Errorf("%v share = %.1f%%, want in [%.0f%%, %.0f%%] (paper: %.1f%%)",
				ck.ty, 100*got, 100*ck.lo, 100*ck.hi, ck.paperPct)
		}
	}
	// Headline: around half of announcements signal no path change.
	if s := c.NoPathChangeShare(); s < 0.40 || s > 0.60 {
		t.Errorf("nc+nn share = %.1f%%, want ~50%%", 100*s)
	}
	// Withdrawals are a few percent of announcements (paper: 38.5M/1008M).
	wr := float64(c.Withdrawals) / float64(c.Announcements())
	if wr < 0.015 || wr > 0.09 {
		t.Errorf("withdrawal ratio = %.3f", wr)
	}
}

func TestDayCommunityPrevalence(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a full-scale synthetic day; skipped in -short mode")
	}
	// ~73% of announcements carried communities in d_mar20.
	cfg := DefaultDayConfig(day)
	var withComm, total int
	for _, e := range dayEvents(cfg) {
		if !cfg.InWindow(e) || e.Withdraw {
			continue
		}
		total++
		if len(e.Communities) > 0 {
			withComm++
		}
	}
	frac := float64(withComm) / float64(total)
	if frac < 0.60 || frac > 0.85 {
		t.Errorf("communities on %.1f%% of announcements, want ~73%%", 100*frac)
	}
}

func TestHistoricalGrowth(t *testing.T) {
	c2010 := HistoricalDayConfig(2010)
	c2020 := HistoricalDayConfig(2020)
	if c2010.PeersPerCollector*2 > c2020.PeersPerCollector*3 {
		t.Errorf("sessions should roughly double: %d -> %d", c2010.PeersPerCollector, c2020.PeersPerCollector)
	}
	if c2010.TaggedFrac >= c2020.TaggedFrac {
		t.Error("community adoption should grow")
	}
	// Clamping.
	if HistoricalDayConfig(2005).Day.Year() != 2010 || HistoricalDayConfig(2030).Day.Year() != 2020 {
		t.Error("year clamping broken")
	}
	// Volume grows across the decade.
	small := func(y int) int {
		cfg := HistoricalDayConfig(y)
		cfg.Collectors = 3
		cfg.PeersPerCollector = maxInt(3, cfg.PeersPerCollector/3)
		cfg.PrefixesV4 = 150
		cfg.PrefixesV6 = 15
		n := 0
		for _, e := range dayEvents(cfg) {
			if cfg.InWindow(e) && !e.Withdraw {
				n++
			}
		}
		return n
	}
	if a, b := small(2010), small(2020); a >= b {
		t.Errorf("announcement volume should grow: 2010=%d 2020=%d", a, b)
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func TestBeaconSharesMatchTable2(t *testing.T) {
	// Paper Table 2 (d_beacon): pc 44.6, pn 29.9, nc 13.8, nn 11.2.
	cfg := DefaultBeaconConfig(day)
	c := classifyAll(beaconEvents(cfg), cfg.InWindow)
	checks := []struct {
		ty     classify.Type
		lo, hi float64
	}{
		{classify.PC, 0.36, 0.52},
		{classify.PN, 0.22, 0.38},
		{classify.NC, 0.08, 0.24},
		{classify.NN, 0.04, 0.18},
	}
	for _, ck := range checks {
		if got := c.Share(ck.ty); got < ck.lo || got > ck.hi {
			t.Errorf("%v share = %.1f%%, want [%.0f%%, %.0f%%]", ck.ty, 100*got, 100*ck.lo, 100*ck.hi)
		}
	}
	// pc must dominate in the beacon view, unlike nn in the wild view.
	if c.Share(classify.PC) <= c.Share(classify.PN) {
		t.Error("pc should be the dominant beacon type")
	}
}

func TestBeaconWithdrawalsPerStream(t *testing.T) {
	cfg := smallBeaconConfig()
	// Every stream sees 6 withdrawals (one per withdrawal phase).
	type sk struct {
		s classify.SessionKey
		p string
	}
	wd := make(map[sk]int)
	for _, e := range beaconEvents(cfg) {
		if e.Withdraw {
			wd[sk{e.Session(), e.Prefix.String()}]++
		}
	}
	streams := cfg.Collectors * cfg.PeersPerCollector * 15
	if len(wd) != streams {
		t.Fatalf("streams with withdrawals = %d, want %d", len(wd), streams)
	}
	for k, n := range wd {
		if n != 6 {
			t.Fatalf("stream %v has %d withdrawals, want 6", k, n)
		}
	}
}

func TestBeaconEventsRespectPhases(t *testing.T) {
	cfg := smallBeaconConfig()
	for _, e := range beaconEvents(cfg) {
		if got := cfg.Schedule.PhaseAt(e.Time); got == beacon.PhaseOutside {
			t.Fatalf("event at %v falls outside both phase windows", e.Time)
		}
		if e.Withdraw {
			if got := cfg.Schedule.PhaseAt(e.Time); got != beacon.PhaseWithdrawal {
				t.Fatalf("withdrawal at %v not in a withdrawal phase", e.Time)
			}
		}
	}
}

func TestBeaconDeterministic(t *testing.T) {
	a := beaconEvents(smallBeaconConfig())
	b := beaconEvents(smallBeaconConfig())
	if len(a) != len(b) {
		t.Fatalf("event counts differ")
	}
	for i := range a {
		if !a[i].Time.Equal(b[i].Time) || a[i].Prefix != b[i].Prefix {
			t.Fatalf("event %d differs", i)
		}
	}
}

func TestPeerKindMix(t *testing.T) {
	peers := buildPeers(1, 10, 50, 0.2, 0.1, 0.7)
	var egress, ingress, transparent, tagged int
	for _, p := range peers {
		switch p.Kind {
		case PeerCleansEgress:
			egress++
		case PeerCleansIngress:
			ingress++
		default:
			transparent++
		}
		if p.TaggedUpstream {
			tagged++
		}
	}
	n := float64(len(peers))
	if f := float64(egress) / n; f < 0.12 || f > 0.28 {
		t.Errorf("egress cleaners = %.2f, want ~0.2", f)
	}
	if f := float64(ingress) / n; f < 0.04 || f > 0.17 {
		t.Errorf("ingress cleaners = %.2f, want ~0.1", f)
	}
	if f := float64(tagged) / n; f < 0.6 || f > 0.8 {
		t.Errorf("tagged = %.2f, want ~0.7", f)
	}
	// Collector naming.
	if peers[0].Collector != "rrc00" {
		t.Errorf("collector = %q", peers[0].Collector)
	}
}

func TestCollectorNames(t *testing.T) {
	if collectorName(0) != "rrc00" || collectorName(14) != "rrc14" {
		t.Error("rrc names")
	}
	if collectorName(15) != "route-views00" || collectorName(20) != "route-views05" {
		t.Errorf("route-views names: %s", collectorName(15))
	}
}

func TestPoisson(t *testing.T) {
	rng := streamRNG(1, 2, 3)
	var sum int
	const n = 5000
	for i := 0; i < n; i++ {
		sum += poisson(rng, 1.2)
	}
	mean := float64(sum) / n
	if mean < 1.0 || mean > 1.4 {
		t.Errorf("poisson mean = %.2f, want ~1.2", mean)
	}
	if poisson(rng, 0) != 0 || poisson(rng, -1) != 0 {
		t.Error("non-positive mean should yield 0")
	}
}

func TestStreamRNGIndependence(t *testing.T) {
	a := streamRNG(1, 5, 7).Uint64()
	b := streamRNG(1, 5, 7).Uint64()
	c := streamRNG(1, 5, 8).Uint64()
	d := streamRNG(2, 5, 7).Uint64()
	if a != b {
		t.Error("same parts must give same stream")
	}
	if a == c || a == d {
		t.Error("different parts/seeds should give different streams")
	}
}

func TestGeoCommunitySetShape(t *testing.T) {
	rng := streamRNG(1, 1)
	for i := 0; i < 100; i++ {
		set := geoCommunitySet(rng, 3356, i%64)
		if len(set) < 1 || len(set) > 3 {
			t.Fatalf("set size %d", len(set))
		}
		for _, c := range set {
			if c.ASN() != 3356 {
				t.Fatalf("community %v not owned by tagger", c)
			}
		}
		// City code always present.
		found := false
		for _, c := range set {
			if c.Value() >= 2000 {
				found = true
			}
		}
		if !found {
			t.Fatalf("no city community in %v", set)
		}
	}
}
