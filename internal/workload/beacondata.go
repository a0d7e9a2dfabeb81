package workload

import (
	"math/rand"
	"time"

	"repro/internal/beacon"
	"repro/internal/bgp"
	"repro/internal/classify"
)

// BeaconConfig parameterizes the d_beacon generator: updates for the RIPE
// beacon prefixes as observed across many collector sessions over one day.
type BeaconConfig struct {
	Seed int64
	Day  time.Time

	// Collectors and PeersPerCollector size the observation fabric. Every
	// beacon prefix propagates Internet-wide, so each session carries
	// every beacon (the paper sees 15 beacons across 577 sessions on 34
	// collectors).
	Collectors        int
	PeersPerCollector int

	// TaggedFrac, CleanEgressFrac, CleanIngressFrac: as in DayConfig.
	TaggedFrac       float64
	CleanEgressFrac  float64
	CleanIngressFrac float64

	// Schedule is the beacon announce/withdraw pattern.
	Schedule beacon.Schedule

	// MeanExploration is the mean number of extra exploration
	// announcements per transparent session and withdrawal phase (the
	// Figure 4 nc bursts: "starting with a pc update, followed by multiple
	// nc's"). MeanCleanerDups is the analogue for egress-cleaning peers
	// (the Figure 5 nn bursts).
	MeanExploration float64
	MeanCleanerDups float64

	// Location pools control the Figure 6 attribution. Steady locations
	// appear in announcement-phase First announcements only; withdraw
	// locations are reached during path exploration; announce-extra
	// locations appear in post-announcement convergence. AmbiguousProb is
	// the chance an announce-extra draws from the withdraw pool instead,
	// making that attribute ambiguous.
	SteadyLocations   int
	WithdrawLocations int
	AnnounceExtraLocs int
	AnnounceExtraProb float64
	AmbiguousProb     float64
	PrependToggleProb float64
}

// DefaultBeaconConfig returns the March-15-2020 d_beacon configuration,
// tuned so the classified type mix matches Table 2's d_beacon column
// (pc 44.6%, pn 29.9%, nc 13.8%, nn 11.2%) and the Figure 6 withdrawal
// reveal ratio sits near the paper's 62%.
func DefaultBeaconConfig(day time.Time) BeaconConfig {
	return BeaconConfig{
		Seed:              1265420,
		Day:               day,
		Collectors:        12,
		PeersPerCollector: 16,
		TaggedFrac:        0.75,
		CleanEgressFrac:   0.18,
		CleanIngressFrac:  0.05,
		Schedule:          beacon.RIPE,
		MeanExploration:   0.7,
		MeanCleanerDups:   1.6,
		SteadyLocations:   5,
		WithdrawLocations: 72,
		AnnounceExtraLocs: 8,
		AnnounceExtraProb: 0.2,
		AmbiguousProb:     0.4,
		PrependToggleProb: 0.01,
	}
}

// HistoricalBeaconConfig scales the beacon fabric to a past year for the
// Figure 6 longitudinal series: sessions and community adoption grow, the
// withdrawal-phase reveal ratio stays ≈ 60%.
func HistoricalBeaconConfig(year int) BeaconConfig {
	if year < 2010 {
		year = 2010
	}
	if year > 2020 {
		year = 2020
	}
	frac := float64(year-2010) / 10.0
	cfg := DefaultBeaconConfig(time.Date(year, 3, 15, 0, 0, 0, 0, time.UTC))
	cfg.Seed = int64(year)*100 + 42
	cfg.PeersPerCollector = int(float64(cfg.PeersPerCollector) * (0.5 + 0.5*frac))
	if cfg.PeersPerCollector < 3 {
		cfg.PeersPerCollector = 3
	}
	cfg.TaggedFrac = 0.40 + 0.35*frac
	cfg.MeanExploration = 0.3 + 0.4*frac
	// Scale the location pools with the observation fabric so the
	// withdrawal reveal ratio stays near 60% across the decade (Figure 6's
	// stable ratio): fewer sessions reach fewer distinct exploration
	// locations and sample proportionally fewer announce-phase extras.
	cfg.WithdrawLocations = int(24 + 48*frac)
	cfg.AnnounceExtraLocs = int(3 + 5*frac)
	cfg.AmbiguousProb = 0.4 + 0.25*(1-frac)
	return cfg
}

// beaconStream generates one (session, beacon prefix) day.
type beaconStream struct {
	cfg    BeaconConfig
	peer   Peer
	bcn    beacon.Beacon
	tagged bool

	primary bgp.ASPath
	backup  bgp.ASPath
	// steadyLoc indexes the session's usual ingress location; exploration
	// draws from the wider pool.
	steadyLoc int

	out *[]classify.Event
}

func (s *beaconStream) emit(t time.Time, path bgp.ASPath, comms bgp.Communities) {
	*s.out = append(*s.out, classify.Event{
		Time:        t,
		Collector:   s.peer.Collector,
		PeerAS:      s.peer.AS,
		PeerAddr:    s.peer.Addr,
		Prefix:      s.bcn.Prefix,
		ASPath:      path,
		Communities: comms,
	})
}

func (s *beaconStream) emitWithdraw(t time.Time) {
	*s.out = append(*s.out, classify.Event{
		Time:      t,
		Collector: s.peer.Collector,
		PeerAS:    s.peer.AS,
		PeerAddr:  s.peer.Addr,
		Prefix:    s.bcn.Prefix,
		Withdraw:  true,
	})
}

// comms returns the community attribute visible at the collector for an
// ingress location, honouring the peer's cleaning behaviour.
func (s *beaconStream) comms(rng *rand.Rand, loc int) bgp.Communities {
	if !s.tagged {
		return nil
	}
	set := geoCommunitySet(rng, s.peer.UpstreamAS, loc)
	switch s.peer.Kind {
	case PeerCleansEgress, PeerCleansIngress:
		return nil
	default:
		return set
	}
}

// InWindow reports whether an event falls inside the configured measured
// day, mirroring DayConfig.InWindow for streaming consumers.
func (c BeaconConfig) InWindow(e classify.Event) bool {
	return inDay(c.Day, e)
}

// beaconPeerEvents generates one peer session's day across all beacon
// prefixes, time-sorted. As with dayPeerEvents, per-stream RNGs are keyed
// by (beacon, peer) indices so generation order never affects results.
func beaconPeerEvents(cfg BeaconConfig, peer Peer, peerIdx int, beacons []beacon.Beacon, schedule []beacon.ScheduledEvent) []classify.Event {
	transitAlt := []uint32{701, 7018, 3320, 6762, 9002}
	var events []classify.Event
	for bi, bcn := range beacons {
		rng := streamRNG(cfg.Seed, uint64(bi), uint64(peerIdx), 0xBEAC)
		s := &beaconStream{
			cfg:       cfg,
			peer:      peer,
			bcn:       bcn,
			tagged:    peer.TaggedUpstream,
			steadyLoc: rng.Intn(cfg.SteadyLocations),
			out:       &events,
		}
		up2 := transitAlt[rng.Intn(len(transitAlt))]
		mid := uint32(30000 + rng.Intn(3000))
		s.primary = bgp.NewASPath(peer.AS, peer.UpstreamAS, mid, bcn.OriginAS)
		s.backup = bgp.NewASPath(peer.AS, up2, peer.UpstreamAS, bcn.OriginAS)
		s.run(rng, schedule)
	}
	sortEvents(events)
	return events
}

// run walks the schedule: each announcement phase re-announces the beacon;
// each withdrawal phase triggers path exploration ending in a global
// withdrawal.
func (s *beaconStream) run(rng *rand.Rand, schedule []beacon.ScheduledEvent) {
	prepended := false
	path := func() bgp.ASPath {
		if prepended {
			return s.primary.Prepend(s.peer.AS, 2)
		}
		return s.primary
	}
	for _, ev := range schedule {
		// Propagation jitter within the attribution window.
		jitter := time.Duration(rng.Int63n(int64(3 * time.Minute)))
		t := ev.At.Add(time.Second + jitter)
		if !ev.Withdraw {
			// Announcement phase: the beacon reappears on the primary path
			// with the steady community set. The stream state was cleared
			// by the previous withdrawal, so this is a First (pc or pn).
			s.emit(t, path(), s.comms(rng, s.steadyLoc))
			// Occasionally the announcement converges through one extra
			// community rotation (§6: 17% of attributes revealed during
			// announcement phases).
			if s.tagged && s.peer.Kind == PeerTransparent && rng.Float64() < s.cfg.AnnounceExtraProb {
				t = t.Add(time.Duration(5+rng.Intn(40)) * time.Second)
				s.emit(t, path(), s.comms(rng, s.announceExtraLoc(rng)))
			}
			// Rare origin prepending toggles: the xn/xc residue of Table 2.
			if rng.Float64() < s.cfg.PrependToggleProb {
				prepended = !prepended
				t = t.Add(time.Duration(10+rng.Intn(60)) * time.Second)
				s.emit(t, path(), s.comms(rng, s.steadyLoc))
			}
			continue
		}
		// Withdrawal phase: path exploration. The session first learns the
		// backup route (pc/pn), then deeper alternatives reveal rotating
		// geo communities (nc for transparent peers, nn for egress
		// cleaners), and finally the route is withdrawn globally.
		s.emit(t, s.backup, s.comms(rng, s.withdrawLoc(rng)))
		mean := s.cfg.MeanExploration
		if s.peer.Kind == PeerCleansEgress {
			mean = s.cfg.MeanCleanerDups
		}
		k := poisson(rng, mean)
		for i := 0; i < k; i++ {
			t = t.Add(time.Duration(2+rng.Intn(25)) * time.Second)
			switch {
			case s.tagged && s.peer.Kind == PeerTransparent:
				s.emit(t, s.backup, s.comms(rng, s.withdrawLoc(rng)))
			case s.tagged && s.peer.Kind == PeerCleansEgress:
				s.emit(t, s.backup, nil) // Figure 5: nn duplicates
			case !s.tagged && rng.Float64() < 0.25:
				s.emit(t, s.backup, nil) // plain duplicate
			}
		}
		t = t.Add(time.Duration(5+rng.Intn(30)) * time.Second)
		s.emitWithdraw(t)
	}
}

// withdrawLoc draws an ingress location from the exploration pool, which
// only path exploration reaches.
func (s *beaconStream) withdrawLoc(rng *rand.Rand) int {
	return s.cfg.SteadyLocations + rng.Intn(s.cfg.WithdrawLocations)
}

// announceExtraLoc draws a location for post-announcement convergence:
// usually from a dedicated pool, sometimes (AmbiguousProb) from the
// withdraw pool, which makes that attribute ambiguous in the Figure 6
// attribution.
func (s *beaconStream) announceExtraLoc(rng *rand.Rand) int {
	if rng.Float64() < s.cfg.AmbiguousProb {
		return s.withdrawLoc(rng)
	}
	return s.cfg.SteadyLocations + s.cfg.WithdrawLocations + rng.Intn(s.cfg.AnnounceExtraLocs)
}
