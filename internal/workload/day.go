package workload

import (
	"math/rand"
	"net/netip"
	"time"

	"repro/internal/bgp"
	"repro/internal/classify"
)

// DayConfig parameterizes the full-day dataset generator (d_mar20 and the
// quarterly d_hist days).
type DayConfig struct {
	Seed int64
	// Day is the midnight-UTC start of the generated day.
	Day time.Time

	Collectors        int
	PeersPerCollector int
	PrefixesV4        int
	PrefixesV6        int

	// VisibleFrac is the fraction of (session, prefix) streams that exist
	// (not every peer sees every prefix).
	VisibleFrac float64
	// MeanEventsPerStream is the Poisson mean of routing events per stream
	// per day.
	MeanEventsPerStream float64

	// TaggedFrac is the fraction of streams whose transit path crosses a
	// geo-tagging AS (community adoption).
	TaggedFrac float64
	// CleanEgressFrac / CleanIngressFrac control the peer-kind mix.
	CleanEgressFrac  float64
	CleanIngressFrac float64

	// Event-menu weights (normalized internally).
	PFlap          float64 // path move to backup and return
	PComm          float64 // community-only change
	PDup           float64 // duplicate re-announcement
	PPrepend       float64 // prepending toggle
	PWithdrawCycle float64 // explicit withdraw + re-announce
}

// InWindow reports whether an event falls inside the configured measured
// day: events before it are warm-up announcements that establish
// classifier state but are not counted in day totals.
func (c DayConfig) InWindow(e classify.Event) bool {
	return inDay(c.Day, e)
}

// MultiDayWindow returns the half-open [Day, Day+days*24h) counting
// window of a MultiDaySource range — the multi-day extension of the
// single-day convention, kept here so the analyses and tools never
// hand-roll the boundary.
func (c DayConfig) MultiDayWindow(days int) (from, to time.Time) {
	return c.Day, c.Day.Add(time.Duration(days) * 24 * time.Hour)
}

// MultiDayInWindow returns the counting-window predicate for a days-long
// range, the multi-day analogue of InWindow.
func (c DayConfig) MultiDayInWindow(days int) func(classify.Event) bool {
	from, to := c.MultiDayWindow(days)
	return func(e classify.Event) bool {
		return !e.Time.Before(from) && e.Time.Before(to)
	}
}

// normalizedMenu returns cumulative menu thresholds.
func (c DayConfig) normalizedMenu() [5]float64 {
	w := [5]float64{c.PFlap, c.PComm, c.PDup, c.PPrepend, c.PWithdrawCycle}
	var sum float64
	for _, v := range w {
		sum += v
	}
	if sum == 0 {
		w = [5]float64{1, 0, 0, 0, 0}
		sum = 1
	}
	var out [5]float64
	acc := 0.0
	for i, v := range w {
		acc += v / sum
		out[i] = acc
	}
	return out
}

// DefaultDayConfig returns the March-15-2020-like configuration, tuned so
// the classifier reproduces the Table 2 type mix (pc 33.7%, pn 15.1%,
// nc 24.5%, nn 25.7%, xc+xn ≈ 1%). Scale counts up for benchmarks, down
// for quick tests.
func DefaultDayConfig(day time.Time) DayConfig {
	return DayConfig{
		Seed:                20200315,
		Day:                 day,
		Collectors:          10,
		PeersPerCollector:   15,
		PrefixesV4:          600,
		PrefixesV6:          60,
		VisibleFrac:         0.6,
		MeanEventsPerStream: 1.2,
		TaggedFrac:          0.90,
		CleanEgressFrac:     0.18,
		CleanIngressFrac:    0.05,
		PFlap:               0.38,
		PComm:               0.30,
		PDup:                0.24,
		PPrepend:            0.02,
		PWithdrawCycle:      0.06,
	}
}

// HistoricalDayConfig scales the default configuration to a past year,
// modelling the trends §4–§5 report: the number of collector sessions
// roughly doubled over the decade, community adoption rose steeply
// (Streibelt et al. report +250% unique communities 2010–2018), and update
// volume grew with both.
func HistoricalDayConfig(year int) DayConfig {
	if year < 2010 {
		year = 2010
	}
	if year > 2020 {
		year = 2020
	}
	frac := float64(year-2010) / 10.0
	day := time.Date(year, 3, 15, 0, 0, 0, 0, time.UTC)
	cfg := DefaultDayConfig(day)
	cfg.Seed = int64(year)*10000 + 315
	// Sessions roughly double across the decade.
	cfg.PeersPerCollector = int(float64(cfg.PeersPerCollector) * (0.5 + 0.5*frac))
	if cfg.PeersPerCollector < 3 {
		cfg.PeersPerCollector = 3
	}
	// Community adoption grows from ~45% to 90%.
	cfg.TaggedFrac = 0.45 + 0.45*frac
	// Prefix universe and churn grow.
	cfg.PrefixesV4 = int(float64(cfg.PrefixesV4) * (0.55 + 0.45*frac))
	cfg.PrefixesV6 = int(float64(cfg.PrefixesV6) * (0.2 + 0.8*frac))
	cfg.MeanEventsPerStream = 0.9 + 0.5*frac
	return cfg
}

// streamScript holds the mutable path/community state of one stream while
// its day of events is generated.
type streamScript struct {
	cfg       DayConfig
	peer      Peer
	prefix    netip.Prefix
	originAS  uint32
	primary   bgp.ASPath
	backup    bgp.ASPath
	loc       int // ingress location index for geo tags
	tagged    bool
	prepended bool

	curPath  bgp.ASPath
	curComms bgp.Communities
	hasMED   bool
	med      uint32

	out *[]classify.Event
}

// visibleComms applies the peer's cleaning behaviour to the communities a
// route would carry at the collector.
func (s *streamScript) visibleComms(c bgp.Communities) bgp.Communities {
	switch s.peer.Kind {
	case PeerCleansEgress, PeerCleansIngress:
		return nil
	default:
		return c
	}
}

func (s *streamScript) emit(t time.Time, path bgp.ASPath, comms bgp.Communities) {
	s.curPath, s.curComms = path, comms
	*s.out = append(*s.out, classify.Event{
		Time:        t,
		Collector:   s.peer.Collector,
		PeerAS:      s.peer.AS,
		PeerAddr:    s.peer.Addr,
		Prefix:      s.prefix,
		ASPath:      path,
		Communities: comms,
		HasMED:      s.hasMED,
		MED:         s.med,
	})
}

func (s *streamScript) emitWithdraw(t time.Time) {
	*s.out = append(*s.out, classify.Event{
		Time:      t,
		Collector: s.peer.Collector,
		PeerAS:    s.peer.AS,
		PeerAddr:  s.peer.Addr,
		Prefix:    s.prefix,
		Withdraw:  true,
	})
}

// dayPrefixes builds the day's announced prefix universe.
func dayPrefixes(cfg DayConfig) []netip.Prefix {
	prefixes := make([]netip.Prefix, 0, cfg.PrefixesV4+cfg.PrefixesV6)
	for i := 0; i < cfg.PrefixesV4; i++ {
		addr := netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 0})
		p, _ := addr.Prefix(24)
		prefixes = append(prefixes, p)
	}
	for i := 0; i < cfg.PrefixesV6; i++ {
		addr := netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, byte(i >> 8), byte(i)})
		p, _ := addr.Prefix(48)
		prefixes = append(prefixes, p)
	}
	return prefixes
}

// dayPeerEvents generates one peer session's full day across all prefixes,
// time-sorted. Per-stream RNGs are derived from (prefix, peer) indices, so
// the events are identical whether generation is driven prefix-major (the
// old materialized path) or peer-major (the streaming path).
func dayPeerEvents(cfg DayConfig, peer Peer, peerIdx int, prefixes []netip.Prefix, menu [5]float64) []classify.Event {
	transitAlt := []uint32{701, 7018, 3320, 6762, 9002, 4637, 7473, 12956}
	var events []classify.Event
	for pi, prefix := range prefixes {
		originAS := uint32(1000 + pi%45000)
		rng := streamRNG(cfg.Seed, uint64(pi), uint64(peerIdx), 0xDA7A)
		if rng.Float64() >= cfg.VisibleFrac {
			continue
		}
		s := &streamScript{
			cfg:      cfg,
			peer:     peer,
			prefix:   prefix,
			originAS: originAS,
			loc:      rng.Intn(64),
			tagged:   peer.TaggedUpstream,
			out:      &events,
		}
		up2 := transitAlt[rng.Intn(len(transitAlt))]
		if rng.Float64() < 0.5 {
			// Longer primary path through a middle hop.
			mid := uint32(30000 + rng.Intn(5000))
			s.primary = bgp.NewASPath(peer.AS, peer.UpstreamAS, mid, originAS)
		} else {
			s.primary = bgp.NewASPath(peer.AS, peer.UpstreamAS, originAS)
		}
		s.backup = bgp.NewASPath(peer.AS, up2, peer.UpstreamAS, originAS)
		if rng.Float64() < 0.3 {
			s.hasMED = true
			s.med = uint32(rng.Intn(100))
		}
		s.run(rng, menu)
	}
	sortEvents(events)
	return events
}

// run generates the stream's warm-up announcement plus its day of events.
func (s *streamScript) run(rng *rand.Rand, menu [5]float64) {
	day := s.cfg.Day
	steady := s.steadyComms(rng)
	// Warm-up: establish classifier state one hour before the day begins.
	warm := day.Add(-time.Hour + time.Duration(rng.Int63n(int64(50*time.Minute))))
	s.emit(warm, s.primary, s.visibleComms(steady))

	n := poisson(rng, s.cfg.MeanEventsPerStream)
	if n == 0 {
		return
	}
	// Draw event base times, sorted.
	times := make([]time.Duration, n)
	for i := range times {
		times[i] = time.Duration(rng.Int63n(int64(24 * time.Hour)))
	}
	for i := 1; i < n; i++ {
		for j := i; j > 0 && times[j] < times[j-1]; j-- {
			times[j], times[j-1] = times[j-1], times[j]
		}
	}
	for _, off := range times {
		t := day.Add(off)
		roll := rng.Float64()
		switch {
		case roll < menu[0]:
			s.flap(rng, t)
		case roll < menu[1]:
			s.commChange(rng, t)
		case roll < menu[2]:
			s.duplicate(rng, t)
		case roll < menu[3]:
			s.prependToggle(rng, t)
		default:
			s.withdrawCycle(rng, t)
		}
	}
}

// steadyComms returns the stream's steady-state community attribute.
func (s *streamScript) steadyComms(rng *rand.Rand) bgp.Communities {
	if !s.tagged {
		return nil
	}
	return geoCommunitySet(rng, s.peer.UpstreamAS, s.loc)
}

// flap models a path move to the backup route with community/duplicate
// exploration, then a return to the primary.
func (s *streamScript) flap(rng *rand.Rand, t time.Time) {
	backupComms := bgp.Communities(nil)
	if s.tagged {
		backupComms = geoCommunitySet(rng, s.peer.UpstreamAS, rng.Intn(64))
	}
	s.emit(t, s.backup, s.visibleComms(backupComms))
	// Exploration extras while converging on the backup.
	k := poisson(rng, 0.9)
	for i := 0; i < k; i++ {
		t = t.Add(time.Duration(1+rng.Intn(20)) * time.Second)
		switch {
		case s.tagged && s.peer.Kind == PeerTransparent:
			// Rotating geo communities: nc at the collector.
			s.emit(t, s.backup, geoCommunitySet(rng, s.peer.UpstreamAS, rng.Intn(64)))
		case s.tagged && s.peer.Kind == PeerCleansEgress:
			// Upstream churn cleaned on egress: nn duplicates (Exp3).
			s.emit(t, s.backup, nil)
		case !s.tagged && rng.Float64() < 0.1:
			s.emit(t, s.curPath, s.curComms) // occasional plain duplicate
		}
	}
	// Return to the primary path.
	t = t.Add(time.Duration(10+rng.Intn(60)) * time.Second)
	s.emit(t, s.primaryPath(), s.visibleComms(s.steadyComms(rng)))
}

// commChange models a community-only change on the current path.
func (s *streamScript) commChange(rng *rand.Rand, t time.Time) {
	switch {
	case s.tagged && s.peer.Kind == PeerTransparent:
		s.emit(t, s.curPath, geoCommunitySet(rng, s.peer.UpstreamAS, rng.Intn(64)))
	case s.tagged && s.peer.Kind == PeerCleansEgress:
		s.emit(t, s.curPath, nil) // internal change surfaces as nn
	default:
		if rng.Float64() < 0.4 {
			if s.hasMED {
				s.med = uint32(rng.Intn(100)) // MED-only churn: nn w/ MED note
			}
			s.emit(t, s.curPath, s.curComms)
		}
	}
}

// duplicate re-announces the current state unchanged.
func (s *streamScript) duplicate(rng *rand.Rand, t time.Time) {
	if s.hasMED && rng.Float64() < 0.5 {
		s.med = uint32(rng.Intn(100))
	}
	s.emit(t, s.curPath, s.curComms)
}

// prependToggle switches origin prepending on or off (xn, sometimes xc).
func (s *streamScript) prependToggle(rng *rand.Rand, t time.Time) {
	s.prepended = !s.prepended
	comms := s.curComms
	if s.tagged && s.peer.Kind == PeerTransparent && rng.Float64() < 0.25 {
		comms = geoCommunitySet(rng, s.peer.UpstreamAS, rng.Intn(64))
	}
	s.emit(t, s.primaryPath(), comms)
}

// primaryPath returns the primary path with the current prepending state.
func (s *streamScript) primaryPath() bgp.ASPath {
	if !s.prepended {
		return s.primary
	}
	return s.primary.Prepend(s.peer.AS, 2)
}

// withdrawCycle withdraws the prefix and re-announces it shortly after.
func (s *streamScript) withdrawCycle(rng *rand.Rand, t time.Time) {
	s.emitWithdraw(t)
	t = t.Add(time.Duration(30+rng.Intn(90)) * time.Second)
	s.emit(t, s.primaryPath(), s.visibleComms(s.curCommsOrSteady(rng)))
}

func (s *streamScript) curCommsOrSteady(rng *rand.Rand) bgp.Communities {
	if s.tagged {
		return geoCommunitySet(rng, s.peer.UpstreamAS, s.loc)
	}
	return nil
}

// QuarterlyDays returns the paper's §4 sampling instants for one year:
// one full day every three months (March 15, June 15, September 15,
// December 15).
func QuarterlyDays(year int) []time.Time {
	var out []time.Time
	for _, m := range []time.Month{time.March, time.June, time.September, time.December} {
		out = append(out, time.Date(year, m, 15, 0, 0, 0, 0, time.UTC))
	}
	return out
}

// HistoricalQuarterConfig is HistoricalDayConfig pinned to one of the
// year's quarterly sampling days (quarter in 0..3), with a quarter-unique
// seed so the four days of a year differ.
func HistoricalQuarterConfig(year, quarter int) DayConfig {
	if quarter < 0 {
		quarter = 0
	}
	if quarter > 3 {
		quarter = 3
	}
	cfg := HistoricalDayConfig(year)
	cfg.Day = QuarterlyDays(cfg.Day.Year())[quarter]
	cfg.Seed = cfg.Seed*10 + int64(quarter)
	return cfg
}
