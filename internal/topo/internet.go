package topo

import (
	"fmt"
	"net/netip"
	"time"

	"repro/internal/dampening"
	"repro/internal/router"
)

// InternetConfig parameterizes the synthetic Internet-like AS topology:
// a meshed transit core, regional ISPs multihomed into it, stub origins,
// and a route collector peering with several edge ASes. Geo-tagging
// transit ASes add a location community per ingress session, so path
// exploration through different ingress points reveals different
// communities — the protocol-level mechanism behind §6.
type InternetConfig struct {
	Seed int64
	// Behavior is installed on every simulated router.
	Behavior router.Behavior

	Tier1 int // fully meshed transit core ASes
	Mids  int // regional ISPs, each multihomed to two tier-1s
	Stubs int // edge ASes, each multihomed to two mids

	// CollectorPeers is how many mid ASes also peer with the collector.
	CollectorPeers int

	// GeoTagging makes every tier-1 tag routes on ingress with a
	// per-session location community.
	GeoTagging bool
	// CleanEgressPeers marks every n-th collector peer as cleaning
	// communities toward the collector (0 disables).
	CleanEgressPeers int
	// CleanIngressPeers marks every n-th collector peer as cleaning
	// communities on ingress from its transit sessions (0 disables) — the
	// placement that stops the spurious-update cascade at the source
	// (paper Exp4), as opposed to CleanEgressPeers' collector-side mask.
	CleanIngressPeers int

	// MRAI rate-limits each collector peer's advertisements toward the
	// collector (zero disables, as the beacon experiments require).
	MRAI time.Duration
	// Dampening enables RFC 2439 flap dampening on the collector's
	// ingress from every peer (nil disables).
	Dampening *dampening.Config

	// MaxLinkDelay bounds the random per-link propagation delay; the
	// spread is what makes withdrawal waves explore paths.
	MaxLinkDelay time.Duration
}

// DefaultInternetConfig returns a laptop-scale topology.
func DefaultInternetConfig(b router.Behavior) InternetConfig {
	return InternetConfig{
		Seed:             42,
		Behavior:         b,
		Tier1:            4,
		Mids:             8,
		Stubs:            12,
		CollectorPeers:   5,
		GeoTagging:       true,
		CleanEgressPeers: 3,
		MaxLinkDelay:     80 * time.Millisecond,
	}
}

// Internet is the constructed topology.
type Internet struct {
	Net       *router.Network
	Collector *router.Router
	// Origin is the stub that plays the beacon role.
	Origin *router.Router
	// CollectorPeerNames lists the ASes peering with the collector, in
	// construction order.
	CollectorPeerNames []string
	// PeerAS and PeerAddr resolve a collector peer's identity for MRT
	// archiving.
	PeerAS   map[string]uint32
	PeerAddr map[string]netip.Addr
	// FlapLinks lists sessions that can be taken down without
	// disconnecting the origin (every endpoint keeps an alternate path) —
	// the candidates churn workloads flap to induce path exploration.
	FlapLinks [][2]string
}

// AS number blocks per tier.
const (
	tier1Base uint32 = 100
	midBase   uint32 = 1000
	stubBase  uint32 = 30000
	// CollectorAS is the collector's AS (RIS's AS12654).
	CollectorAS uint32 = 12654
)

// BuildInternet constructs and converges the topology. The origin stub has
// not originated anything yet.
func BuildInternet(start time.Time, cfg InternetConfig) (*Internet, error) {
	if cfg.Tier1 < 2 || cfg.Mids < 2 || cfg.Stubs < 1 {
		return nil, fmt.Errorf("topo: need at least 2 tier-1s, 2 mids, 1 stub")
	}
	if cfg.CollectorPeers > cfg.Mids {
		cfg.CollectorPeers = cfg.Mids
	}
	b := newShapeBuilder(start, cfg.Seed, cfg.MaxLinkDelay)
	rng := b.rng
	n := b.n
	// Full trace for compatibility with the cycle helpers and tests;
	// scenario-scale consumers (simnet, simstudy) replace this with a
	// bounded capture sink before driving workloads.
	n.EnableTrace()
	inet := &Internet{
		Net:      n,
		PeerAS:   make(map[string]uint32),
		PeerAddr: make(map[string]netip.Addr),
	}
	nextAddrPair := b.addrPair
	delay := b.delay
	routerID := shapeRouterID

	// Tier-1 core.
	tier1 := make([]*router.Router, cfg.Tier1)
	for i := range tier1 {
		as := tier1Base + uint32(i)
		tier1[i] = n.AddRouter(fmt.Sprintf("T%d", i), as, routerID(as, 1), cfg.Behavior)
	}
	// geoTag returns the ingress policy a tier-1 applies on one session.
	sessionIdx := make(map[string]int)
	geoTag := func(t *router.Router) router.Policy {
		return ingressTag(cfg.GeoTagging, sessionIdx, t)
	}
	// Full mesh among tier-1s, tagging on ingress both ways.
	for i := 0; i < len(tier1); i++ {
		for j := i + 1; j < len(tier1); j++ {
			a, b := nextAddrPair()
			n.Connect(tier1[i], tier1[j], router.SessionConfig{
				AAddr: a, BAddr: b,
				AImport: geoTag(tier1[i]),
				BImport: geoTag(tier1[j]),
				Delay:   delay(),
			})
		}
	}

	// Mid tier: each multihomed to two distinct tier-1s, plus a parallel
	// second session to the primary tier-1 at a different ingress location.
	// The parallel sessions are what produce nc announcements at the
	// collector: when the preferred session's route goes away, the mid
	// fails over to an AS-path-identical route whose geo tag differs —
	// the multi-interconnection situation of §6.
	mids := make([]*router.Router, cfg.Mids)
	cleansIngress := func(i int) bool {
		return cfg.CleanIngressPeers > 0 && i < cfg.CollectorPeers &&
			i%cfg.CleanIngressPeers == cfg.CleanIngressPeers-1
	}
	for i := range mids {
		as := midBase + uint32(i)
		mids[i] = n.AddRouter(fmt.Sprintf("M%d", i), as, routerID(as, 1), cfg.Behavior)
		t1 := tier1[i%len(tier1)]
		t2 := tier1[(i+1+rng.Intn(len(tier1)-1))%len(tier1)]
		if t2 == t1 {
			t2 = tier1[(i+1)%len(tier1)]
		}
		for _, t := range []*router.Router{t1, t1, t2} {
			a, b := nextAddrPair()
			// The tier-1 tags what it hears from the mid, and the mid
			// tags what it hears from the tier-1 with the tier-1's
			// per-ingress location (the AS3356-style scheme of §6) — or,
			// for ingress-cleaning collector peers, strips everything on
			// the way in.
			midImport := geoTag(t)
			if cleansIngress(i) {
				midImport = router.Policy{router.StripAllCommunities()}
			}
			n.Connect(mids[i], t, router.SessionConfig{
				AAddr: a, BAddr: b,
				AImport: midImport,
				BImport: geoTag(t),
				Delay:   delay(),
			})
		}
	}

	// Stubs: each multihomed to two distinct mids. The first stub is the
	// beacon origin.
	for i := 0; i < cfg.Stubs; i++ {
		as := stubBase + uint32(i)
		stub := n.AddRouter(fmt.Sprintf("S%d", i), as, routerID(as, 1), cfg.Behavior)
		m1 := mids[i%len(mids)]
		m2 := mids[(i+1+rng.Intn(len(mids)-1))%len(mids)]
		if m2 == m1 {
			m2 = mids[(i+1)%len(mids)]
		}
		for _, m := range []*router.Router{m1, m2} {
			a, b := nextAddrPair()
			n.Connect(stub, m, router.SessionConfig{
				AAddr: a, BAddr: b,
				Delay: delay(),
			})
		}
		if i == 0 {
			inet.Origin = stub
			// The origin is dual-homed; losing m1 just fails it over to m2.
			inet.FlapLinks = append(inet.FlapLinks, [2]string{stub.Name, m1.Name})
		}
	}

	// Collector peering: the first CollectorPeers mids feed the collector.
	collector := n.AddRouter("COLLECTOR", CollectorAS, routerID(CollectorAS, 1), cfg.Behavior)
	inet.Collector = collector
	for i := 0; i < cfg.CollectorPeers; i++ {
		m := mids[i]
		a, b := nextAddrPair()
		scfg := router.SessionConfig{
			AAddr: a, BAddr: b, Delay: delay(),
			AMRAI:      cfg.MRAI,
			BDampening: cfg.Dampening,
		}
		if cfg.CleanEgressPeers > 0 && i%cfg.CleanEgressPeers == cfg.CleanEgressPeers-1 {
			scfg.AExport = router.Policy{router.StripAllCommunities()}
		}
		n.Connect(m, collector, scfg)
		inet.CollectorPeerNames = append(inet.CollectorPeerNames, m.Name)
		inet.PeerAS[m.Name] = m.AS
		inet.PeerAddr[m.Name] = a
		// Each collector-peer mid has a parallel second session to its
		// primary tier-1, so flapping the first is an AS-path-identical
		// failover whose geo tag differs — the nc mechanism of §6.
		inet.FlapLinks = append(inet.FlapLinks, [2]string{m.Name, tier1[i%len(tier1)].Name})
	}

	if _, err := n.Run(); err != nil {
		return nil, fmt.Errorf("topo: initial convergence: %w", err)
	}
	n.ClearTrace()
	return inet, nil
}
