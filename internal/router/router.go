// Package router implements a simulated BGP speaker faithful enough to
// reproduce the paper's controlled experiments (§3): per-peer Adj-RIB-In
// with import policy, the RFC 4271 decision process, export with
// next-hop-self and AS prepending, egress policy, and vendor-specific
// duplicate-update behaviour.
package router

import (
	"fmt"
	"net/netip"
	"time"

	"repro/internal/bgp"
	"repro/internal/dampening"
	"repro/internal/netsim"
	"repro/internal/rib"
)

// Router is one BGP speaker.
type Router struct {
	Name     string
	AS       uint32
	ID       netip.Addr
	Behavior Behavior

	net        *Network
	peers      []*Peer
	locRIB     *rib.LocRIB
	originated map[netip.Prefix]*rib.Route
}

// Peer is one directed half of a BGP session on a router.
type Peer struct {
	Router *Router
	// Remote is the other half of the session.
	Remote *Peer

	LocalAddr  netip.Addr
	RemoteAddr netip.Addr
	RemoteAS   uint32
	IBGP       bool

	// Import runs on received routes before they enter the Adj-RIB-In.
	Import Policy
	// Export runs on routes after standard eBGP/iBGP export processing.
	Export Policy
	// NextHopSelf rewrites the next hop on iBGP export (always done on
	// eBGP export).
	NextHopSelf bool
	// MRAI is the minimum route advertisement interval per prefix (RFC
	// 4271 §9.2.1.1). Announcements inside the interval are deferred and
	// coalesced: only the latest state is advertised when the interval
	// expires. Withdrawals are never rate-limited. Zero disables it, as
	// the lab experiments require to observe every message.
	MRAI time.Duration
	// Dampening enables RFC 2439 route-flap dampening on routes received
	// from this peer. Nil disables it (the default; the lab experiments
	// must observe every flap).
	Dampening *dampening.Config

	adjIn   *rib.AdjIn
	adjOut  *rib.AdjOut
	up      bool
	delay   time.Duration
	lastAdv map[netip.Prefix]time.Time
	// pendingFlush maps a deferred prefix to its scheduled flush instant.
	// The scheduled closure only acts when its own expiry is still the
	// recorded one, so flushes cancelled by a session reset (or
	// superseded after re-establishment) can never fire stale.
	pendingFlush map[netip.Prefix]time.Time
	dampeners    map[netip.Prefix]*dampening.Dampener
	held         map[netip.Prefix]*rib.Route
}

// Up reports whether the session is established.
func (p *Peer) Up() bool { return p.up }

// AdjInLen exposes the number of routes held from this peer (for tests).
func (p *Peer) AdjInLen() int { return p.adjIn.Len() }

// Network owns the simulated routers, their sessions, and the installed
// message sink. Message observation is off by default: nothing is
// retained unless a Sink is installed, so long or large runs do not grow
// memory with traffic (the full-trace behaviour of early versions is
// available as TraceBuffer).
type Network struct {
	Engine *netsim.Engine

	routers map[string]*Router
	sink    Sink
	// Delay is the default propagation delay applied to new sessions.
	Delay time.Duration
}

// TracedMessage is one BGP message observed on a link, as a packet capture
// between two routers would record it.
type TracedMessage struct {
	Time     time.Time
	From, To string // router names
	Update   *bgp.Update
	Withdraw bool // convenience: true if the update only withdraws
}

// NewNetwork returns an empty network on a fresh engine starting at start.
func NewNetwork(start time.Time) *Network {
	return &Network{
		Engine:  netsim.NewEngine(start),
		routers: make(map[string]*Router),
		Delay:   10 * time.Millisecond,
	}
}

// AddRouter creates and registers a router.
func (n *Network) AddRouter(name string, as uint32, id netip.Addr, b Behavior) *Router {
	if _, dup := n.routers[name]; dup {
		panic(fmt.Sprintf("router: duplicate router name %q", name))
	}
	r := &Router{
		Name:       name,
		AS:         as,
		ID:         id,
		Behavior:   b,
		net:        n,
		locRIB:     rib.NewLocRIB(),
		originated: make(map[netip.Prefix]*rib.Route),
	}
	n.routers[name] = r
	return r
}

// SetSink installs the message sink (nil turns observation off). The
// sink sees every message from the next delivery on; already-recorded
// state in a previous sink is untouched.
func (n *Network) SetSink(s Sink) { n.sink = s }

// EnableTrace installs (or returns the already-installed) full
// TraceBuffer sink, restoring the classic capture-everything behaviour.
func (n *Network) EnableTrace() *TraceBuffer {
	if b, ok := n.sink.(*TraceBuffer); ok {
		return b
	}
	b := NewTraceBuffer()
	n.sink = b
	return b
}

// traceBuffer returns the installed TraceBuffer, or nil when none (or a
// different sink) is installed.
func (n *Network) traceBuffer() *TraceBuffer {
	b, _ := n.sink.(*TraceBuffer)
	return b
}

// Trace returns all messages captured by the installed TraceBuffer, in
// delivery order; nil when no TraceBuffer is installed.
func (n *Network) Trace() []TracedMessage {
	if b := n.traceBuffer(); b != nil {
		return b.Messages()
	}
	return nil
}

// ClearTrace discards the installed TraceBuffer's messages; experiments
// call this after convergence so only event-induced messages are counted.
func (n *Network) ClearTrace() {
	if b := n.traceBuffer(); b != nil {
		b.Clear()
	}
}

// TraceBetween filters the installed TraceBuffer to messages sent from
// one router to another.
func (n *Network) TraceBetween(from, to string) []TracedMessage {
	if b := n.traceBuffer(); b != nil {
		return b.Between(from, to)
	}
	return nil
}

// SessionConfig parameterizes Connect.
type SessionConfig struct {
	AAddr, BAddr     netip.Addr
	AImport, AExport Policy // policies on the A side
	BImport, BExport Policy
	ANextHopSelf     bool
	BNextHopSelf     bool
	AMRAI, BMRAI     time.Duration // per-side advertisement rate limits
	// ADampening / BDampening enable flap dampening on each side's
	// received routes.
	ADampening, BDampening *dampening.Config
	Delay                  time.Duration // zero means the network default
}

// Connect establishes a BGP session between two routers and returns the two
// peer halves (a's view, b's view). The session type (eBGP/iBGP) follows
// from the routers' AS numbers. Existing routes are exchanged immediately.
func (n *Network) Connect(a, b *Router, cfg SessionConfig) (*Peer, *Peer) {
	if cfg.Delay == 0 {
		cfg.Delay = n.Delay
	}
	ibgp := a.AS == b.AS
	pa := &Peer{
		Router: a, LocalAddr: cfg.AAddr, RemoteAddr: cfg.BAddr, RemoteAS: b.AS,
		IBGP: ibgp, Import: cfg.AImport, Export: cfg.AExport,
		NextHopSelf: cfg.ANextHopSelf, MRAI: cfg.AMRAI, Dampening: cfg.ADampening,
		adjIn: rib.NewAdjIn(), adjOut: rib.NewAdjOut(), up: true, delay: cfg.Delay,
		lastAdv: make(map[netip.Prefix]time.Time), pendingFlush: make(map[netip.Prefix]time.Time),
		dampeners: make(map[netip.Prefix]*dampening.Dampener), held: make(map[netip.Prefix]*rib.Route),
	}
	pb := &Peer{
		Router: b, LocalAddr: cfg.BAddr, RemoteAddr: cfg.AAddr, RemoteAS: a.AS,
		IBGP: ibgp, Import: cfg.BImport, Export: cfg.BExport,
		NextHopSelf: cfg.BNextHopSelf, MRAI: cfg.BMRAI, Dampening: cfg.BDampening,
		adjIn: rib.NewAdjIn(), adjOut: rib.NewAdjOut(), up: true, delay: cfg.Delay,
		lastAdv: make(map[netip.Prefix]time.Time), pendingFlush: make(map[netip.Prefix]time.Time),
		dampeners: make(map[netip.Prefix]*dampening.Dampener), held: make(map[netip.Prefix]*rib.Route),
	}
	pa.Remote, pb.Remote = pb, pa
	a.peers = append(a.peers, pa)
	b.peers = append(b.peers, pb)
	// Initial table exchange.
	for _, p := range a.locRIB.Prefixes() {
		a.exportPrefix(pa, p)
	}
	for _, p := range b.locRIB.Prefixes() {
		b.exportPrefix(pb, p)
	}
	return pa, pb
}

// SetSession brings the session between two named routers up or down,
// modelling a link failure. Taking it down clears both Adj-RIB-Ins and
// triggers reconvergence, exactly as the lab experiments flap Y1–Y2.
func (n *Network) SetSession(aName, bName string, up bool) error {
	a := n.routers[aName]
	if a == nil {
		return fmt.Errorf("router: unknown router %q", aName)
	}
	var pa *Peer
	for _, p := range a.peers {
		if p.Remote.Router.Name == bName {
			pa = p
			break
		}
	}
	if pa == nil {
		return fmt.Errorf("router: no session %s–%s", aName, bName)
	}
	pb := pa.Remote
	if pa.up == up {
		return nil
	}
	if !up {
		pa.up, pb.up = false, false
		affectedA := pa.adjIn.Clear()
		affectedB := pb.adjIn.Clear()
		// Forget what we advertised so re-establishment resends the table.
		for _, p := range pa.adjOut.Prefixes() {
			pa.adjOut.RemoveRecord(p)
		}
		for _, p := range pb.adjOut.Prefixes() {
			pb.adjOut.RemoveRecord(p)
		}
		// MRAI state dies with the session: a pending deferred flush must
		// not fire a stale (re-)advertisement after re-establishment, and
		// the re-established session's initial table exchange must not be
		// rate-limited by pre-reset advertisement times.
		clear(pa.pendingFlush)
		clear(pb.pendingFlush)
		clear(pa.lastAdv)
		clear(pb.lastAdv)
		for _, p := range affectedA {
			pa.Router.recompute(p)
		}
		for _, p := range affectedB {
			pb.Router.recompute(p)
		}
		return nil
	}
	pa.up, pb.up = true, true
	for _, p := range pa.Router.locRIB.Prefixes() {
		pa.Router.exportPrefix(pa, p)
	}
	for _, p := range pb.Router.locRIB.Prefixes() {
		pb.Router.exportPrefix(pb, p)
	}
	return nil
}

// Originate injects a locally originated route for prefix with the given
// communities, as the beacon origin Z1 does for p.
func (r *Router) Originate(prefix netip.Prefix, communities bgp.Communities) {
	route := &rib.Route{
		Prefix: prefix,
		Attrs: bgp.PathAttrs{
			Origin: bgp.OriginIGP,
			// Canonical may alias the caller's slice; the route lives on
			// in the RIB, so decouple it from later caller mutation.
			Communities: communities.Canonical().Clone(),
		},
		Local:        true,
		PeerRouterID: r.ID,
	}
	r.originated[prefix] = route
	r.recompute(prefix)
}

// WithdrawOriginated removes a locally originated route, propagating
// withdrawals.
func (r *Router) WithdrawOriginated(prefix netip.Prefix) {
	if _, ok := r.originated[prefix]; !ok {
		return
	}
	delete(r.originated, prefix)
	r.recompute(prefix)
}

// Best returns the router's current best route for prefix, or nil.
func (r *Router) Best(prefix netip.Prefix) *rib.Route { return r.locRIB.Best(prefix) }

// LocRIBLen returns the number of best routes held.
func (r *Router) LocRIBLen() int { return r.locRIB.Len() }

// Peers returns the router's sessions.
func (r *Router) Peers() []*Peer { return r.peers }

// recompute re-runs the decision process for prefix and, if the outcome
// changed, re-exports to every peer.
func (r *Router) recompute(prefix netip.Prefix) {
	candidates := make([]*rib.Route, 0, len(r.peers)+1)
	if local, ok := r.originated[prefix]; ok {
		candidates = append(candidates, local)
	}
	for _, p := range r.peers {
		if !p.up {
			continue
		}
		if route := p.adjIn.Get(prefix); route != nil {
			candidates = append(candidates, route)
		}
	}
	res := r.locRIB.Update(prefix, candidates)
	if !res.Changed {
		return
	}
	for _, p := range r.peers {
		r.exportPrefix(p, prefix)
	}
}

// exportPrefix recomputes the advertisement of prefix to one peer: sending
// an update, a withdrawal, a vendor-dependent duplicate, or nothing.
func (r *Router) exportPrefix(p *Peer, prefix netip.Prefix) {
	if !p.up {
		return
	}
	best := r.locRIB.Best(prefix)
	withdraw := func() {
		if p.adjOut.RemoveRecord(prefix) {
			r.send(p, &bgp.Update{Withdrawn: []netip.Prefix{prefix}})
		}
	}
	if best == nil {
		withdraw()
		return
	}
	// Split horizon: never advertise a route back to the session it was
	// learned on, and never reflect iBGP-learned routes to iBGP peers
	// (full-mesh rule; no route reflection in this model).
	if !best.Local && best.PeerAddr == p.RemoteAddr {
		withdraw()
		return
	}
	if best.FromIBGP && p.IBGP {
		withdraw()
		return
	}

	attrs := best.Attrs.Clone()
	if p.IBGP {
		if p.NextHopSelf || !attrs.NextHop.IsValid() {
			attrs.NextHop = p.LocalAddr
		}
		if !attrs.HasLocalPref {
			attrs.HasLocalPref = true
			attrs.LocalPref = rib.DefaultLocalPref
		}
	} else {
		attrs.ASPath = attrs.ASPath.Prepend(r.AS, 1)
		attrs.NextHop = p.LocalAddr
		// LOCAL_PREF is iBGP-only; MED is non-transitive and not propagated
		// onward to eBGP peers.
		attrs.HasLocalPref = false
		attrs.LocalPref = 0
		if !best.Local {
			attrs.HasMED = false
			attrs.MED = 0
		}
	}
	if !p.Export.Run(&attrs) {
		withdraw()
		return
	}

	if prev, had := p.adjOut.Advertised(prefix); had && attrs.Equal(prev) {
		if r.Behavior.SuppressDuplicates {
			return // Junos: identical outbound update withheld
		}
		// Cisco IOS / BIRD: the duplicate goes out anyway.
	}
	// MRAI gating: defer announcements falling inside the interval. The
	// deferred flush re-runs exportPrefix, so only the state current at
	// expiry is advertised (implicit coalescing).
	if p.MRAI > 0 {
		now := r.net.Engine.Now()
		if last, ok := p.lastAdv[prefix]; ok && now.Sub(last) < p.MRAI {
			if _, pending := p.pendingFlush[prefix]; !pending {
				expiry := last.Add(p.MRAI)
				p.pendingFlush[prefix] = expiry
				r.net.Engine.ScheduleAt(expiry, func() {
					if at, ok := p.pendingFlush[prefix]; !ok || !at.Equal(expiry) {
						return // cancelled by a session reset, or superseded
					}
					delete(p.pendingFlush, prefix)
					r.exportPrefix(p, prefix)
				})
			}
			return
		}
		p.lastAdv[prefix] = now
	}
	p.adjOut.Record(prefix, attrs)
	r.send(p, &bgp.Update{NLRI: []netip.Prefix{prefix}, Attrs: attrs})
}

// send schedules delivery of an update over the session.
func (r *Router) send(p *Peer, u *bgp.Update) {
	remote := p.Remote
	deliverAt := p.delay
	r.net.Engine.Schedule(deliverAt, func() {
		if !remote.up {
			return // session died in flight
		}
		if sink := r.net.sink; sink != nil {
			sink.Record(TracedMessage{
				Time:     r.net.Engine.Now(),
				From:     r.Name,
				To:       remote.Router.Name,
				Update:   u,
				Withdraw: u.IsWithdrawOnly(),
			})
		}
		remote.Router.receive(remote, u)
	})
}

// receive processes an update arriving on a session.
func (r *Router) receive(p *Peer, u *bgp.Update) {
	for _, prefix := range u.Withdrawn {
		if p.Dampening != nil {
			delete(p.held, prefix)
			r.dampener(p, prefix).RecordWithdraw(r.net.Engine.Now())
		}
		if p.adjIn.Remove(prefix) {
			r.recompute(prefix)
		}
	}
	if len(u.NLRI) == 0 {
		return
	}
	// eBGP loop prevention: drop paths containing our own AS.
	if !p.IBGP && u.Attrs.ASPath.Contains(r.AS) {
		return
	}
	for _, prefix := range u.NLRI {
		attrs := u.Attrs.Clone()
		if !p.Import.Run(&attrs) {
			if p.adjIn.Remove(prefix) {
				r.recompute(prefix)
			}
			continue
		}
		route := &rib.Route{
			Prefix:       prefix,
			Attrs:        attrs,
			PeerAddr:     p.RemoteAddr,
			PeerAS:       p.RemoteAS,
			FromIBGP:     p.IBGP,
			PeerRouterID: p.Remote.Router.ID,
		}
		if p.Dampening != nil && r.dampenRoute(p, route) {
			continue // suppressed: held for later reuse
		}
		if p.adjIn.Set(route) {
			r.recompute(prefix)
		}
	}
}

// dampener returns (creating if needed) the flap tracker for a prefix.
func (r *Router) dampener(p *Peer, prefix netip.Prefix) *dampening.Dampener {
	d := p.dampeners[prefix]
	if d == nil {
		d = dampening.New(*p.Dampening)
		p.dampeners[prefix] = d
	}
	return d
}

// dampenRoute applies RFC 2439 accounting to an arriving route. It returns
// true when the route is suppressed; the route is then parked in the held
// set and a reuse check is scheduled.
func (r *Router) dampenRoute(p *Peer, route *rib.Route) bool {
	now := r.net.Engine.Now()
	d := r.dampener(p, route.Prefix)
	// An announcement replacing existing state is a flap (implicit
	// withdraw); a fresh announcement is not penalized.
	if prev := p.adjIn.Get(route.Prefix); prev != nil && !prev.Attrs.Equal(route.Attrs) {
		d.RecordAttrChange(now)
	} else if _, wasHeld := p.held[route.Prefix]; wasHeld {
		d.RecordAttrChange(now)
	}
	if !d.Suppressed(now) {
		delete(p.held, route.Prefix)
		return false
	}
	p.held[route.Prefix] = route
	// The suppressed route must leave the RIB entirely.
	if p.adjIn.Remove(route.Prefix) {
		r.recompute(route.Prefix)
	}
	r.scheduleReuse(p, route.Prefix, d.ReuseAt(now))
	return true
}

// scheduleReuse arranges reinstatement of a held route once its penalty
// decays below the reuse threshold.
func (r *Router) scheduleReuse(p *Peer, prefix netip.Prefix, at time.Time) {
	r.net.Engine.ScheduleAt(at, func() {
		route, ok := p.held[prefix]
		if !ok || !p.up {
			return
		}
		now := r.net.Engine.Now()
		d := r.dampener(p, prefix)
		if d.Suppressed(now) {
			r.scheduleReuse(p, prefix, d.ReuseAt(now))
			return
		}
		delete(p.held, prefix)
		if p.adjIn.Set(route) {
			r.recompute(prefix)
		}
	})
}

// Run drives the network to quiescence, returning the number of events
// processed.
func (n *Network) Run() (int, error) { return n.Engine.Run(0) }
