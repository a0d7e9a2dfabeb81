// Package simnet turns the protocol-level simulator into a scenario
// engine for the streaming pipeline: a capture sink that normalizes
// collector-bound messages into per-(collector, peer) event feeds, a
// scenario matrix spanning topology shape, community-hygiene policy,
// vendor behavior, timer settings, and workload, and a sweep runner that
// executes many independent engines in parallel. A simulated collector
// day flows through stream.Merge, analysis.RunAll,
// collector.WriteSourcesDir, and evstore ingestion exactly like a
// generated or MRT-parsed one.
package simnet

import (
	"net/netip"

	"repro/internal/classify"
	"repro/internal/router"
	"repro/internal/stream"
	"repro/internal/workload"
)

// Capture is a router.Sink that retains only the collector's feed,
// normalized to classify.Events and grouped per peer session. Memory is
// bounded by what the collector hears, not by total network traffic —
// the rest of the simulation runs unobserved. Install with
// Network.SetSink; after (or during) the run, Sources exposes the feeds
// as replayable stream.EventSources.
type Capture struct {
	collector string // router name whose inbound messages are captured
	label     string // Event.Collector value stamped on every event
	peerAS    map[string]uint32
	peerAddr  map[string]netip.Addr

	order []string // peer router names in first-heard order
	feeds map[string][]classify.Event
	msgs  int
}

// NewCapture observes messages delivered to the named collector router.
// label is the collector name stamped on normalized events (a scenario
// name, so each sweep run lands in its own store partition); peerAS and
// peerAddr resolve a sending router's session identity, as the topo
// builders record them.
func NewCapture(collectorRouter, label string, peerAS map[string]uint32, peerAddr map[string]netip.Addr) *Capture {
	return &Capture{
		collector: collectorRouter,
		label:     label,
		peerAS:    peerAS,
		peerAddr:  peerAddr,
		feeds:     make(map[string][]classify.Event),
	}
}

// Record implements router.Sink, normalizing each collector-bound
// message into withdraw/announce events on its peer's feed. Messages on
// other links are dropped immediately.
func (c *Capture) Record(m router.TracedMessage) {
	if m.To != c.collector {
		return
	}
	c.msgs++
	feed, seen := c.feeds[m.From]
	if !seen {
		c.order = append(c.order, m.From)
	}
	base := classify.Event{
		Time:      m.Time,
		Collector: c.label,
		PeerAS:    c.peerAS[m.From],
		PeerAddr:  c.peerAddr[m.From],
	}
	for _, prefix := range m.Update.AllWithdrawn() {
		e := base
		e.Prefix = prefix
		e.Withdraw = true
		feed = append(feed, e)
	}
	for _, prefix := range m.Update.Announced() {
		e := base
		e.Prefix = prefix
		// The update's attrs alias the sender's Adj-RIB-Out (and
		// Canonical may alias in turn); captured events outlive the
		// simulation and escape to analyses, so decouple them here.
		e.ASPath = m.Update.Attrs.ASPath.Clone()
		e.Communities = m.Update.Attrs.Communities.Canonical().Clone()
		e.HasMED = m.Update.Attrs.HasMED
		e.MED = m.Update.Attrs.MED
		feed = append(feed, e)
	}
	c.feeds[m.From] = feed
}

// Messages returns how many collector-bound messages were captured.
func (c *Capture) Messages() int { return c.msgs }

// Events returns the total number of normalized events captured.
func (c *Capture) Events() int {
	n := 0
	for _, feed := range c.feeds {
		n += len(feed)
	}
	return n
}

// Sources returns one replayable, time-ordered event source per
// (collector, peer) session, plus the matching peer identities — the
// same shape workload.DaySources returns, so the feeds drop into
// stream.Merge, collector.WriteSourcesDir, and evstore ingestion
// unchanged. Peers are in first-heard order; each source reflects the
// capture state at call time. Yielded events share the capture's stored
// slices (like any FromSlice source): treat them as immutable.
func (c *Capture) Sources() ([]workload.Peer, []stream.EventSource) {
	peers := make([]workload.Peer, 0, len(c.order))
	sources := make([]stream.EventSource, 0, len(c.order))
	for _, name := range c.order {
		peers = append(peers, workload.Peer{
			AS:        c.peerAS[name],
			Addr:      c.peerAddr[name],
			Collector: c.label,
		})
		sources = append(sources, stream.FromSlice(c.feeds[name]))
	}
	return peers, sources
}

// Source returns the collector's merged feed in global time order (ties
// stable by peer first-heard order).
func (c *Capture) Source() stream.EventSource {
	_, sources := c.Sources()
	return stream.Merge(sources...)
}

// ReplayTrace pushes a materialized full-network trace through a fresh
// capture with this capture's identity — the bridge that lets the legacy
// slice-returning flow and equivalence tests reuse one normalization.
func (c *Capture) ReplayTrace(msgs []router.TracedMessage) *Capture {
	fresh := NewCapture(c.collector, c.label, c.peerAS, c.peerAddr)
	for _, m := range msgs {
		fresh.Record(m)
	}
	return fresh
}
