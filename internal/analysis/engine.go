package analysis

import (
	"net/netip"
	"sort"

	"repro/internal/beacon"
	"repro/internal/bgp"
	"repro/internal/classify"
	"repro/internal/stream"
)

// Analyzer is the mergeable-accumulator interface every analysis in
// this package implements (defined in classify so the stream and
// evstore engines can run analyzers without importing this package).
// Construct analyzers with the New* functions, run any number of them
// in one classification pass with RunAll (or shard-parallel over a
// store with evstore.ScanParallel), then read each result off its typed
// accessor.
type Analyzer = classify.Analyzer

// RunAll answers N questions in one pass: one classifier, one
// traversal of src, every analyzer observing each tallied event.
// Events outside inWindow (nil = everything) still feed classifier
// state (the warm-up convention); only in-window events are tallied.
func RunAll(src stream.EventSource, inWindow func(classify.Event) bool, analyzers ...Analyzer) {
	classify.RunAll(src, inWindow, analyzers...)
}

// NewCounts returns the Table 2 type-count analyzer.
func NewCounts() *classify.CountsAnalyzer { return &classify.CountsAnalyzer{} }

// ---------------------------------------------------------------------------
// Table 1
// ---------------------------------------------------------------------------

// Table1Analyzer accumulates the d_mar20 overview (paper Table 1).
type Table1Analyzer struct {
	acc     *table1Accum
	bt      table1Batch   // batch-path gid caches (batch.go)
	decoded table1Decoded // Restore's scratch (snapshot.go)
}

// NewTable1 returns an empty Table 1 analyzer.
func NewTable1() *Table1Analyzer { return &Table1Analyzer{acc: newTable1Accum()} }

// Observe folds one event into the overview.
func (a *Table1Analyzer) Observe(_ classify.Result, e classify.Event) { a.acc.observe(e) }

// Merge unions the distinct-value sets and sums the counters. Both
// sides resolve their pending batch-path gids first so the value maps
// are complete; each union keeps the larger of the two sets, so a
// merge into an empty analyzer takes other's sets over.
func (a *Table1Analyzer) Merge(other Analyzer) {
	a.resolvePending()
	other.(*Table1Analyzer).resolvePending()
	o := other.(*Table1Analyzer).acc
	a.acc.t1.Announcements += o.t1.Announcements
	a.acc.t1.Withdrawals += o.t1.Withdrawals
	a.acc.t1.WithCommunities += o.t1.WithCommunities
	a.acc.v4 = unionInto(a.acc.v4, o.v4)
	a.acc.v6 = unionInto(a.acc.v6, o.v6)
	a.acc.ases = unionInto(a.acc.ases, o.ases)
	a.acc.sessions = unionInto(a.acc.sessions, o.sessions)
	a.acc.peers = unionInto(a.acc.peers, o.peers)
	a.acc.comms = unionInto(a.acc.comms, o.comms)
	a.acc.paths = unionInto(a.acc.paths, o.paths)
}

// Finish returns the Table1.
func (a *Table1Analyzer) Finish() any { return a.Table1() }

// Fresh returns an empty Table 1 analyzer.
func (a *Table1Analyzer) Fresh() Analyzer { return NewTable1() }

// Table1 computes the overview from the accumulated state.
func (a *Table1Analyzer) Table1() Table1 {
	a.resolvePending()
	return a.acc.finish()
}

// unionInto returns the union of two sets, built in the larger one:
// the caller owns both and must not use the other again.
func unionInto[K comparable](dst, src map[K]struct{}) map[K]struct{} {
	if len(dst) < len(src) {
		dst, src = src, dst
	}
	for k := range src {
		dst[k] = struct{}{}
	}
	return dst
}

// ---------------------------------------------------------------------------
// Figure 3 — per-session type mix
// ---------------------------------------------------------------------------

// SessionMixAnalyzer accumulates, for one collector and prefix, each
// session's announcement-type mix (Figure 3's stacked bars).
type SessionMixAnalyzer struct {
	collector string
	prefix    netip.Prefix
	mixes     map[classify.SessionKey]*SessionMix
	bb        sessMixBatch // batch-path gid caches (batch.go)
}

// NewSessionMix returns a Figure 3 analyzer for one collector and prefix.
func NewSessionMix(collector string, prefix netip.Prefix) *SessionMixAnalyzer {
	return &SessionMixAnalyzer{
		collector: collector,
		prefix:    prefix,
		mixes:     make(map[classify.SessionKey]*SessionMix),
	}
}

// Observe tallies one event if it belongs to the analyzer's collector
// and prefix.
func (a *SessionMixAnalyzer) Observe(res classify.Result, e classify.Event) {
	if e.Collector != a.collector || e.Prefix != a.prefix {
		return
	}
	key := e.Session()
	m := a.mixes[key]
	if m == nil {
		m = &SessionMix{Session: key, PeerAS: e.PeerAS}
		a.mixes[key] = m
	}
	if e.Withdraw {
		m.Counts.Withdrawals++
		return
	}
	m.Counts.Add(res)
}

// Merge sums the per-session counts keywise; an empty analyzer takes
// other's mixes over.
func (a *SessionMixAnalyzer) Merge(other Analyzer) {
	o := other.(*SessionMixAnalyzer)
	if len(a.mixes) == 0 {
		a.mixes = o.mixes
		return
	}
	for key, om := range o.mixes {
		m := a.mixes[key]
		if m == nil {
			a.mixes[key] = om
			continue
		}
		m.Counts.Merge(om.Counts)
	}
}

// Finish returns the sorted []SessionMix.
func (a *SessionMixAnalyzer) Finish() any { return a.Mixes() }

// Fresh returns an empty analyzer for the same collector and prefix.
func (a *SessionMixAnalyzer) Fresh() Analyzer { return NewSessionMix(a.collector, a.prefix) }

// Mixes returns each session's mix sorted by descending announcement
// count, ties by peer address, then collector (a restored snapshot is
// not checked to hold the analyzer's collector only).
func (a *SessionMixAnalyzer) Mixes() []SessionMix {
	out := make([]SessionMix, 0, len(a.mixes))
	for _, m := range a.mixes {
		out = append(out, *m)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total() != out[j].Total() {
			return out[i].Total() > out[j].Total()
		}
		if c := out[i].Session.PeerAddr.Compare(out[j].Session.PeerAddr); c != 0 {
			return c < 0
		}
		return out[i].Session.Collector < out[j].Session.Collector
	})
	return out
}

// ---------------------------------------------------------------------------
// Figures 4/5 — cumulative announcements by path
// ---------------------------------------------------------------------------

// CumulativeAnalyzer accumulates the Figure 4/5 series: one session's
// announcements of one prefix via one AS path, plus withdrawal instants.
type CumulativeAnalyzer struct {
	session classify.SessionKey
	prefix  netip.Prefix
	path    string
	series  CumSeries
	cb      cumBatch // batch-path gid caches (batch.go)
}

// NewCumulative returns a Figure 4/5 analyzer for one (session, prefix,
// path) route.
func NewCumulative(session classify.SessionKey, prefix netip.Prefix, pathStr string) *CumulativeAnalyzer {
	return &CumulativeAnalyzer{session: session, prefix: prefix, path: pathStr}
}

// Observe appends the event if it belongs to the route.
func (a *CumulativeAnalyzer) Observe(res classify.Result, e classify.Event) {
	if e.Session() != a.session || e.Prefix != a.prefix {
		return
	}
	if e.Withdraw {
		a.series.Withdrawals = append(a.series.Withdrawals, e.Time)
		return
	}
	if e.ASPath.String() != a.path {
		return
	}
	a.series.Points = append(a.series.Points, CumPoint{Time: e.Time, Type: res.Type})
}

// Merge appends the other series. A session lives entirely within one
// shard (shards are per collector), so at most one shard contributes
// points and concatenation preserves event order.
func (a *CumulativeAnalyzer) Merge(other Analyzer) {
	o := other.(*CumulativeAnalyzer)
	a.series.Points = append(a.series.Points, o.series.Points...)
	a.series.Withdrawals = append(a.series.Withdrawals, o.series.Withdrawals...)
}

// Finish returns the CumSeries.
func (a *CumulativeAnalyzer) Finish() any { return a.Series() }

// Fresh returns an empty analyzer for the same route.
func (a *CumulativeAnalyzer) Fresh() Analyzer { return NewCumulative(a.session, a.prefix, a.path) }

// Series returns the accumulated series.
func (a *CumulativeAnalyzer) Series() CumSeries { return a.series }

// ---------------------------------------------------------------------------
// Figure 6 — revealed community attributes
// ---------------------------------------------------------------------------

// RevealedAnalyzer attributes community values to beacon phases — the
// Figure 6 revealed-information analysis as an accumulator.
type RevealedAnalyzer struct {
	sched   beacon.Schedule
	tracker *beacon.RevealedTracker
}

// NewRevealed returns a Figure 6 analyzer for one beacon schedule.
func NewRevealed(sched beacon.Schedule) *RevealedAnalyzer {
	return &RevealedAnalyzer{sched: sched, tracker: beacon.NewRevealedTracker(sched)}
}

// Observe records one announcement's community attribute.
func (a *RevealedAnalyzer) Observe(_ classify.Result, e classify.Event) {
	if e.Withdraw {
		return
	}
	a.tracker.Observe(e.Time, e.Communities)
}

// Merge ORs the other tracker's phase masks in.
func (a *RevealedAnalyzer) Merge(other Analyzer) {
	a.tracker.Merge(other.(*RevealedAnalyzer).tracker)
}

// Finish returns the RevealedSummary.
func (a *RevealedAnalyzer) Finish() any { return a.Summary() }

// Fresh returns an empty analyzer on the same schedule.
func (a *RevealedAnalyzer) Fresh() Analyzer { return NewRevealed(a.sched) }

// Summary computes the phase breakdown.
func (a *RevealedAnalyzer) Summary() beacon.RevealedSummary { return a.tracker.Summary() }

// ---------------------------------------------------------------------------
// §7 — peer behaviour inference
// ---------------------------------------------------------------------------

// peerAcc is the per-session evidence of the behaviour inference.
type peerAcc struct {
	peerAS   uint32
	total    int
	withComm int
	counts   classify.Counts
}

// PeerBehaviorAnalyzer accumulates per-session community-handling
// evidence and infers each session's PeerBehavior.
type PeerBehaviorAnalyzer struct {
	accs map[classify.SessionKey]*peerAcc
}

// NewPeerBehavior returns an empty peer-behaviour analyzer.
func NewPeerBehavior() *PeerBehaviorAnalyzer {
	return &PeerBehaviorAnalyzer{accs: make(map[classify.SessionKey]*peerAcc)}
}

// Observe tallies one announcement's evidence.
func (a *PeerBehaviorAnalyzer) Observe(res classify.Result, e classify.Event) {
	if e.Withdraw {
		return
	}
	key := e.Session()
	acc := a.accs[key]
	if acc == nil {
		acc = &peerAcc{peerAS: e.PeerAS}
		a.accs[key] = acc
	}
	acc.total++
	if len(e.Communities) > 0 {
		acc.withComm++
	}
	acc.counts.Add(res)
}

// Merge sums the evidence keywise; an empty analyzer takes other's
// evidence over.
func (a *PeerBehaviorAnalyzer) Merge(other Analyzer) {
	o := other.(*PeerBehaviorAnalyzer)
	if len(a.accs) == 0 {
		a.accs = o.accs
		return
	}
	for key, oacc := range o.accs {
		acc := a.accs[key]
		if acc == nil {
			a.accs[key] = oacc
			continue
		}
		acc.total += oacc.total
		acc.withComm += oacc.withComm
		acc.counts.Merge(oacc.counts)
	}
}

// Finish returns the sorted []PeerInference.
func (a *PeerBehaviorAnalyzer) Finish() any { return a.Inferences() }

// Fresh returns an empty peer-behaviour analyzer.
func (a *PeerBehaviorAnalyzer) Fresh() Analyzer { return NewPeerBehavior() }

// Inferences applies the thresholds and returns every session's verdict,
// sorted by (collector, peer address).
func (a *PeerBehaviorAnalyzer) Inferences() []PeerInference {
	out := make([]PeerInference, 0, len(a.accs))
	for key, acc := range a.accs {
		inf := PeerInference{
			Session:       key,
			PeerAS:        acc.peerAS,
			Announcements: acc.total,
			CommShare:     float64(acc.withComm) / float64(acc.total),
			NCShare:       acc.counts.Share(classify.NC),
			NNShare:       acc.counts.Share(classify.NN),
		}
		switch {
		case inf.CommShare > commShareThreshold:
			inf.Behavior = BehaviorPropagates
		case inf.NNShare > nnShareThreshold:
			inf.Behavior = BehaviorCleansEgress
		default:
			inf.Behavior = BehaviorQuiet
		}
		out = append(out, inf)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Session.Collector != out[j].Session.Collector {
			return out[i].Session.Collector < out[j].Session.Collector
		}
		return out[i].Session.PeerAddr.Compare(out[j].Session.PeerAddr) < 0
	})
	return out
}

// ---------------------------------------------------------------------------
// §7 — ingress location inference
// ---------------------------------------------------------------------------

// ingressKey is one (peer AS, tagging AS) pair.
type ingressKey struct {
	peerAS uint32
	tagger uint16
}

// IngressAnalyzer counts distinct city-level geo communities (the
// generator's 2000-2999 value convention, mirroring real geo schemes
// like AS3356's) per (peer, tagger) pair.
type IngressAnalyzer struct {
	locs map[ingressKey]map[bgp.Community]struct{}
}

// NewIngress returns an empty ingress-location analyzer.
func NewIngress() *IngressAnalyzer {
	return &IngressAnalyzer{locs: make(map[ingressKey]map[bgp.Community]struct{})}
}

// Observe records the announcement's city-level geo communities.
func (a *IngressAnalyzer) Observe(_ classify.Result, e classify.Event) {
	if e.Withdraw {
		return
	}
	for _, c := range e.Communities {
		if c.Value() < 2000 || c.Value() > 2999 {
			continue // not a city-level geo community
		}
		key := ingressKey{peerAS: e.PeerAS, tagger: c.ASN()}
		set := a.locs[key]
		if set == nil {
			set = make(map[bgp.Community]struct{})
			a.locs[key] = set
		}
		set[c] = struct{}{}
	}
}

// Merge unions the per-pair community sets; an empty analyzer takes
// other's sets over.
func (a *IngressAnalyzer) Merge(other Analyzer) {
	o := other.(*IngressAnalyzer)
	if len(a.locs) == 0 {
		a.locs = o.locs
		return
	}
	for key, oset := range o.locs {
		set := a.locs[key]
		if set == nil {
			a.locs[key] = oset
			continue
		}
		a.locs[key] = unionInto(set, oset)
	}
}

// Finish returns the sorted []IngressInference.
func (a *IngressAnalyzer) Finish() any { return a.Locations() }

// Fresh returns an empty ingress-location analyzer.
func (a *IngressAnalyzer) Fresh() Analyzer { return NewIngress() }

// Locations returns the distinct-location counts sorted by
// (peer AS, tagger AS).
func (a *IngressAnalyzer) Locations() []IngressInference {
	out := make([]IngressInference, 0, len(a.locs))
	for key, set := range a.locs {
		out = append(out, IngressInference{
			PeerAS:    key.peerAS,
			TaggerAS:  key.tagger,
			Locations: len(set),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].PeerAS != out[j].PeerAS {
			return out[i].PeerAS < out[j].PeerAS
		}
		return out[i].TaggerAS < out[j].TaggerAS
	})
	return out
}

// ---------------------------------------------------------------------------
// §6 — geo community breakdown
// ---------------------------------------------------------------------------

// GeoBreakdown categorizes the distinct geo communities observed for one
// (session, prefix, path) route using the 3356-style value convention the
// generator mirrors (cities 2000–2999, countries 1000–1999, regions
// 100–199) — the §6 observation "9 city communities, two country and two
// geographical regions" encoded in 19 announcements.
type GeoBreakdown struct {
	Cities    int
	Countries int
	Regions   int
	Other     int
}

// GeoBreakdownAnalyzer accumulates the GeoBreakdown of one route.
type GeoBreakdownAnalyzer struct {
	session classify.SessionKey
	prefix  string
	path    string
	sets    [4]map[uint32]struct{} // cities, countries, regions, other
}

// NewGeoBreakdown returns a geo-breakdown analyzer for one route.
func NewGeoBreakdown(session classify.SessionKey, prefix, pathStr string) *GeoBreakdownAnalyzer {
	a := &GeoBreakdownAnalyzer{session: session, prefix: prefix, path: pathStr}
	for i := range a.sets {
		a.sets[i] = make(map[uint32]struct{})
	}
	return a
}

// Observe records the announcement's geo communities if it belongs to
// the route.
func (a *GeoBreakdownAnalyzer) Observe(_ classify.Result, e classify.Event) {
	if e.Withdraw || e.Session() != a.session || e.Prefix.String() != a.prefix || e.ASPath.String() != a.path {
		return
	}
	for _, c := range e.Communities {
		v := uint32(c)
		switch {
		case c.Value() >= 2000 && c.Value() <= 2999:
			a.sets[0][v] = struct{}{}
		case c.Value() >= 1000 && c.Value() <= 1999:
			a.sets[1][v] = struct{}{}
		case c.Value() >= 100 && c.Value() <= 199:
			a.sets[2][v] = struct{}{}
		default:
			a.sets[3][v] = struct{}{}
		}
	}
}

// Merge unions the category sets.
func (a *GeoBreakdownAnalyzer) Merge(other Analyzer) {
	o := other.(*GeoBreakdownAnalyzer)
	for i := range a.sets {
		a.sets[i] = unionInto(a.sets[i], o.sets[i])
	}
}

// Finish returns the GeoBreakdown.
func (a *GeoBreakdownAnalyzer) Finish() any { return a.Breakdown() }

// Fresh returns an empty analyzer for the same route.
func (a *GeoBreakdownAnalyzer) Fresh() Analyzer {
	return NewGeoBreakdown(a.session, a.prefix, a.path)
}

// Breakdown returns the distinct counts per category.
func (a *GeoBreakdownAnalyzer) Breakdown() GeoBreakdown {
	return GeoBreakdown{
		Cities:    len(a.sets[0]),
		Countries: len(a.sets[1]),
		Regions:   len(a.sets[2]),
		Other:     len(a.sets[3]),
	}
}
