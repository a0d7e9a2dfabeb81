// Package classify implements the paper's core analysis (§5): labelling
// each BGP announcement, relative to the previous announcement for the same
// prefix on the same collector session, with one of six types according to
// whether the AS path and the community attribute changed:
//
//	pc  path + community change
//	pn  path change only
//	nc  community change only
//	nn  no change (a duplicate)
//	xc  path prepending + community change
//	xn  path prepending only
//
// nc and nn announcements carry no new reachability information; the paper
// shows they constitute roughly half of all collector-observed
// announcements in March 2020.
//
// The package offers two execution paths with identical results. The
// row path feeds one Event at a time to Classifier.Observe and an
// Analyzer's Observe. The batch path (batch.go) works on a Batch —
// parallel column arrays of dictionary ids over a shared Dict — plus a
// selection vector of surviving row indexes: Classifier.RunBatch
// classifies every selected row using id equality to skip value
// comparisons, and analyzers implementing BatchAnalyzer aggregate on
// dictionary ids, resolving ids to strings only at snapshot, merge, or
// finish boundaries — after which they hold no reference into the
// Dict, which lets callers pool and reuse it across scans. The two
// paths may be interleaved freely on one Classifier; Observe
// materializes any deferred batch-side state first.
package classify

import (
	"fmt"
	"net/netip"
	"time"

	"repro/internal/bgp"
)

// Type is one of the six announcement types of Table 2.
type Type int

// Announcement types in the paper's presentation order.
const (
	PC Type = iota // path + community change
	PN             // path change only
	NC             // community change only
	NN             // no change
	XC             // prepending + community change
	XN             // prepending only
	numTypes
)

// String renders the conventional two-letter label.
func (t Type) String() string {
	switch t {
	case PC:
		return "pc"
	case PN:
		return "pn"
	case NC:
		return "nc"
	case NN:
		return "nn"
	case XC:
		return "xc"
	case XN:
		return "xn"
	}
	return fmt.Sprintf("type(%d)", int(t))
}

// Types lists all six in presentation order.
func Types() []Type { return []Type{PC, PN, NC, NN, XC, XN} }

// NoPathChange reports whether the type carries no new path information
// (the paper's "unnecessary update" candidates).
func (t Type) NoPathChange() bool { return t == NC || t == NN }

// Event is one routing message observation on a collector session, the
// normalized record the pipeline (§4) produces from raw MRT data.
type Event struct {
	Time      time.Time
	Collector string
	PeerAS    uint32
	PeerAddr  netip.Addr
	Prefix    netip.Prefix
	Withdraw  bool

	ASPath      bgp.ASPath
	Communities bgp.Communities // canonical form
	HasMED      bool
	MED         uint32
}

// SessionKey identifies the BGP session an event arrived on.
type SessionKey struct {
	Collector string
	PeerAddr  netip.Addr
}

// Session returns the event's session key.
func (e Event) Session() SessionKey {
	return SessionKey{Collector: e.Collector, PeerAddr: e.PeerAddr}
}

// streamKey identifies one (session, prefix) announcement stream.
type streamKey struct {
	session SessionKey
	prefix  netip.Prefix
}

// prevState is the remembered previous announcement of a stream. The
// classifier stores pointers so the batch path can cache them by
// dictionary id: key lets a withdrawal found through the id cache
// delete the canonical map entry, live marks whether the stream is
// currently announced (a dead state may still be referenced by the id
// cache), and epoch/pathID/commsID record the dictionary ids of the
// remembered announcement — valid only while epoch equals the
// classifier's current dictionary epoch (0 means never valid; the row
// path writes values without ids and resets epoch to 0).
type prevState struct {
	path   bgp.ASPath
	comms  bgp.Communities
	hasMED bool
	med    uint32

	key     streamKey
	live    bool
	epoch   uint32
	pathID  uint32
	commsID uint32
}

// Result is the classification of one announcement.
type Result struct {
	Type Type
	// First marks the initial announcement of a stream (including the first
	// after a withdrawal); it compares against the empty state.
	First bool
	// MEDChanged annotates nn announcements explicable by a MED change
	// (§5: "we acknowledge a change in the MED attribute as a reason for an
	// nn announcement").
	MEDChanged bool
}

// Classifier assigns announcement types over per-(session, prefix) streams
// in arrival order. It is not safe for concurrent use. The row path
// (Observe) and the batch path (RunBatch) share the same canonical
// state map and may be interleaved freely; results are identical either
// way.
type Classifier struct {
	state map[streamKey]*prevState
	// slab amortizes prevState allocation: streams are allocated in
	// chunks so the row path stays at O(1) allocations per scan rather
	// than one per stream.
	slab []prevState
	// Batch-path id cache: dict is the dictionary the cache and the
	// stream epochs are valid against, epoch is bumped whenever it
	// changes (0 is reserved as never-valid), and cache indexes the
	// canonical stream states by packed dictionary-id triples.
	dict  *Dict
	epoch uint32
	cache streamCache
	// deferred marks a classifier that has only ever been fed batches:
	// every live stream is reachable through the id cache, and the
	// canonical map is empty — its per-stream hashed inserts deferred.
	// The first row Observe, Snapshot, non-packable stream id, or
	// dictionary switch with cached streams materializes the map
	// (flushes live cached streams into it) and clears the flag.
	deferred bool
}

// New returns an empty classifier.
func New() *Classifier {
	return &Classifier{state: make(map[streamKey]*prevState), deferred: true}
}

// newState hands out a zeroed prevState from the slab.
func (c *Classifier) newState() *prevState {
	if len(c.slab) == 0 {
		c.slab = make([]prevState, 256)
	}
	st := &c.slab[0]
	c.slab = c.slab[1:]
	return st
}

// Observe processes one event. Announcements yield a classification;
// withdrawals clear the stream state (so the next announcement of the
// stream is First, typically a pc/pn opening a path-exploration burst) and
// return ok = false.
func (c *Classifier) Observe(e Event) (Result, bool) {
	if c.deferred {
		c.materialize()
	}
	key := streamKey{session: e.Session(), prefix: e.Prefix}
	if e.Withdraw {
		if st, ok := c.state[key]; ok {
			st.live = false
			delete(c.state, key)
		}
		return Result{}, false
	}
	curPath := e.ASPath
	// Canonical may alias the event's slice; classifier state is
	// private and only ever compared, never mutated, so the aliasing
	// contract holds without a copy on this hot path.
	curComms := e.Communities.Canonical()
	st, seen := c.state[key]
	if !seen {
		st = c.newState()
		st.key = key
		st.live = true
		st.path, st.comms = curPath, curComms
		st.hasMED, st.med = e.HasMED, e.MED
		c.state[key] = st
		res := Result{First: true}
		if len(curComms) > 0 {
			res.Type = PC
		} else {
			res.Type = PN
		}
		return res, true
	}
	pathChanged := !st.path.Equal(curPath)
	prependOnly := pathChanged && st.path.SameASSet(curPath)
	commChanged := !st.comms.Equal(curComms)
	var t Type
	switch {
	case prependOnly && commChanged:
		t = XC
	case prependOnly:
		t = XN
	case pathChanged && commChanged:
		t = PC
	case pathChanged:
		t = PN
	case commChanged:
		t = NC
	default:
		t = NN
	}
	res := Result{
		Type:       t,
		MEDChanged: st.hasMED != e.HasMED || st.med != e.MED,
	}
	st.path, st.comms = curPath, curComms
	st.hasMED, st.med = e.HasMED, e.MED
	// The row path carries no dictionary ids; invalidate any the batch
	// path had cached on this stream.
	st.epoch = 0
	return res, true
}

// Streams returns the number of live (session, prefix) streams.
func (c *Classifier) Streams() int {
	if c.deferred {
		n := 0
		for _, st := range c.cache.vals {
			if st != nil && st.live {
				n++
			}
		}
		return n
	}
	return len(c.state)
}

// Counts tallies announcement types plus withdrawals, the unit of Table 2
// and Figures 2–5.
type Counts struct {
	ByType      [numTypes]int
	Withdrawals int
	// MEDOnlyNN counts nn announcements where the MED changed.
	MEDOnlyNN int
}

// Add tallies one classification result.
func (c *Counts) Add(res Result) {
	c.ByType[res.Type]++
	if res.Type == NN && res.MEDChanged {
		c.MEDOnlyNN++
	}
}

// Of returns the count for one type.
func (c Counts) Of(t Type) int { return c.ByType[t] }

// Announcements returns the total number of classified announcements.
func (c Counts) Announcements() int {
	n := 0
	for _, v := range c.ByType {
		n += v
	}
	return n
}

// Share returns the fraction of announcements with the given type, or 0
// when no announcements were observed.
func (c Counts) Share(t Type) float64 {
	total := c.Announcements()
	if total == 0 {
		return 0
	}
	return float64(c.ByType[t]) / float64(total)
}

// NoPathChangeShare returns the combined nc + nn share, the paper's
// headline "around 50% of announcements signal no path change".
func (c Counts) NoPathChangeShare() float64 { return c.Share(NC) + c.Share(NN) }

// Merge accumulates other into c.
func (c *Counts) Merge(other Counts) {
	for i := range c.ByType {
		c.ByType[i] += other.ByType[i]
	}
	c.Withdrawals += other.Withdrawals
	c.MEDOnlyNN += other.MEDOnlyNN
}
