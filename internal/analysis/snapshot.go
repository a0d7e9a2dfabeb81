package analysis

import (
	"fmt"
	"math"
	"net/netip"
	"slices"
	"time"

	"repro/internal/beacon"
	"repro/internal/bgp"
	"repro/internal/classify"
	"repro/internal/wire"
)

// Snapshot/Restore implementations for every analyzer in this package.
// A snapshot encodes accumulator STATE only; configuration (the
// collector/prefix/route/schedule an analyzer was constructed for)
// lives in the instance Restore is called on, so snapshots are only
// meaningful restored into a same-configured analyzer — the snapshot
// index keys sidecar entries by a name that includes the configuration
// for exactly that reason. All codecs satisfy the Analyzer contract:
// Restore(Snapshot(s)) into a Fresh analyzer reproduces s's results
// bit-identically, and Restore into any other analyzer folds the
// snapshot in as Merge would. Every Restore decodes the whole snapshot
// before it touches the receiver, so a snapshot that fails to decode,
// or carries a value no accumulator holds, changes nothing.

func snapErr(what string, r *wire.Reader) error {
	if err := r.Err(); err != nil {
		return fmt.Errorf("analysis: %s snapshot: %w", what, err)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Table 1
// ---------------------------------------------------------------------------

// Snapshot appends the overview counters and distinct-value sets,
// after resolving any pending batch-path gids into them.
func (a *Table1Analyzer) Snapshot(dst []byte) []byte {
	a.resolvePending()
	acc := a.acc
	dst = wire.AppendVarint(dst, int64(acc.t1.Announcements))
	dst = wire.AppendVarint(dst, int64(acc.t1.Withdrawals))
	dst = wire.AppendVarint(dst, int64(acc.t1.WithCommunities))
	dst = wire.AppendUvarint(dst, uint64(len(acc.v4)))
	for p := range acc.v4 {
		dst = wire.AppendPrefix(dst, p)
	}
	dst = wire.AppendUvarint(dst, uint64(len(acc.v6)))
	for p := range acc.v6 {
		dst = wire.AppendPrefix(dst, p)
	}
	dst = wire.AppendUvarint(dst, uint64(len(acc.ases)))
	for as := range acc.ases {
		dst = wire.AppendUvarint(dst, uint64(as))
	}
	dst = wire.AppendUvarint(dst, uint64(len(acc.sessions)))
	for s := range acc.sessions {
		dst = classify.AppendSessionKey(dst, s)
	}
	dst = wire.AppendUvarint(dst, uint64(len(acc.peers)))
	for as := range acc.peers {
		dst = wire.AppendUvarint(dst, uint64(as))
	}
	dst = wire.AppendUvarint(dst, uint64(len(acc.comms)))
	for c := range acc.comms {
		dst = wire.AppendUvarint(dst, uint64(c))
	}
	dst = wire.AppendUvarint(dst, uint64(len(acc.paths)))
	for p := range acc.paths {
		dst = wire.AppendString(dst, p)
	}
	return dst
}

// table1Decoded is one Table 1 snapshot decoded but not yet folded in:
// Restore's scratch, reused from one Restore to the next. Paths are
// views into the snapshot bytes, cleared once folded.
type table1Decoded struct {
	counts      [3]int // announcements, withdrawals, with communities
	v4, v6      []netip.Prefix
	ases, peers []uint32
	sessions    []classify.SessionKey
	comms       []bgp.Community
	paths       [][]byte
}

func (d *table1Decoded) decode(src []byte) error {
	r := wire.NewReader(src)
	for i := range d.counts {
		if d.counts[i] = r.Int(); d.counts[i] < 0 {
			r.Fail("negative count %d", d.counts[i])
		}
	}
	d.v4 = readEach(r, d.v4[:0], (*wire.Reader).Prefix)
	d.v6 = readEach(r, d.v6[:0], (*wire.Reader).Prefix)
	d.ases = readEach(r, d.ases[:0], (*wire.Reader).Uint32)
	d.sessions = readEach(r, d.sessions[:0], classify.ReadSessionKey)
	d.peers = readEach(r, d.peers[:0], (*wire.Reader).Uint32)
	d.comms = readEach(r, d.comms[:0], func(r *wire.Reader) bgp.Community { return bgp.Community(r.Uint32()) })
	d.paths = readEach(r, d.paths[:0], func(r *wire.Reader) []byte { return r.Bytes(r.Count(1)) })
	return snapErr("table1", r)
}

// readEach reads a count, then that many elements with read, appending
// them to dst.
func readEach[T any](r *wire.Reader, dst []T, read func(*wire.Reader) T) []T {
	n := r.Count(1)
	dst = slices.Grow(dst, n)
	for range n {
		dst = append(dst, read(r))
	}
	return dst
}

// insertEach adds keys to a set, presizing it when it is empty.
func insertEach[K comparable](set map[K]struct{}, keys []K) map[K]struct{} {
	if len(set) == 0 && len(keys) > 0 {
		set = make(map[K]struct{}, len(keys))
	}
	for _, k := range keys {
		set[k] = struct{}{}
	}
	return set
}

// Restore folds a snapshot's overview into the accumulated one: the
// snapshot is decoded into scratch first, then its values go straight
// into the sets, a path copied into the key arena only when the paths
// set does not hold it yet.
func (a *Table1Analyzer) Restore(src []byte) error {
	d := &a.decoded
	if err := d.decode(src); err != nil {
		return err
	}
	acc := a.acc
	acc.t1.Announcements += d.counts[0]
	acc.t1.Withdrawals += d.counts[1]
	acc.t1.WithCommunities += d.counts[2]
	acc.v4 = insertEach(acc.v4, d.v4)
	acc.v6 = insertEach(acc.v6, d.v6)
	acc.ases = insertEach(acc.ases, d.ases)
	acc.sessions = insertEach(acc.sessions, d.sessions)
	acc.peers = insertEach(acc.peers, d.peers)
	acc.comms = insertEach(acc.comms, d.comms)
	if len(acc.paths) == 0 && len(d.paths) > 0 {
		acc.paths = make(map[string]struct{}, len(d.paths))
	}
	for _, p := range d.paths {
		if _, ok := acc.paths[string(p)]; !ok {
			acc.paths[acc.intern(p)] = struct{}{}
		}
	}
	clear(d.paths)
	return nil
}

// ---------------------------------------------------------------------------
// Figure 3 — per-session type mix
// ---------------------------------------------------------------------------

// Snapshot appends the per-session mixes (configuration — collector and
// prefix — is not encoded).
func (a *SessionMixAnalyzer) Snapshot(dst []byte) []byte {
	dst = wire.AppendUvarint(dst, uint64(len(a.mixes)))
	for key, m := range a.mixes {
		dst = classify.AppendSessionKey(dst, key)
		dst = wire.AppendUvarint(dst, uint64(m.PeerAS))
		dst = classify.AppendCounts(dst, m.Counts)
	}
	return dst
}

// Restore folds a snapshot's per-session mixes in.
func (a *SessionMixAnalyzer) Restore(src []byte) error {
	r := wire.NewReader(src)
	n := r.Count(2)
	mixes := make(map[classify.SessionKey]*SessionMix, n)
	for i := 0; i < n; i++ {
		key := classify.ReadSessionKey(r)
		m := &SessionMix{Session: key, PeerAS: r.Uint32()}
		m.Counts = classify.ReadCounts(r)
		if r.Err() != nil {
			break
		}
		mixes[key] = m
	}
	if err := snapErr("session mix", r); err != nil {
		return err
	}
	a.Merge(&SessionMixAnalyzer{mixes: mixes})
	return nil
}

// ---------------------------------------------------------------------------
// Figures 4/5 — cumulative announcements by path
// ---------------------------------------------------------------------------

// Snapshot appends the series points and withdrawal instants in order.
func (a *CumulativeAnalyzer) Snapshot(dst []byte) []byte {
	dst = wire.AppendUvarint(dst, uint64(len(a.series.Points)))
	for _, p := range a.series.Points {
		dst = wire.AppendTime(dst, p.Time)
		dst = wire.AppendUvarint(dst, uint64(p.Type))
	}
	dst = wire.AppendUvarint(dst, uint64(len(a.series.Withdrawals)))
	for _, t := range a.series.Withdrawals {
		dst = wire.AppendTime(dst, t)
	}
	return dst
}

// Restore appends a snapshot's series to the accumulated one.
func (a *CumulativeAnalyzer) Restore(src []byte) error {
	r := wire.NewReader(src)
	var series CumSeries
	if n := r.Count(2); n > 0 {
		series.Points = make([]CumPoint, 0, n)
		for i := 0; i < n; i++ {
			p := CumPoint{Time: r.Time()}
			if t := r.Uvarint(); t > uint64(classify.XN) {
				r.Fail("announcement type %d", t)
			} else {
				p.Type = classify.Type(t)
			}
			series.Points = append(series.Points, p)
		}
	}
	if n := r.Count(1); n > 0 {
		series.Withdrawals = make([]time.Time, 0, n)
		for i := 0; i < n; i++ {
			series.Withdrawals = append(series.Withdrawals, r.Time())
		}
	}
	if err := snapErr("cumulative", r); err != nil {
		return err
	}
	a.Merge(&CumulativeAnalyzer{series: series})
	return nil
}

// ---------------------------------------------------------------------------
// Figure 6 — revealed community attributes
// ---------------------------------------------------------------------------

// Snapshot appends the tracker state (the schedule is configuration).
func (a *RevealedAnalyzer) Snapshot(dst []byte) []byte {
	return a.tracker.Snapshot(dst)
}

// Restore ORs a snapshot's phase masks into the tracker.
func (a *RevealedAnalyzer) Restore(src []byte) error {
	t := beacon.NewRevealedTracker(a.sched)
	if err := t.Restore(src); err != nil {
		return err
	}
	a.tracker.Merge(t)
	return nil
}

// ---------------------------------------------------------------------------
// §7 — peer behaviour inference
// ---------------------------------------------------------------------------

// Snapshot appends the per-session evidence.
func (a *PeerBehaviorAnalyzer) Snapshot(dst []byte) []byte {
	dst = wire.AppendUvarint(dst, uint64(len(a.accs)))
	for key, acc := range a.accs {
		dst = classify.AppendSessionKey(dst, key)
		dst = wire.AppendUvarint(dst, uint64(acc.peerAS))
		dst = wire.AppendVarint(dst, int64(acc.total))
		dst = wire.AppendVarint(dst, int64(acc.withComm))
		dst = classify.AppendCounts(dst, acc.counts)
	}
	return dst
}

// Restore folds a snapshot's per-session evidence in.
func (a *PeerBehaviorAnalyzer) Restore(src []byte) error {
	r := wire.NewReader(src)
	n := r.Count(2)
	accs := make(map[classify.SessionKey]*peerAcc, n)
	for i := 0; i < n; i++ {
		key := classify.ReadSessionKey(r)
		acc := &peerAcc{peerAS: r.Uint32(), total: r.Int(), withComm: r.Int()}
		if acc.total < 0 || acc.withComm < 0 {
			r.Fail("negative count")
		}
		acc.counts = classify.ReadCounts(r)
		if r.Err() != nil {
			break
		}
		accs[key] = acc
	}
	if err := snapErr("peer behavior", r); err != nil {
		return err
	}
	a.Merge(&PeerBehaviorAnalyzer{accs: accs})
	return nil
}

// ---------------------------------------------------------------------------
// §7 — ingress location inference
// ---------------------------------------------------------------------------

// Snapshot appends the per-(peer, tagger) community sets.
func (a *IngressAnalyzer) Snapshot(dst []byte) []byte {
	dst = wire.AppendUvarint(dst, uint64(len(a.locs)))
	for key, set := range a.locs {
		dst = wire.AppendUvarint(dst, uint64(key.peerAS))
		dst = wire.AppendUvarint(dst, uint64(key.tagger))
		dst = wire.AppendUvarint(dst, uint64(len(set)))
		for c := range set {
			dst = wire.AppendUvarint(dst, uint64(c))
		}
	}
	return dst
}

// Restore folds a snapshot's location sets in.
func (a *IngressAnalyzer) Restore(src []byte) error {
	r := wire.NewReader(src)
	n := r.Count(2)
	locs := make(map[ingressKey]map[bgp.Community]struct{}, n)
	for i := 0; i < n; i++ {
		key := ingressKey{peerAS: r.Uint32()}
		if tagger := r.Uvarint(); tagger > math.MaxUint16 {
			r.Fail("tagger AS %d", tagger)
		} else {
			key.tagger = uint16(tagger)
		}
		m := r.Count(1)
		set := make(map[bgp.Community]struct{}, m)
		for j := 0; j < m; j++ {
			set[bgp.Community(r.Uint32())] = struct{}{}
		}
		if r.Err() != nil {
			break
		}
		locs[key] = set
	}
	if err := snapErr("ingress", r); err != nil {
		return err
	}
	a.Merge(&IngressAnalyzer{locs: locs})
	return nil
}

// ---------------------------------------------------------------------------
// §6 — geo community breakdown
// ---------------------------------------------------------------------------

// Snapshot appends the four category sets (the route configuration is
// not encoded).
func (a *GeoBreakdownAnalyzer) Snapshot(dst []byte) []byte {
	for i := range a.sets {
		dst = wire.AppendUvarint(dst, uint64(len(a.sets[i])))
		for v := range a.sets[i] {
			dst = wire.AppendUvarint(dst, uint64(v))
		}
	}
	return dst
}

// Restore unions a snapshot's category sets in.
func (a *GeoBreakdownAnalyzer) Restore(src []byte) error {
	r := wire.NewReader(src)
	var sets [4]map[uint32]struct{}
	for i := range sets {
		n := r.Count(1)
		sets[i] = make(map[uint32]struct{}, n)
		for j := 0; j < n; j++ {
			sets[i][r.Uint32()] = struct{}{}
		}
	}
	if err := snapErr("geo breakdown", r); err != nil {
		return err
	}
	a.Merge(&GeoBreakdownAnalyzer{sets: sets})
	return nil
}
