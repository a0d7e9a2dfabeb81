// Package analysis computes the paper's tables and figures from normalized
// event streams: the dataset overview (Table 1), announcement-type shares
// (Table 2), the longitudinal type series (Figure 2), per-session type
// mixes (Figure 3), per-path cumulative series (Figures 4/5), and the
// revealed-community attribution (Figure 6).
//
// Every analysis is a mergeable accumulator (Analyzer, see engine.go):
// Observe folds classified events in, Merge combines shard accumulators,
// Finish produces the table or figure. RunAll answers any number of
// questions in ONE classification pass over a stream.EventSource, and the
// same analyzers run shard-parallel over a store via evstore. A New*
// constructor plus RunAll is the one way to answer a question over a
// stream.
package analysis

import (
	"net/netip"
	"strconv"
	"time"
	"unsafe"

	"repro/internal/beacon"
	"repro/internal/bgp"
	"repro/internal/classify"
	"repro/internal/stream"
	"repro/internal/workload"
)

// Table1 is the d_mar20 overview (paper Table 1).
type Table1 struct {
	PrefixesV4 int
	PrefixesV6 int
	ASes       int
	Sessions   int
	Peers      int

	Announcements   int
	WithCommunities int
	// UniqueCommunities counts distinct 16-bit-encoded (RFC 1997) community
	// values across all announcements (paper: "uniq. 16 bits").
	UniqueCommunities int
	UniqueASPaths     int
	Withdrawals       int
}

// table1Accum incrementally builds Table 1 from in-window events.
type table1Accum struct {
	t1       Table1
	v4, v6   map[netip.Prefix]struct{}
	ases     map[uint32]struct{}
	sessions map[classify.SessionKey]struct{}
	peers    map[uint32]struct{}
	comms    map[bgp.Community]struct{}
	paths    map[string]struct{}
	// pathKey is the reusable scratch for the paths-set key: the exact
	// ASPath.String() bytes, rebuilt per event without allocating.
	// Inserted keys are copied into keyArena and stored as string views
	// over it — chunked arena growth instead of one heap string per
	// unique path (a day-scale store has thousands).
	pathKey  []byte
	keyArena []byte
	// lastSession/lastPrefix short-circuit the set inserts for the
	// common per-session-ordered inputs (stream.Concat producers, store
	// scans), where long runs of events share a session.
	lastSession classify.SessionKey
	haveSession bool
	lastPeer    uint32
	lastPrefix  netip.Prefix
	havePrefix  bool
}

func newTable1Accum() *table1Accum {
	return &table1Accum{
		v4:       make(map[netip.Prefix]struct{}),
		v6:       make(map[netip.Prefix]struct{}),
		ases:     make(map[uint32]struct{}),
		sessions: make(map[classify.SessionKey]struct{}),
		peers:    make(map[uint32]struct{}),
		comms:    make(map[bgp.Community]struct{}),
		paths:    make(map[string]struct{}),
	}
}

func (a *table1Accum) observe(e classify.Event) {
	if session := e.Session(); !a.haveSession || session != a.lastSession {
		a.sessions[session] = struct{}{}
		a.peers[e.PeerAS] = struct{}{}
		a.lastSession, a.lastPeer, a.haveSession = session, e.PeerAS, true
	} else if e.PeerAS != a.lastPeer {
		a.peers[e.PeerAS] = struct{}{}
		a.lastPeer = e.PeerAS
	}
	if !a.havePrefix || e.Prefix != a.lastPrefix {
		if e.Prefix.Addr().Is4() {
			a.v4[e.Prefix] = struct{}{}
		} else {
			a.v6[e.Prefix] = struct{}{}
		}
		a.lastPrefix, a.havePrefix = e.Prefix, true
	}
	if e.Withdraw {
		a.t1.Withdrawals++
		return
	}
	a.t1.Announcements++
	if len(e.Communities) > 0 {
		a.t1.WithCommunities++
		for _, c := range e.Communities {
			a.comms[c] = struct{}{}
		}
	}
	a.pathKey = appendPathKey(a.pathKey[:0], e.ASPath)
	if _, ok := a.paths[string(a.pathKey)]; !ok {
		a.paths[a.intern(a.pathKey)] = struct{}{}
		// A path-set miss is the only time this path's ASNs can be new:
		// a known path already contributed its ASes.
		for _, seg := range e.ASPath {
			for _, as := range seg.ASNs {
				a.ases[as] = struct{}{}
			}
		}
	}
}

// intern copies a rendered path key into the key arena and returns a
// string view over the copy, for insertion into the paths set. The
// arena chunk is abandoned (never rewound) when exhausted, so issued
// views stay stable; snapshots copy the bytes out, so mixed arena and
// heap keys coexist freely after a Merge.
func (a *table1Accum) intern(key []byte) string {
	n := len(key)
	if n == 0 {
		return ""
	}
	if cap(a.keyArena)-len(a.keyArena) < n {
		a.keyArena = make([]byte, 0, max(1<<15, n))
	}
	l := len(a.keyArena)
	a.keyArena = append(a.keyArena, key...)
	return unsafe.String(&a.keyArena[l], n)
}

// appendPathKey renders p exactly like bgp.ASPath.String into dst —
// the hot-path form that reuses the caller's buffer instead of
// allocating a string per event.
func appendPathKey(dst []byte, p bgp.ASPath) []byte {
	for i, s := range p {
		if i > 0 {
			dst = append(dst, ' ')
		}
		if s.Type == bgp.SegmentSet {
			dst = append(dst, '{')
		}
		for j, a := range s.ASNs {
			if j > 0 {
				if s.Type == bgp.SegmentSet {
					dst = append(dst, ',')
				} else {
					dst = append(dst, ' ')
				}
			}
			dst = strconv.AppendUint(dst, uint64(a), 10)
		}
		if s.Type == bgp.SegmentSet {
			dst = append(dst, '}')
		}
	}
	return dst
}

func (a *table1Accum) finish() Table1 {
	a.t1.PrefixesV4 = len(a.v4)
	a.t1.PrefixesV6 = len(a.v6)
	a.t1.ASes = len(a.ases)
	a.t1.Sessions = len(a.sessions)
	a.t1.Peers = len(a.peers)
	a.t1.UniqueCommunities = len(a.comms)
	a.t1.UniqueASPaths = len(a.paths)
	return a.t1
}

// Figure2Row is one day of the longitudinal type series.
type Figure2Row struct {
	Year   int
	Counts classify.Counts
}

// Figure2Series generates and classifies one synthetic day per year over
// [fromYear, toYear], the scaled-down analogue of Figure 2's quarterly
// series. Years are independent (each has its own generators and
// classifier), so they run on a bounded worker pool; rows come back in
// year order regardless of completion order.
func Figure2Series(fromYear, toYear int) []Figure2Row {
	return Figure2SeriesWorkers(fromYear, toYear, 0)
}

// Figure2SeriesWorkers is Figure2Series with an explicit pool size
// (<= 0 uses GOMAXPROCS; 1 is strictly sequential).
func Figure2SeriesWorkers(fromYear, toYear, workers int) []Figure2Row {
	n := toYear - fromYear + 1
	if n <= 0 {
		return nil
	}
	rows := make([]Figure2Row, n)
	stream.ForEachIndexed(n, workers, func(i int) {
		y := fromYear + i
		cfg := workload.HistoricalDayConfig(y)
		_, sources := workload.DaySources(cfg)
		counts := NewCounts()
		RunAll(stream.Concat(sources...), cfg.InWindow, counts)
		rows[i] = Figure2Row{Year: y, Counts: counts.Counts}
	})
	return rows
}

// SessionMix is one bar of Figure 3: the announcement-type mix one session
// observed for one beacon prefix.
type SessionMix struct {
	Session classify.SessionKey
	PeerAS  uint32
	Counts  classify.Counts
}

// Total returns the session's announcement count.
func (s SessionMix) Total() int { return s.Counts.Announcements() }

// CumPoint is one classified announcement on a (session, prefix, path)
// stream.
type CumPoint struct {
	Time time.Time
	Type classify.Type
}

// CumSeries is the Figure 4/5 data: announcements over the day for one
// prefix via one AS path on one session, plus the withdrawal instants
// (the vertical lines in the figures).
type CumSeries struct {
	Points      []CumPoint
	Withdrawals []time.Time
}

// TypeCounts tallies the series by type.
func (c CumSeries) TypeCounts() classify.Counts {
	var counts classify.Counts
	for _, p := range c.Points {
		counts.Add(classify.Result{Type: p.Type})
	}
	return counts
}

// Figure6Row is one year of the revealed-information series.
type Figure6Row struct {
	Year    int
	Summary beacon.RevealedSummary
}

// Figure6Series generates beacon update streams per year and attributes
// their community reveals, one independent year per pool worker.
func Figure6Series(fromYear, toYear int) []Figure6Row {
	return Figure6SeriesWorkers(fromYear, toYear, 0)
}

// Figure6SeriesWorkers is Figure6Series with an explicit pool size
// (<= 0 uses GOMAXPROCS; 1 is strictly sequential).
func Figure6SeriesWorkers(fromYear, toYear, workers int) []Figure6Row {
	n := toYear - fromYear + 1
	if n <= 0 {
		return nil
	}
	rows := make([]Figure6Row, n)
	stream.ForEachIndexed(n, workers, func(i int) {
		y := fromYear + i
		cfg := workload.HistoricalBeaconConfig(y)
		_, sources := workload.BeaconSources(cfg)
		revealed := NewRevealed(cfg.Schedule)
		RunAll(stream.Concat(sources...), cfg.InWindow, revealed)
		rows[i] = Figure6Row{Year: y, Summary: revealed.Summary()}
	})
	return rows
}

// Figure2QuarterRow is one quarterly sample of the longitudinal series.
type Figure2QuarterRow struct {
	Year    int
	Quarter int // 0-3: Mar/Jun/Sep/Dec 15
	Counts  classify.Counts
}

// Figure2SeriesQuarterly reproduces the paper's actual §4 sampling: one
// day every three months across the year range (Figure 2's x axis),
// each sampled day generated and classified on a bounded worker pool.
func Figure2SeriesQuarterly(fromYear, toYear int) []Figure2QuarterRow {
	return Figure2SeriesQuarterlyWorkers(fromYear, toYear, 0)
}

// Figure2SeriesQuarterlyWorkers is Figure2SeriesQuarterly with an
// explicit pool size (<= 0 uses GOMAXPROCS; 1 is strictly sequential).
func Figure2SeriesQuarterlyWorkers(fromYear, toYear, workers int) []Figure2QuarterRow {
	n := 4 * (toYear - fromYear + 1)
	if n <= 0 {
		return nil
	}
	rows := make([]Figure2QuarterRow, n)
	stream.ForEachIndexed(n, workers, func(i int) {
		y, q := fromYear+i/4, i%4
		cfg := workload.HistoricalQuarterConfig(y, q)
		_, sources := workload.DaySources(cfg)
		counts := NewCounts()
		RunAll(stream.Concat(sources...), cfg.InWindow, counts)
		rows[i] = Figure2QuarterRow{Year: y, Quarter: q, Counts: counts.Counts}
	})
	return rows
}
