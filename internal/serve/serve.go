// Package serve is the query-serving layer over the columnar event
// store: a long-running daemon answers the paper's tables, figures,
// and §7 inferences as windowed queries, merging precomputed
// per-partition analyzer snapshots instead of rescanning the store.
//
// The serving stack is two-tier. A Backend engine answers "merged
// analyzer STATE for this spec" (backend.go): LocalBackend executes
// the residual-scan planner over one store directory, RemoteBackend
// proxies to a shard daemon's /v1/state endpoint, and Coordinator
// fans out to N shards and merges their states under the Analyzer
// Merge laws — each collector's whole timeline lives on one shard
// (consistent hashing, the ScanShards invariant), so the merge is
// bit-identical to a single-node answer over the union store. The
// Server frontend is engine-agnostic: it shapes state into the JSON
// Answer envelope and serves the same /v1 HTTP API whichever engine
// sits below. Single-node (LocalBackend) remains the default.
//
// State stays accumulators inside a process; it becomes bytes only at
// the /v1/state wire boundary (backend.go).
//
// Caching lives in the Server and nowhere else: one generation-guarded
// LRU and one singleflight group hold both entry kinds — shaped
// Answers (Server.Answer) and wire-form state envelopes (Server.State,
// which is all a shard daemon serves) — and one method,
// Server.invalidate, drops them when the store moves. Backends hold no
// cache.
//
// Query semantics are the live-collector convention: classification
// state is warm from each collector's full stored timeline, and the
// window selects which classified events are tallied. Every answer is
// bit-identical to a cold ScanParallel of the same window — pinned by
// equivalence tests across synthetic, MRT-archive, store, and
// simulator-fleet producers, and by a cluster equivalence test across
// random shard partitions.
package serve

import (
	"context"
	"fmt"
	"log/slog"
	"net/netip"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/beacon"
	"repro/internal/classify"
	"repro/internal/evstore"
)

// Query kinds — the analyses the daemon serves.
const (
	KindTable1  = "table1"
	KindTable2  = "table2"
	KindFigure2 = "figure2"
	KindFigure3 = "figure3"
	KindFigure4 = "figure4"
	KindFigure5 = "figure5"
	KindFigure6 = "figure6"
	KindPeers   = "peers"
	KindIngress = "ingress"
)

// QuerySpec is one serving request, the union of every kind's
// parameters. Zero-valued dimensions do not constrain.
type QuerySpec struct {
	Kind string

	// Window tallies events in [From, To); zero bounds are unbounded.
	Window evstore.TimeRange
	// Collectors restricts to the named collectors.
	Collectors []string
	// PeerAS / PrefixRange are per-event filters; queries using them
	// bypass snapshots and run as cold scans.
	PeerAS      []uint32
	PrefixRange netip.Prefix

	// FromYear/ToYear bound the figure2 series (calendar-year windows).
	FromYear, ToYear int

	// Collector+Prefix parameterize figure3; PeerAddr+Path additionally
	// parameterize figure4/5 (the route).
	Collector string
	Prefix    netip.Prefix
	PeerAddr  netip.Addr
	Path      string
}

// CacheKey canonicalizes the spec into the result-cache key: every
// spelling of one filter — a peer-AS list in any order or with repeats,
// a prefix range with host bits set (10.0.5.7/20 selects what
// 10.0.0.0/20 does) — is one key, so one cache entry, one singleflight
// and one cold scan, whichever way the spec came in (URL, CSQ1, or in
// process). Free-form string fields (collector names, AS-path text) are
// %q-quoted so a value containing the key's own delimiters can never
// collide with a differently-shaped spec.
func (q QuerySpec) CacheKey() string {
	var b strings.Builder
	b.WriteString(q.Kind)
	fmt.Fprintf(&b, "|w=%d,%d", q.Window.From.UnixNano(), q.Window.To.UnixNano())
	if len(q.Collectors) > 0 {
		cs := append([]string(nil), q.Collectors...)
		sort.Strings(cs)
		b.WriteString("|c=")
		for i, c := range cs {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.Quote(c))
		}
	}
	if len(q.PeerAS) > 0 {
		as := slices.Clone(q.PeerAS)
		slices.Sort(as)
		fmt.Fprintf(&b, "|p=%v", slices.Compact(as))
	}
	if q.PrefixRange.IsValid() {
		fmt.Fprintf(&b, "|r=%s", q.PrefixRange.Masked())
	}
	if q.FromYear != 0 || q.ToYear != 0 {
		fmt.Fprintf(&b, "|y=%d-%d", q.FromYear, q.ToYear)
	}
	if q.Collector != "" {
		fmt.Fprintf(&b, "|col=%s", strconv.Quote(q.Collector))
	}
	if q.Prefix.IsValid() {
		fmt.Fprintf(&b, "|pfx=%s", q.Prefix)
	}
	if q.PeerAddr.IsValid() {
		fmt.Fprintf(&b, "|peer=%s", q.PeerAddr)
	}
	if q.Path != "" {
		fmt.Fprintf(&b, "|path=%s", strconv.Quote(q.Path))
	}
	return b.String()
}

// Answer is one served result with its provenance: where it came from
// (cache, snapshot merges, residual/cold scan), what it cost, and —
// under a coordinator — which shards contributed.
type Answer struct {
	Kind   string `json:"kind"`
	Source string `json:"source"` // "snapshots", "scan", or "cache"
	// Partial marks an answer missing one or more shards' events; the
	// Shards provenance names the failures. Partial answers are never
	// cached.
	Partial bool `json:"partial,omitempty"`
	// Elapsed is the compute time (for cache hits: the ORIGINAL
	// compute time, not the lookup).
	Elapsed time.Duration     `json:"elapsed_ns"`
	Plan    evstore.PlanStats `json:"plan"`
	Scan    evstore.ScanStats `json:"scan"`
	Merges  int               `json:"merges"`
	// Shards is the per-backend provenance: one entry in single-node
	// mode, one per shard under a coordinator.
	Shards []ShardProvenance `json:"shards,omitempty"`
	Data   any               `json:"data"`

	// generation is the engine generation the answer was computed at
	// (for the staleness guard; not part of the payload).
	generation uint64
}

// Config parameterizes a Server.
type Config struct {
	// Dir is the store directory (single-node / shard mode).
	Dir string
	// Workers bounds per-query scan parallelism (0 = GOMAXPROCS).
	Workers int
	// CacheEntries sizes the LRU (0 = 256).
	CacheEntries int
	// Registry is the snapshot-indexed analyzer set (nil = DefaultRegistry).
	Registry []evstore.NamedAnalyzer
	// Backend overrides the engine. nil builds a LocalBackend over Dir;
	// pass a Coordinator to serve scatter-gather.
	Backend Backend
	// Metrics, when non-nil, instruments the server (latency by
	// endpoint×tier, scan work, shard health) and enables GET /metrics.
	// One Metrics instruments one Server.
	Metrics *Metrics
	// Logger receives structured request/refresh records (nil: no
	// request logging). Per-query records log at Debug.
	Logger *slog.Logger
}

// DefaultRegistry returns the analyzer set a daemon snapshots by
// default: the configuration-free analyses plus the paper's figure 3
// default route (rrc00 observing the first RIS beacon prefix). Keys
// embed configuration so differently-parameterized analyzers never
// share sidecar states.
func DefaultRegistry() []evstore.NamedAnalyzer {
	return []evstore.NamedAnalyzer{
		{Key: "table1", Proto: analysis.NewTable1()},
		{Key: "counts", Proto: analysis.NewCounts()},
		{Key: "peers", Proto: analysis.NewPeerBehavior()},
		{Key: "ingress", Proto: analysis.NewIngress()},
		{Key: "revealed:ripe", Proto: analysis.NewRevealed(beacon.RIPE)},
		{Key: sessionMixKey("rrc00", beacon.PrefixN(0)), Proto: analysis.NewSessionMix("rrc00", beacon.PrefixN(0))},
	}
}

func sessionMixKey(collector string, prefix netip.Prefix) string {
	return fmt.Sprintf("sessionmix:%s:%s", collector, prefix)
}

// Server shapes Backend state into served answers. Safe for concurrent
// use; Refresh may run concurrently with queries.
type Server struct {
	cfg     Config
	engine  Backend
	cache   *resultCache
	flight  *flightGroup
	metrics *Metrics
	logger  *slog.Logger

	// lastGen is the last engine generation observed in an envelope; a
	// drift detected mid-compute (a shard refreshed underneath a
	// coordinator) invalidates the cache, so stale entries cannot
	// outlive the observation that the store moved.
	lastGen atomic.Uint64

	started   time.Time
	queries   atomic.Uint64
	deduped   atomic.Uint64
	refreshes atomic.Uint64
}

// New returns a ready server over cfg's engine: the configured Backend
// if set, else a LocalBackend over cfg.Dir (building any missing
// snapshot sidecars for the registry).
func New(ctx context.Context, cfg Config) (*Server, RefreshStats, error) {
	engine := cfg.Backend
	var rs RefreshStats
	if engine == nil {
		lb, lrs, err := NewLocalBackend(ctx, cfg)
		if err != nil {
			return nil, lrs, err
		}
		engine, rs = lb, lrs
	} else {
		var err error
		if rs, err = engine.Refresh(ctx); err != nil {
			return nil, rs, err
		}
	}
	s := &Server{
		cfg:     cfg,
		engine:  engine,
		cache:   newResultCache(cfg.CacheEntries),
		flight:  newFlightGroup(),
		metrics: cfg.Metrics,
		logger:  cfg.Logger,
		started: time.Now(),
	}
	s.lastGen.Store(rs.Generation)
	if s.metrics != nil {
		s.metrics.bind(s)
	}
	return s, rs, nil
}

// invalidate is the one place cached entries are dropped: it records
// the generation the store moved to (0: unknown), clears the cache —
// which also bumps the put guard, so a compute that started before the
// move is returned to its caller but never stored — and counts the
// refresh. Refresh, Watch and observeGeneration all end here.
func (s *Server) invalidate(gen uint64) {
	if gen != 0 {
		s.lastGen.Store(gen)
	}
	s.cache.clear()
	s.refreshes.Add(1)
}

// Refresh re-checks the engine's store(s) for newly sealed partitions
// and drops the cache when answers may have changed.
func (s *Server) Refresh(ctx context.Context) (RefreshStats, error) {
	rs, err := s.engine.Refresh(ctx)
	if err == nil && rs.Changed {
		s.invalidate(rs.Generation)
	}
	return rs, err
}

// Watch follows the engine's store(s) and refreshes whenever live
// ingest seals new partitions (or a shard's generation drifts).
// Blocks until ctx is cancelled; run on its own goroutine. onRefresh
// (optional) observes each refresh.
func (s *Server) Watch(ctx context.Context, interval time.Duration, onRefresh func(RefreshStats, error)) error {
	return s.engine.Watch(ctx, interval, func(rs RefreshStats, err error) {
		if err == nil && rs.Changed {
			s.invalidate(rs.Generation)
		}
		if onRefresh != nil {
			onRefresh(rs, err)
		}
	})
}

// Answer serves one query through the cache and singleflight group.
func (s *Server) Answer(ctx context.Context, spec QuerySpec) (*Answer, error) {
	start := time.Now()
	ans, err := s.answer(ctx, spec)
	if s.metrics != nil {
		if err != nil {
			s.metrics.errors.With(spec.Kind).Inc()
		} else {
			s.metrics.observeAnswer(spec, ans, time.Since(start))
		}
	}
	return ans, err
}

func (s *Server) answer(ctx context.Context, spec QuerySpec) (*Answer, error) {
	s.queries.Add(1)
	ans, hit, err := s.cachedAnswer(ctx, spec, true)
	if err != nil {
		return nil, err
	}
	if hit {
		cp := *ans
		cp.Source = "cache"
		return &cp, nil
	}
	return ans, nil
}

// cachedAnswer reads spec's answer through the cache (shared: do not
// mutate it). observe records a leader's compute in the metrics; figure2
// passes false, its own compute counting its years' work.
func (s *Server) cachedAnswer(ctx context.Context, spec QuerySpec, observe bool) (*Answer, bool, error) {
	v, hit, err := s.cached(ctx, spec.CacheKey(), func(ctx context.Context) (any, uint64, bool, error) {
		ans, err := s.compute(ctx, spec)
		if err != nil {
			return nil, 0, false, err
		}
		if observe && s.metrics != nil {
			// Leader-only: followers and cache hits share this compute's
			// scan work, so the counters track work actually done.
			s.metrics.observeCompute(ans)
		}
		return ans, ans.generation, ans.Partial, nil
	})
	if err != nil {
		return nil, false, err
	}
	return v.(*Answer), hit, nil
}

// State serves one spec's merged analyzer state in wire form — the
// envelope counterpart of Answer, through the same cache (under "state|"
// + the spec's key) and singleflight group; it is the whole of shard
// mode (/v1/state). A compute snapshots the accumulators once, so a hit
// is a byte copy. Callers must not mutate the shared envelope.
func (s *Server) State(ctx context.Context, spec QuerySpec) (*StateEnvelope, error) {
	v, _, err := s.cached(ctx, "state|"+spec.CacheKey(), func(ctx context.Context) (any, uint64, bool, error) {
		env, err := s.engine.State(ctx, spec)
		if err != nil {
			return nil, 0, false, err
		}
		env.Keys = make([]string, len(env.Named))
		env.States = make([][]byte, len(env.Named))
		for i, na := range env.Named {
			env.Keys[i] = na.Key
			env.States[i] = na.Proto.Snapshot(nil)
		}
		env.Named = nil
		return env, env.Generation, env.Partial(), nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*StateEnvelope), nil
}

// cached is the read-through path both entry kinds share: an LRU hit,
// else compute under the singleflight group (a follower counts as
// deduped). compute reports the engine generation its value was
// computed at and whether it is partial; a partial value is returned
// but never stored.
func (s *Server) cached(ctx context.Context, key string, compute func(context.Context) (val any, gen uint64, partial bool, err error)) (val any, hit bool, err error) {
	if v, ok := s.cache.get(key); ok {
		return v, true, nil
	}
	val, shared, err := flightCompute(ctx, s.flight, key, func(ctx context.Context) (any, error) {
		// The clear-generation is read before computing: if the store
		// is refreshed mid-compute, the (possibly stale) value is
		// returned to this caller but never cached.
		guard := s.cache.generation()
		v, gen, partial, err := compute(ctx)
		if err != nil {
			return nil, err
		}
		// A compute that straddled a clear may carry the generation the
		// clear moved away from (a local answer is stamped with the view
		// it planned from): that is no drift, only the past.
		if s.cache.generation() == guard {
			s.observeGeneration(gen)
		}
		if !partial {
			s.cache.put(key, v, guard)
		}
		return v, nil
	})
	if shared {
		s.deduped.Add(1)
	}
	return val, false, err
}

// Ready reports whether the daemon should accept query traffic, and if
// not, why. Distinct from liveness (/healthz): a starting daemon is
// alive but not ready until its engine has a refreshed store view —
// single-node, the store opened and the first snapshot pass completed
// (both done before New returns); under a coordinator, at least one
// shard answering health probes. A fully-partitioned coordinator stays
// ready in degraded (partial-answer) form as long as one shard stands.
func (s *Server) Ready(ctx context.Context) (bool, string) {
	h, err := s.engine.Health(ctx)
	if err != nil {
		return false, err.Error()
	}
	if len(h.Shards) > 0 {
		up := 0
		for _, sh := range h.Shards {
			if sh.OK {
				up++
			}
		}
		if up == 0 {
			return false, "no healthy shards"
		}
		return true, ""
	}
	if !h.OK {
		return false, "engine unhealthy"
	}
	return true, ""
}

// observeGeneration notes the engine generation a value was computed
// at. A change relative to the last observation means the store moved
// without a Refresh/Watch having run here first (a shard refreshed
// between coordinator watch ticks), so previously cached entries may
// be stale: drop them all. The value itself was computed at the NEW
// generation, but its put guard predates the clear, so it is returned
// and not stored; the next request for it computes and stores.
func (s *Server) observeGeneration(gen uint64) {
	if gen == 0 {
		return
	}
	if prev := s.lastGen.Swap(gen); prev != 0 && prev != gen {
		s.invalidate(gen)
	}
}

// compute answers one query uncached: figure2 decomposes into per-year
// table2 answers, every other kind is one engine State call whose
// primary accumulator is shaped into its JSON form.
func (s *Server) compute(ctx context.Context, spec QuerySpec) (*Answer, error) {
	if spec.Kind == KindFigure2 {
		return s.figure2(ctx, spec)
	}
	start := time.Now()
	env, err := s.engine.State(ctx, spec)
	if err != nil {
		return nil, err
	}
	ans := &Answer{
		Kind:       spec.Kind,
		Source:     env.Source,
		Partial:    env.Partial(),
		Plan:       env.Plan,
		Scan:       env.Scan,
		Merges:     env.Merges,
		Shards:     env.Shards,
		generation: env.Generation,
	}
	if ans.Data, err = shapeData(spec.Kind, env.Named[0].Proto.Finish()); err != nil {
		return nil, err
	}
	ans.Elapsed = time.Since(start)
	return ans, nil
}

// shapeData renders the primary analyzer's Finish result into the
// kind's JSON shape.
func shapeData(kind string, res any) (any, error) {
	switch kind {
	case KindTable1, KindFigure3, KindFigure6, KindIngress:
		return res, nil
	case KindTable2:
		return countsData(res.(classify.Counts)), nil
	case KindFigure4, KindFigure5:
		return cumData(res.(analysis.CumSeries)), nil
	case KindPeers:
		return peersData(res.([]analysis.PeerInference)), nil
	default:
		return nil, fmt.Errorf("serve: unknown query kind %q", kind)
	}
}

// figure2 answers the longitudinal series: one Table-2 counts row per
// calendar year, each an independent windowed table2 answer read
// through the cache, so pushdown and snapshot merges prune everything
// outside that year (and, under a coordinator, each year
// scatter-gathers independently).
func (s *Server) figure2(ctx context.Context, spec QuerySpec) (*Answer, error) {
	if spec.FromYear == 0 || spec.ToYear < spec.FromYear {
		return nil, fmt.Errorf("%w: figure2 needs fromyear <= toyear", ErrBadSpec)
	}
	if spec.ToYear-spec.FromYear > 200 {
		return nil, fmt.Errorf("%w: figure2 year range too large", ErrBadSpec)
	}
	start := time.Now()
	total := &Answer{Kind: spec.Kind, Source: "snapshots"}
	var rows []Figure2Row
	for y := spec.FromYear; y <= spec.ToYear; y++ {
		sub := QuerySpec{
			Kind:       KindTable2,
			Collectors: spec.Collectors,
			Window: evstore.TimeRange{
				From: time.Date(y, 1, 1, 0, 0, 0, 0, time.UTC),
				To:   time.Date(y+1, 1, 1, 0, 0, 0, 0, time.UTC),
			},
		}
		ans, _, err := s.cachedAnswer(ctx, sub, false)
		if err != nil {
			return nil, err
		}
		// Each year re-plans the same shards: partitions add up, shards
		// do not.
		shards := max(total.Plan.Shards, ans.Plan.Shards)
		total.Plan.Add(ans.Plan)
		total.Plan.Shards = shards
		total.Scan.Add(ans.Scan)
		total.Merges += ans.Merges
		total.Partial = total.Partial || ans.Partial
		total.Shards = mergeProvenance(total.Shards, ans.Shards)
		total.generation = ans.generation
		if ans.Source == "scan" {
			total.Source = "scan"
		}
		counts := ans.Data.(CountsData)
		rows = append(rows, Figure2Row{Year: y, Total: counts.Announcements, Counts: counts})
	}
	total.Data = rows
	total.Elapsed = time.Since(start)
	return total, nil
}

// mergeProvenance folds one sub-query's shard provenance into an
// aggregate (per-backend, first-seen order): elapsed sums, the latest
// generation and source win, and an error from any sub-query sticks —
// the aggregate names every shard that failed to contribute anywhere.
func mergeProvenance(agg, add []ShardProvenance) []ShardProvenance {
	for _, p := range add {
		found := false
		for i := range agg {
			if agg[i].Backend != p.Backend {
				continue
			}
			found = true
			agg[i].Elapsed += p.Elapsed
			if p.Generation != 0 {
				agg[i].Generation = p.Generation
			}
			if p.Source != "" {
				agg[i].Source = p.Source
			}
			if p.Err != "" {
				agg[i].Err = p.Err
			}
			break
		}
		if !found {
			agg = append(agg, p)
		}
	}
	return agg
}

// ServerStats is the /v1/stats payload.
type ServerStats struct {
	Store       string     `json:"store,omitempty"`
	Backend     string     `json:"backend"`
	Generation  uint64     `json:"generation"`
	Ready       bool       `json:"ready"`
	ReadyReason string     `json:"ready_reason,omitempty"`
	UptimeSec   float64    `json:"uptime_sec"`
	Partitions  int        `json:"partitions"`
	Snapshotted int        `json:"snapshotted"`
	Registry    []string   `json:"registry,omitempty"`
	Queries     uint64     `json:"queries"`
	Deduped     uint64     `json:"deduped"`
	Refreshes   uint64     `json:"refreshes"`
	Cache       CacheStats `json:"cache"`
	// Shards reports per-shard health under a coordinator.
	Shards []BackendHealth `json:"shards,omitempty"`
}

// Stats reports the daemon's operational state.
func (s *Server) Stats(ctx context.Context) ServerStats {
	st := ServerStats{
		Store:     s.cfg.Dir,
		Backend:   s.engine.Name(),
		UptimeSec: time.Since(s.started).Seconds(),
		Queries:   s.queries.Load(),
		Deduped:   s.deduped.Load(),
		Refreshes: s.refreshes.Load(),
		Cache:     s.cache.stats(),
	}
	st.Ready, st.ReadyReason = s.Ready(ctx)
	if h, err := s.engine.Health(ctx); err == nil {
		st.Generation = h.Generation
		st.Partitions = h.Partitions
		st.Snapshotted = h.Snapshotted
		st.Shards = h.Shards
	}
	if lb, ok := s.engine.(*LocalBackend); ok {
		st.Registry = lb.Registry()
	}
	return st
}

// ---------------------------------------------------------------------------
// JSON data shapes
// ---------------------------------------------------------------------------

// CountsData renders classify.Counts with per-type labels and shares.
type CountsData struct {
	Announcements int                `json:"announcements"`
	Withdrawals   int                `json:"withdrawals"`
	ByType        map[string]int     `json:"by_type"`
	Shares        map[string]float64 `json:"shares"`
	NoPathChange  float64            `json:"no_path_change_share"`
	MEDOnlyNN     int                `json:"med_only_nn"`
}

func countsData(c classify.Counts) CountsData {
	d := CountsData{
		Announcements: c.Announcements(),
		Withdrawals:   c.Withdrawals,
		ByType:        make(map[string]int, 6),
		Shares:        make(map[string]float64, 6),
		NoPathChange:  c.NoPathChangeShare(),
		MEDOnlyNN:     c.MEDOnlyNN,
	}
	for _, ty := range classify.Types() {
		d.ByType[ty.String()] = c.Of(ty)
		d.Shares[ty.String()] = c.Share(ty)
	}
	return d
}

// Figure2Row is one year of the served longitudinal series.
type Figure2Row struct {
	Year   int        `json:"year"`
	Total  int        `json:"total"`
	Counts CountsData `json:"counts"`
}

// CumSeriesData is the figure 4/5 payload.
type CumSeriesData struct {
	Points      []CumPointData `json:"points"`
	Withdrawals []time.Time    `json:"withdrawals"`
	Counts      CountsData     `json:"counts"`
}

// CumPointData is one classified announcement on the route.
type CumPointData struct {
	Time time.Time `json:"time"`
	Type string    `json:"type"`
}

func cumData(series analysis.CumSeries) CumSeriesData {
	d := CumSeriesData{Withdrawals: series.Withdrawals, Counts: countsData(series.TypeCounts())}
	for _, p := range series.Points {
		d.Points = append(d.Points, CumPointData{Time: p.Time, Type: p.Type.String()})
	}
	return d
}

// PeersData is the §7 inference payload: the per-session verdicts and
// the behaviour histogram.
type PeersData struct {
	Sessions []PeerRow      `json:"sessions"`
	Summary  map[string]int `json:"summary"`
}

// PeerRow is one session's verdict.
type PeerRow struct {
	Collector string  `json:"collector"`
	PeerAddr  string  `json:"peer_addr"`
	PeerAS    uint32  `json:"peer_as"`
	Announce  int     `json:"announcements"`
	CommShare float64 `json:"comm_share"`
	NCShare   float64 `json:"nc_share"`
	NNShare   float64 `json:"nn_share"`
	Behavior  string  `json:"behavior"`
}

func peersData(infs []analysis.PeerInference) PeersData {
	d := PeersData{Summary: make(map[string]int, 3)}
	for _, inf := range infs {
		d.Sessions = append(d.Sessions, PeerRow{
			Collector: inf.Session.Collector,
			PeerAddr:  inf.Session.PeerAddr.String(),
			PeerAS:    inf.PeerAS,
			Announce:  inf.Announcements,
			CommShare: inf.CommShare,
			NCShare:   inf.NCShare,
			NNShare:   inf.NNShare,
			Behavior:  inf.Behavior.String(),
		})
		d.Summary[inf.Behavior.String()]++
	}
	return d
}
