package ingest

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/netip"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/classify"
	"repro/internal/evstore"
	"repro/internal/session"
)

// Config parameterizes a Plane. Zero fields take defaults.
type Config struct {
	// Dir is the evstore directory live partitions are published into.
	Dir string
	// Seal is the live seal policy. The zero policy defaults to
	// MaxAge = 2s — the plane exists to publish fresh partitions, so
	// unbounded open partitions are opt-out, not opt-in.
	Seal evstore.SealPolicy
	// QueueDepth bounds each collector's event queue (default 4096).
	// This is the plane's backpressure boundary: Block feeds stall
	// here, Shed feeds drop here.
	QueueDepth int
	// SealTick is how often quiet collectors are checked for expired
	// partitions (default Seal.MaxAge/2, floor 50ms).
	SealTick time.Duration
	// Restart is the default restart policy for supervised feeds.
	Restart RestartPolicy
	// BlockEvents overrides the writers' events-per-block (0: evstore
	// default).
	BlockEvents int
	// Codec names the writers' block codec ("raw", "lz"). Empty keeps
	// evstore's default (lz); live planes on CPU-starved hosts can pick
	// raw.
	Codec string
	// Now stamps session-feed events and drives the writers' age-based
	// seals (nil: time.Now; tests inject deterministic clocks).
	Now func() time.Time
	// Metrics, when non-nil, instruments the plane: seal-lag and
	// freshness histograms off the writers' OnSeal hooks, plus
	// scrape-time samplers over the plane's existing stats. One Metrics
	// instruments one plane.
	Metrics *Metrics
	// Logger receives the plane's structured log records (nil:
	// slog.Default).
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if !c.sealEnabled() {
		c.Seal = evstore.SealPolicy{MaxAge: 2 * time.Second}
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4096
	}
	if c.SealTick <= 0 {
		c.SealTick = c.Seal.MaxAge / 2
		if c.SealTick <= 0 {
			c.SealTick = time.Second
		}
	}
	if c.SealTick < 50*time.Millisecond {
		c.SealTick = 50 * time.Millisecond
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	return c
}

func (c Config) sealEnabled() bool {
	return c.Seal.MaxAge > 0 || c.Seal.MaxEvents > 0 || c.Seal.MaxBytes > 0
}

// Plane is the bounded ingest core: a Supervisor of feeds delivering
// into per-collector bounded queues, each drained by a goroutine that
// owns one evstore.Writer with a live SealPolicy. Memory is bounded by
// (queues × QueueDepth) plus one open block per active partition,
// independent of how long the plane runs.
type Plane struct {
	cfg    Config
	ctx    context.Context
	cancel context.CancelFunc
	sup    *Supervisor

	mu      sync.Mutex
	sinks   map[string]*collectorSink
	order   []string
	sealing bool
	drained bool
	closed  bool // queues closed (flush started); separate from drained so a timed-out Drain can be retried
}

// collectorSink is one collector's queue + writer. The writer is owned
// by the drain goroutine; wmu makes Stats and error probes safe.
type collectorSink struct {
	name string
	ch   chan classify.Event
	done chan struct{}
	log  *slog.Logger
	// hw tracks the highest queue depth seen — the backpressure
	// headroom gauge. Updated lock-free on delivery.
	hw atomic.Int64

	wmu     sync.Mutex
	w       *evstore.Writer
	err     error
	dropped uint64
}

// latch records the writer's first error, once, loudly: from here on
// Deliver refuses this collector's events (failing the producing feed's
// attempt, which the supervisor surfaces and restarts or parks), and
// events already queued can only be counted as dropped, not written.
// Callers hold wmu.
func (cs *collectorSink) latch(err error) {
	if err == nil || cs.err != nil {
		return
	}
	cs.err = err
	cs.log.Error("collector writer failed; refusing further events",
		"collector", cs.name, "err", err)
}

// noteDepth raises the high-water mark to the current queue depth.
func (cs *collectorSink) noteDepth() {
	d := int64(len(cs.ch))
	for {
		cur := cs.hw.Load()
		if d <= cur || cs.hw.CompareAndSwap(cur, d) {
			return
		}
	}
}

// NewPlane opens a plane writing into cfg.Dir. Cancelling ctx stops
// every feed; call Drain to flush and seal before exit.
func NewPlane(ctx context.Context, cfg Config) (*Plane, error) {
	cfg = cfg.withDefaults()
	if cfg.Codec != "" {
		if _, err := evstore.ParseCodec(cfg.Codec); err != nil {
			return nil, err
		}
	}
	pctx, cancel := context.WithCancel(ctx)
	p := &Plane{
		cfg:    cfg,
		ctx:    pctx,
		cancel: cancel,
		sinks:  make(map[string]*collectorSink),
	}
	p.sup = NewSupervisor(pctx, p, cfg.Restart)
	if cfg.Metrics != nil {
		cfg.Metrics.bind(p)
	}
	return p, nil
}

// Supervisor exposes the plane's feed supervisor (status, kill).
func (p *Plane) Supervisor() *Supervisor { return p.sup }

// Attach supervises a feed, delivering its events into the plane.
func (p *Plane) Attach(f Feed, opts FeedOptions) (*FeedHandle, error) {
	return p.sup.Attach(f, opts)
}

// sink returns (creating on first use) the named collector's queue.
func (p *Plane) sink(collector string) (*collectorSink, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if cs := p.sinks[collector]; cs != nil {
		return cs, nil
	}
	if p.drained {
		return nil, fmt.Errorf("ingest: plane drained; cannot open collector %q", collector)
	}
	w, err := evstore.Open(p.cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("ingest: open store for %q: %w", collector, err)
	}
	w.Seal = p.cfg.Seal
	if p.cfg.BlockEvents > 0 {
		w.BlockEvents = p.cfg.BlockEvents
	}
	if p.cfg.Codec != "" {
		// Parsed and validated by NewPlane; re-parse is infallible here.
		c, _ := evstore.ParseCodec(p.cfg.Codec)
		w.Codec = c
	}
	if p.cfg.Now != nil {
		w.Now = p.cfg.Now
	}
	if m := p.cfg.Metrics; m != nil {
		now := p.cfg.Now
		if now == nil {
			now = time.Now
		}
		w.OnSeal = func(si evstore.SealInfo) { m.observeSeal(si, now) }
	}
	cs := &collectorSink{
		name: collector,
		ch:   make(chan classify.Event, p.cfg.QueueDepth),
		done: make(chan struct{}),
		log:  p.cfg.Logger,
		w:    w,
	}
	p.sinks[collector] = cs
	p.order = append(p.order, collector)
	go p.runCollector(cs)
	return cs, nil
}

// runCollector drains one collector's queue into its writer, sealing
// expired partitions on a ticker so quiet collectors still publish.
func (p *Plane) runCollector(cs *collectorSink) {
	defer close(cs.done)
	ticker := time.NewTicker(p.cfg.SealTick)
	defer ticker.Stop()
	for {
		select {
		case e, ok := <-cs.ch:
			if !ok {
				cs.wmu.Lock()
				cs.latch(cs.w.Close())
				cs.wmu.Unlock()
				return
			}
			cs.wmu.Lock()
			if cs.err == nil {
				cs.latch(cs.w.Append(e))
			} else {
				cs.dropped++
			}
			cs.wmu.Unlock()
		case <-ticker.C:
			cs.wmu.Lock()
			if cs.err == nil {
				_, err := cs.w.SealExpired()
				cs.latch(err)
			}
			cs.wmu.Unlock()
		}
	}
}

// Deliver implements Sink: it routes e into its collector's queue,
// blocking or shedding per the feed's backpressure mode. A collector
// whose writer has failed refuses delivery with the latched error, so
// the feed's attempt aborts loudly instead of feeding a black hole.
func (p *Plane) Deliver(ctx context.Context, h *FeedHandle, e classify.Event) error {
	cs, err := p.sink(e.Collector)
	if err != nil {
		return err
	}
	cs.wmu.Lock()
	werr := cs.err
	cs.wmu.Unlock()
	if werr != nil {
		return fmt.Errorf("ingest: collector %s: writer failed: %w", cs.name, werr)
	}
	if h.Options().Backpressure == Shed {
		if err := ctx.Err(); err != nil {
			return err
		}
		select {
		case cs.ch <- e:
			h.countEvent(e)
			cs.noteDepth()
		default:
			h.countShed()
		}
		return nil
	}
	select {
	case cs.ch <- e:
		h.countEvent(e)
		cs.noteDepth()
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// AcceptSessions accepts BGP peers off ln until ctx is cancelled,
// attaching each established session as a one-shot feed of the named
// collector. Feed names are collector/remoteAddr#n. Returns nil on
// context cancellation, the listener error otherwise.
func (p *Plane) AcceptSessions(ctx context.Context, ln *session.Listener, collector string, opts FeedOptions) error {
	opts.OneShot = true
	seq := 0
	for {
		sess, err := ln.AcceptContext(ctx)
		if err != nil {
			if ctx.Err() != nil || p.ctx.Err() != nil {
				return nil
			}
			if errors.Is(err, session.ErrHandshake) {
				// A failed handshake (port scan, TCP probe, garbage
				// OPEN, handshake timeout) is a per-connection event:
				// keep accepting. Only listener-level errors return.
				continue
			}
			return err
		}
		if sess == nil {
			continue
		}
		seq++
		addr := addrOf(sess)
		name := fmt.Sprintf("%s/%s#%d", collector, sess.RemoteAddr(), seq)
		feed := NewSessionFeed(name, collector, sess, addr, p.cfg.Now)
		if _, err := p.Attach(feed, opts); err != nil {
			sess.Close()
			if p.ctx.Err() != nil {
				return nil
			}
			return err
		}
	}
}

// CollectorStats snapshots one collector queue + writer.
type CollectorStats struct {
	Collector string
	// Queued is the current queue depth (of Config.QueueDepth).
	Queued int
	// Writer is the collector writer's cumulative stats.
	Writer evstore.WriterStats
	// Err is the latched writer error, "" if none.
	Err string
	// Dropped counts events that were already queued when the writer
	// error latched and so could not be written.
	Dropped uint64
	// HighWater is the highest queue depth seen since the sink opened —
	// how close the collector has come to its backpressure bound.
	HighWater int
}

// PlaneStats aggregates the plane's live counters.
type PlaneStats struct {
	// Events and Sheds are summed across feeds.
	Events, Sheds uint64
	// Feeds snapshots every feed in attach order.
	Feeds []FeedStatus
	// Collectors snapshots every collector sink in first-use order.
	Collectors []CollectorStats
}

// Stats snapshots the plane: per-feed counters and per-collector
// queue/writer state. Safe to call while ingesting.
func (p *Plane) Stats() PlaneStats {
	var st PlaneStats
	st.Feeds = p.sup.Status()
	st.Events, st.Sheds = p.sup.Totals()
	p.mu.Lock()
	sinks := make([]*collectorSink, 0, len(p.order))
	for _, name := range p.order {
		sinks = append(sinks, p.sinks[name])
	}
	p.mu.Unlock()
	for _, cs := range sinks {
		cs.wmu.Lock()
		c := CollectorStats{Collector: cs.name, Queued: len(cs.ch), Writer: cs.w.Stats(), Dropped: cs.dropped, HighWater: int(cs.hw.Load())}
		if cs.err != nil {
			c.Err = cs.err.Error()
		}
		cs.wmu.Unlock()
		st.Collectors = append(st.Collectors, c)
	}
	return st
}

// Drain is the graceful-shutdown path: stop the feeds, flush every
// queue, seal and publish every open partition, and report the final
// stats. timeout bounds the whole wait (0: no bound): if feeds are
// still running when it expires — a producer ignoring cancellation —
// Drain gives up on the flush (closing queues under live producers
// would panic) and returns an error immediately, leaving unsealed
// ingest-* temp files for the next Open or Abort to collect; the
// rollback unit is the seal, so nothing published is lost. Drain is
// idempotent; after a successful drain the plane accepts no more
// events, and a timed-out drain may be retried once the feeds stop.
func (p *Plane) Drain(timeout time.Duration) (PlaneStats, error) {
	p.cancel()
	stopped := make(chan struct{})
	go func() {
		p.sup.Wait()
		close(stopped)
	}()
	if timeout > 0 {
		t := time.NewTimer(timeout)
		select {
		case <-stopped:
			t.Stop()
		case <-t.C:
			p.mu.Lock()
			p.drained = true
			p.mu.Unlock()
			return p.Stats(), fmt.Errorf("ingest: drain: feeds still running after %v; queue flush skipped", timeout)
		}
	} else {
		<-stopped
	}

	p.mu.Lock()
	p.drained = true
	already := p.closed
	p.closed = true
	names := append([]string(nil), p.order...)
	sort.Strings(names)
	sinks := make([]*collectorSink, 0, len(names))
	for _, name := range names {
		sinks = append(sinks, p.sinks[name])
	}
	p.mu.Unlock()
	if !already {
		for _, cs := range sinks {
			close(cs.ch)
		}
	}
	for _, cs := range sinks {
		<-cs.done
	}
	st := p.Stats()
	var errs []error
	for _, c := range st.Collectors {
		if c.Err != "" {
			errs = append(errs, fmt.Errorf("ingest: collector %s: %s (%d queued events dropped)", c.Collector, c.Err, c.Dropped))
		}
	}
	return st, errors.Join(errs...)
}

// addrOf extracts the peer's IP for Event.PeerAddr.
func addrOf(s *session.Session) (a netip.Addr) {
	if ap, err := netip.ParseAddrPort(s.RemoteAddr().String()); err == nil {
		return ap.Addr()
	}
	return a
}
