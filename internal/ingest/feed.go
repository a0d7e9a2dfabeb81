package ingest

import (
	"context"
	"fmt"
	"net/netip"
	"time"

	"repro/internal/bgp"
	"repro/internal/classify"
	"repro/internal/pipeline"
	"repro/internal/registry"
	"repro/internal/session"
	"repro/internal/simnet"
	"repro/internal/stream"
)

// Feed is a named event producer — one (collector, peer) session's
// worth of traffic entering the plane. Run produces events into emit
// until the feed is exhausted (nil return), the context is cancelled,
// or a producer error occurs. The supervisor calls Run again after a
// restartable failure, so implementations must resume where the
// previous attempt left off: every event for which emit returned nil
// was accepted by the plane and must not be re-emitted.
type Feed interface {
	Name() string
	Run(ctx context.Context, emit func(classify.Event) error) error
}

// ---------------------------------------------------------------------------
// Pacing
// ---------------------------------------------------------------------------

// Pacer maps event (virtual) time onto the wall clock at a speed
// factor: speed 1 replays in real time, 3600 compresses an hour into a
// second, and speed <= 0 disables pacing entirely (as fast as the
// plane accepts). The anchor is the first Wait call, so a resumed feed
// re-anchors at its resume point rather than sleeping through the
// already-delivered prefix.
type Pacer struct {
	speed      float64
	anchorWall time.Time
	anchorVirt time.Time
}

// NewPacer returns a pacer at the given speed factor.
func NewPacer(speed float64) *Pacer { return &Pacer{speed: speed} }

// Wait sleeps until the wall instant corresponding to virtual time t,
// or returns ctx.Err() if cancelled first. Events at or behind the
// mapped wall clock pass through immediately.
func (p *Pacer) Wait(ctx context.Context, t time.Time) error {
	if p == nil || p.speed <= 0 {
		return ctx.Err()
	}
	if p.anchorWall.IsZero() {
		p.anchorWall = time.Now()
		p.anchorVirt = t
		return ctx.Err()
	}
	due := p.anchorWall.Add(time.Duration(float64(t.Sub(p.anchorVirt)) / p.speed))
	d := time.Until(due)
	if d <= 0 {
		return ctx.Err()
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		return nil
	}
}

// ---------------------------------------------------------------------------
// Replay feeds
// ---------------------------------------------------------------------------

// ReplayFeed replays a re-openable event stream at a wall-clock speed
// factor — the MRT-archive and generated-workload producer class. Each
// attempt re-opens the stream and skips the prefix already accepted by
// the plane, so kills and restarts deliver exactly-once (in Block
// mode) as long as the stream is deterministic.
type ReplayFeed struct {
	name  string
	speed float64
	open  func() (stream.EventSource, func() error, error)

	emitted int // events accepted across attempts
}

// NewReplayFeed builds a replay feed over open, which returns a fresh
// single-use source per attempt plus an optional deferred error check
// (the *errp convention of archive-backed sources; nil to skip).
func NewReplayFeed(name string, speed float64, open func() (stream.EventSource, func() error, error)) *ReplayFeed {
	return &ReplayFeed{name: name, speed: speed, open: open}
}

// ReplaySource is NewReplayFeed for replayable sources with no
// deferred error reporting (workload generators, slices).
func ReplaySource(name string, speed float64, src func() stream.EventSource) *ReplayFeed {
	return NewReplayFeed(name, speed, func() (stream.EventSource, func() error, error) {
		return src(), nil, nil
	})
}

// ReplayArchive replays one MRT archive as collector's feed. Each
// attempt reads through a fresh Normalizer seeded with the standard
// synthetic registry (archives and normalizers are single-use).
func ReplayArchive(name, collector, path string, speed float64) *ReplayFeed {
	return NewReplayFeed(name, speed, func() (stream.EventSource, func() error, error) {
		norm := pipeline.NewNormalizer(registry.Synthetic(time.Date(2009, 1, 1, 0, 0, 0, 0, time.UTC)))
		errp := new(error)
		src := pipeline.FileSource(norm, collector, path, errp)
		return src, func() error { return *errp }, nil
	})
}

// Name implements Feed.
func (f *ReplayFeed) Name() string { return f.name }

// Run implements Feed.
func (f *ReplayFeed) Run(ctx context.Context, emit func(classify.Event) error) error {
	src, check, err := f.open()
	if err != nil {
		return err
	}
	skip := f.emitted
	pacer := NewPacer(f.speed)
	var runErr error
	for e := range src {
		if skip > 0 {
			skip--
			continue
		}
		if runErr = pacer.Wait(ctx, e.Time); runErr != nil {
			break
		}
		if runErr = emit(e); runErr != nil {
			break
		}
		f.emitted++
	}
	if runErr != nil {
		return runErr
	}
	if skip > 0 {
		return fmt.Errorf("ingest: replay %s: source shrank to %d events below resume point %d",
			f.name, f.emitted-skip, f.emitted)
	}
	if check != nil {
		return check()
	}
	return nil
}

// ---------------------------------------------------------------------------
// Simulation feeds
// ---------------------------------------------------------------------------

// SimFeed runs a simnet scenario engine as a live feed: the collector's
// normalized feed streams out at delivery time, paced to wall clock or
// accelerated. Restarts rebuild the engine and re-run it
// deterministically, skipping the already-accepted prefix.
type SimFeed struct {
	name     string
	scenario simnet.Scenario
	speed    float64

	emitted int
}

// NewSimFeed builds a feed for one scenario at the given speed factor
// (<= 0: as fast as the engine and plane allow).
func NewSimFeed(s simnet.Scenario, speed float64) *SimFeed {
	s = s.WithDefaults()
	return &SimFeed{name: "sim:" + s.Name, scenario: s, speed: speed}
}

// Name implements Feed.
func (f *SimFeed) Name() string { return f.name }

// Run implements Feed.
func (f *SimFeed) Run(ctx context.Context, emit func(classify.Event) error) error {
	skip := f.emitted
	pacer := NewPacer(f.speed)
	_, err := simnet.Drive(ctx, f.scenario, func(e classify.Event) error {
		if skip > 0 {
			skip--
			return nil
		}
		if err := pacer.Wait(ctx, e.Time); err != nil {
			return err
		}
		if err := emit(e); err != nil {
			return err
		}
		f.emitted++
		return nil
	})
	return err
}

// ---------------------------------------------------------------------------
// Session feeds
// ---------------------------------------------------------------------------

// SessionFeed services one established BGP session: every received
// UPDATE is normalized into announce/withdraw events stamped with the
// arrival clock — the protocol-real producer class. A session feed is
// one-shot: when the session ends it cannot be re-run, the peer
// reconnects through the plane's acceptor as a fresh feed. Run in Shed
// mode if stalling the session's read loop (and its keepalives) is
// worse than losing events under overload.
type SessionFeed struct {
	name      string
	collector string
	sess      *session.Session
	peerAddr  netip.Addr
	now       func() time.Time
}

// NewSessionFeed wraps an established session as collector's feed.
// peerAddr identifies the session in the store (the TCP remote
// address, as RIS archives do). now stamps event times (nil:
// time.Now; tests inject deterministic clocks).
func NewSessionFeed(name, collector string, sess *session.Session, peerAddr netip.Addr, now func() time.Time) *SessionFeed {
	if now == nil {
		now = time.Now
	}
	return &SessionFeed{name: name, collector: collector, sess: sess, peerAddr: peerAddr, now: now}
}

// Name implements Feed.
func (f *SessionFeed) Name() string { return f.name }

// Run implements Feed: it services the session's read loop until the
// peer closes (clean: nil), the session errors, or ctx is cancelled.
func (f *SessionFeed) Run(ctx context.Context, emit func(classify.Event) error) error {
	peerAS := f.sess.PeerAS()
	var emitErr error
	done := make(chan error, 1)
	go func() {
		done <- f.sess.RunWithHandler(func(u *bgp.Update) {
			if emitErr != nil {
				return
			}
			base := classify.Event{
				Time:      f.now(),
				Collector: f.collector,
				PeerAS:    peerAS,
				PeerAddr:  f.peerAddr,
			}
			for _, p := range u.AllWithdrawn() {
				e := base
				e.Prefix = p
				e.Withdraw = true
				if emitErr = emit(e); emitErr != nil {
					f.sess.Close()
					return
				}
			}
			for _, p := range u.Announced() {
				e := base
				e.Prefix = p
				e.ASPath = u.Attrs.ASPath
				e.Communities = u.Attrs.Communities.Canonical()
				e.HasMED = u.Attrs.HasMED
				e.MED = u.Attrs.MED
				if emitErr = emit(e); emitErr != nil {
					f.sess.Close()
					return
				}
			}
		})
	}()
	select {
	case <-ctx.Done():
		f.sess.Close()
		<-done
		return ctx.Err()
	case err := <-done:
		if emitErr != nil {
			return emitErr
		}
		return err
	}
}
