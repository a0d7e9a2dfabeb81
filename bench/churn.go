package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/netip"
	"sync"
	"time"

	"repro/internal/bgp"
	"repro/internal/classify"
	"repro/internal/evstore"
	"repro/internal/ingest"
	"repro/internal/serve"
)

// churnRate is the events per second the churn workload appends.
const churnRate = 2000

// churnFeed emits a seeded announcement stream for churnCollector at
// churnRate, stamping each event with the wall clock as it is emitted.
// Event k is due at start + k/churnRate: an emitter that falls behind
// catches up instead of silently lowering the rate.
type churnFeed struct {
	rng   *rand.Rand
	spans *spanRecorder // non-nil in the traced run

	mu      sync.Mutex
	emitted []time.Time // emit time of event k
}

func newChurnFeed(seed int64, spans *spanRecorder) *churnFeed {
	return &churnFeed{rng: rand.New(rand.NewSource(phaseSeed(seed, wlChurn, "feed"))), spans: spans}
}

func (f *churnFeed) Name() string { return churnCollector }

// event builds the next event of the stream; only its Time depends on
// when it is called. 8 peers announce 512 prefixes, alternating between
// two paths and a few community sets, so the classifier sees every
// announcement type.
func (f *churnFeed) event(now time.Time) classify.Event {
	peer := f.rng.Intn(8)
	pfx := f.rng.Intn(512)
	peerAS := uint32(64600 + peer)
	origin := uint32(65000 + pfx%100)
	path := bgp.NewASPath(peerAS, 3356, origin)
	if f.rng.Intn(4) == 0 {
		path = bgp.NewASPath(peerAS, 174, 3356, origin)
	}
	var comms bgp.Communities
	if c := f.rng.Intn(4); c > 0 {
		comms = bgp.Communities{bgp.NewCommunity(3356, uint16(2000+c))}
	}
	return classify.Event{
		Time:        now,
		Collector:   churnCollector,
		PeerAS:      peerAS,
		PeerAddr:    netip.AddrFrom4([4]byte{100, 127, 0, byte(peer)}),
		Prefix:      netip.PrefixFrom(netip.AddrFrom4([4]byte{10, 200 + byte(pfx>>8), byte(pfx), 0}), 24),
		ASPath:      path,
		Communities: comms,
	}
}

// Run implements ingest.Feed.
func (f *churnFeed) Run(ctx context.Context, emit func(classify.Event) error) error {
	start := time.Now()
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * time.Second / churnRate)
		if wait := time.Until(due); wait > 0 {
			select {
			case <-ctx.Done():
				return nil
			case <-time.After(wait):
			}
		} else if ctx.Err() != nil {
			return nil
		}
		now := time.Now()
		if err := emit(f.event(now)); err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return err
		}
		if f.spans != nil {
			f.spans.add(span{Name: spanEmit, Start: now, End: time.Now()})
		}
		f.mu.Lock()
		f.emitted = append(f.emitted, now)
		f.mu.Unlock()
	}
}

func (f *churnFeed) emitTimes() []time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]time.Time(nil), f.emitted...)
}

// churner is the in-harness ingest plane of the churn workload.
type churner struct {
	feed    *churnFeed
	plane   *ingest.Plane
	handle  *ingest.FeedHandle
	cancel  context.CancelFunc
	started time.Time
	stats   ingest.PlaneStats
	stopped time.Time
}

// startChurn begins appending to the served store.
func startChurn(ctx context.Context, store string, seed int64, spans *spanRecorder) (*churner, error) {
	cctx, cancel := context.WithCancel(ctx)
	p, err := ingest.NewPlane(cctx, ingest.Config{
		Dir:    store,
		Seal:   evstore.SealPolicy{MaxAge: time.Second},
		Logger: quietLogger,
	})
	if err != nil {
		cancel()
		return nil, err
	}
	c := &churner{feed: newChurnFeed(seed, spans), plane: p, cancel: cancel, started: time.Now()}
	if c.handle, err = p.Attach(c.feed, ingest.FeedOptions{OneShot: true}); err != nil {
		cancel()
		return nil, err
	}
	return c, nil
}

// stop ends the feed, drains the plane (sealing the last partition) and
// returns once everything emitted is published.
func (c *churner) stop() error {
	c.cancel()
	<-c.handle.Done()
	c.stopped = time.Now()
	var err error
	c.stats, err = c.plane.Drain(0)
	if err != nil {
		return err
	}
	if got, want := int(c.stats.Events), len(c.feed.emitTimes()); got != want {
		return fmt.Errorf("bench: churn plane accepted %d events, feed emitted %d", got, want)
	}
	return nil
}

// sealCount is the number of churn partitions published.
func (c *churner) sealCount() int {
	n := 0
	for _, cs := range c.stats.Collectors {
		n += cs.Writer.Partitions
	}
	return n
}

// answerEnvelope is the part of a served Answer the harness reads.
type answerEnvelope struct {
	Kind   string          `json:"kind"`
	Source string          `json:"source"`
	Data   json.RawMessage `json:"data"`
}

// countsTotal returns the number of events a table2 answer counts.
func countsTotal(body []byte) (int, error) {
	var env answerEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		return 0, err
	}
	var c serve.CountsData
	if err := json.Unmarshal(env.Data, &c); err != nil {
		return 0, err
	}
	return c.Announcements + c.Withdrawals, nil
}

// freshness returns, for every churn event the load saw counted, the
// time from its emit to the receipt of the first answer on the growing
// key that counts it. live must be in receive order.
func freshness(live []keptResponse, emitted []time.Time) ([]time.Duration, error) {
	var out []time.Duration
	counted := 0
	for _, r := range live {
		total, err := countsTotal(r.body)
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", r.req.path, err)
		}
		if total > len(emitted) {
			return nil, fmt.Errorf("bench: %s counts %d events, only %d emitted", r.req.path, total, len(emitted))
		}
		for ; counted < total; counted++ {
			out = append(out, r.recv.Sub(emitted[counted]))
		}
	}
	return out, nil
}
