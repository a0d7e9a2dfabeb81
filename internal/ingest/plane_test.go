package ingest

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/classify"
	"repro/internal/evstore"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/session"
	"repro/internal/stream"
	"repro/internal/workload"
)

// smallDay scales the default day down to test size.
func smallDay() workload.DayConfig {
	cfg := workload.DefaultDayConfig(time.Date(2020, 3, 15, 0, 0, 0, 0, time.UTC))
	cfg.Collectors = 2
	cfg.PeersPerCollector = 3
	cfg.PrefixesV4 = 40
	cfg.PrefixesV6 = 8
	return cfg
}

// scanCounts classifies every event in a store directory.
func scanCounts(t *testing.T, dir string) classify.Counts {
	t.Helper()
	var scanErr error
	var counts classify.CountsAnalyzer
	classify.RunAll(evstore.Scan(dir, evstore.Query{}, &scanErr), nil, &counts)
	if scanErr != nil {
		t.Fatalf("scan %s: %v", dir, scanErr)
	}
	return counts.Counts
}

// batchIngest writes sources into dir the pre-plane way: one writer,
// one pass, sealed at Close.
func batchIngest(t *testing.T, dir string, sources ...stream.EventSource) {
	t.Helper()
	w, err := evstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Ingest(stream.Concat(sources...)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPlaneReplayMatchesBatch is the plane's ground truth: a fleet of
// replay feeds streamed through supervisor + queues + live seal policy
// classifies identically to a single-writer batch ingest of the same
// sources.
func TestPlaneReplayMatchesBatch(t *testing.T) {
	cfg := smallDay()
	_, sources := workload.DaySources(cfg)

	liveDir := t.TempDir()
	p, err := NewPlane(context.Background(), Config{
		Dir:        liveDir,
		Seal:       evstore.SealPolicy{MaxEvents: 64},
		QueueDepth: 128,
	})
	if err != nil {
		t.Fatal(err)
	}
	handles := make([]*FeedHandle, len(sources))
	for i, src := range sources {
		src := src
		h, err := p.Attach(ReplaySource(fmt.Sprintf("day/%d", i), 0, func() stream.EventSource { return src }), FeedOptions{})
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = h
	}
	for _, h := range handles {
		if st := waitDone(t, h); st.State != FeedDone {
			t.Fatalf("feed %s: state %v err %q", st.Name, st.State, st.LastError)
		}
	}
	st, err := p.Drain(5 * time.Second)
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	if st.Sheds != 0 {
		t.Fatalf("block-mode ingest shed %d events", st.Sheds)
	}

	batchDir := t.TempDir()
	batchIngest(t, batchDir, sources...)

	live, batch := scanCounts(t, liveDir), scanCounts(t, batchDir)
	if live != batch {
		t.Fatalf("live counts %+v != batch counts %+v", live, batch)
	}
	if total := int(st.Events); total != live.Announcements()+live.Withdrawals {
		t.Fatalf("plane accepted %d events, store classified %d",
			total, live.Announcements()+live.Withdrawals)
	}
	policySeals := 0
	for _, c := range st.Collectors {
		policySeals += c.Writer.PolicySealed
	}
	if policySeals == 0 {
		t.Fatal("no policy seals — live publishes never happened")
	}
}

// TestPlaneAcceptSessions runs the protocol-real path: a peer dials the
// plane's listener, streams updates over an established BGP session,
// and closes with Cease; the events land in the store and the feed
// parks in FeedDone.
func TestPlaneAcceptSessions(t *testing.T) {
	day := time.Date(2020, 3, 15, 12, 0, 0, 0, time.UTC)
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p, err := NewPlane(ctx, Config{
		Dir:  dir,
		Seal: evstore.SealPolicy{MaxEvents: 2},
		Now:  func() time.Time { return day },
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := session.Listen("127.0.0.1:0", session.Config{
		LocalAS:  64500,
		RouterID: netip.MustParseAddr("10.255.0.1"),
		HoldTime: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	acceptErr := make(chan error, 1)
	go func() { acceptErr <- p.AcceptSessions(ctx, ln, "live00", FeedOptions{Backpressure: Shed}) }()

	peer, err := session.Dial(ln.Addr().String(), session.Config{
		LocalAS:  65001,
		RouterID: netip.MustParseAddr("10.0.0.1"),
		HoldTime: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	go peer.Run()
	prefix := netip.MustParsePrefix("84.205.64.0/24")
	announce := func(comm uint16) {
		err := peer.Send(&bgp.Update{
			NLRI: []netip.Prefix{prefix},
			Attrs: bgp.PathAttrs{
				Origin:      bgp.OriginIGP,
				ASPath:      bgp.NewASPath(65001, 3356, 12654),
				NextHop:     netip.MustParseAddr("10.0.0.1"),
				Communities: bgp.Communities{bgp.NewCommunity(3356, comm)},
			},
		})
		if err != nil {
			t.Error(err)
		}
	}
	announce(2001)
	announce(2002)
	if err := peer.Send(&bgp.Update{Withdrawn: []netip.Prefix{prefix}}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if ev, _ := p.sup.Totals(); ev >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("events did not reach the plane: %+v", p.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	peer.Close()

	feeds := p.sup.Status()
	if len(feeds) != 1 {
		t.Fatalf("feeds = %d, want 1", len(feeds))
	}
	if st := waitDone(t, p.sup.Handle(feeds[0].Name)); st.State != FeedDone {
		t.Fatalf("session feed state %v err %q, want done after peer Cease", st.State, st.LastError)
	}
	cancel()
	if err := <-acceptErr; err != nil {
		t.Fatalf("AcceptSessions: %v", err)
	}
	if _, err := p.Drain(5 * time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
	counts := scanCounts(t, dir)
	if counts.Announcements() != 2 || counts.Withdrawals != 1 {
		t.Fatalf("store counts %+v, want 2 announcements + 1 withdrawal", counts)
	}
	if counts.Of(classify.PC) != 1 || counts.Of(classify.NC) != 1 {
		t.Fatalf("classified %+v, want pc=1 nc=1", counts)
	}
}

// TestAcceptSessionsSurvivesHandshakeFailures pins the accept loop's
// per-connection error handling: stray connections that fail the
// handshake (port scans, TCP probes, garbage OPENs) must not terminate
// AcceptSessions — a real peer still establishes afterwards.
func TestAcceptSessionsSurvivesHandshakeFailures(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p, err := NewPlane(ctx, Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := session.Listen("127.0.0.1:0", session.Config{
		LocalAS:  64500,
		RouterID: netip.MustParseAddr("10.255.0.1"),
		HoldTime: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	acceptErr := make(chan error, 1)
	go func() { acceptErr <- p.AcceptSessions(ctx, ln, "live00", FeedOptions{Backpressure: Shed}) }()

	for i := 0; i < 3; i++ {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		conn.Write([]byte("GET / HTTP/1.1\r\n\r\n")) // not a BGP OPEN
		conn.Close()
	}

	peer, err := session.Dial(ln.Addr().String(), session.Config{
		LocalAS:  65001,
		RouterID: netip.MustParseAddr("10.0.0.1"),
		HoldTime: 30 * time.Second,
	})
	if err != nil {
		t.Fatalf("real peer could not establish after garbage connections: %v", err)
	}
	go peer.Run()
	peer.Close()
	cancel()
	if err := <-acceptErr; err != nil {
		t.Fatalf("AcceptSessions returned %v, want nil after garbage connections + cancel", err)
	}
	if _, err := p.Drain(5 * time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestPlaneWriterFailureFailsLoudly pins the failing-writer contract:
// once a collector's writer errors, Deliver refuses further events
// with the latched error (failing the feed's attempt, visible in its
// status), the latched error and dropped count surface in Stats, and
// Drain reports the failure instead of pretending a clean shutdown.
func TestPlaneWriterFailureFailsLoudly(t *testing.T) {
	base := t.TempDir()
	dir := filepath.Join(base, "store")
	p, err := NewPlane(context.Background(), Config{
		Dir:  dir,
		Seal: evstore.SealPolicy{MaxEvents: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	day := time.Date(2020, 3, 15, 0, 0, 0, 0, time.UTC)
	mkEvent := func(i int) classify.Event {
		return classify.Event{
			Time:      day.Add(time.Duration(i) * time.Second),
			Collector: "rrc00",
			PeerAS:    64500,
			PeerAddr:  netip.MustParseAddr("10.0.0.1"),
			Prefix:    netip.MustParsePrefix("192.0.2.0/24"),
			ASPath:    bgp.NewASPath(64500, 3356),
		}
	}
	events := make(chan classify.Event)
	h, err := p.Attach(funcFeed{"doomed", func(ctx context.Context, emit func(classify.Event) error) error {
		for e := range events {
			if err := emit(e); err != nil {
				return err
			}
		}
		return nil
	}}, FeedOptions{OneShot: true})
	if err != nil {
		t.Fatal(err)
	}

	events <- mkEvent(0)
	waitFor(t, 5*time.Second, "first partition sealed", func() bool {
		m, err := evstore.LoadManifest(dir)
		return err == nil && len(m.Partitions) > 0
	})
	// The store directory vanishes out from under the writer: the next
	// partition cannot be created, so the writer error latches.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for i := 1; ; i++ {
		if time.Now().After(deadline) {
			t.Fatal("feed never failed after the store directory was removed")
		}
		select {
		case events <- mkEvent(i):
		case <-h.Done():
		}
		if st := h.Status(); st.State == FeedFailed {
			break
		}
	}
	st := h.Status()
	if st.State != FeedFailed {
		t.Fatalf("feed state %v, want failed", st.State)
	}
	if !strings.Contains(st.LastError, "writer failed") {
		t.Fatalf("feed LastError %q does not surface the writer failure", st.LastError)
	}
	stats := p.Stats()
	if len(stats.Collectors) != 1 || stats.Collectors[0].Err == "" {
		t.Fatalf("collector stats do not surface the latched error: %+v", stats.Collectors)
	}
	if _, err := p.Drain(5 * time.Second); err == nil {
		t.Fatal("drain after writer failure returned nil error")
	}
}

// TestPlaneDrainTimeoutBounded pins that the drain timeout actually
// bounds shutdown: a feed that ignores cancellation cannot hang Drain
// past the deadline — the flush is skipped and an error returned — and
// once the feed finally exits a retried drain completes cleanly.
func TestPlaneDrainTimeoutBounded(t *testing.T) {
	p, err := NewPlane(context.Background(), Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	h, err := p.Attach(funcFeed{"stubborn", func(ctx context.Context, emit func(classify.Event) error) error {
		<-release // ignores ctx entirely
		return nil
	}}, FeedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := p.Drain(100 * time.Millisecond); err == nil {
		t.Fatal("drain of a cancellation-ignoring feed returned nil error")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("drain took %v despite 100ms timeout", elapsed)
	}
	close(release)
	waitDone(t, h)
	if _, err := p.Drain(0); err != nil {
		t.Fatalf("retried drain after feeds stopped: %v", err)
	}
}

// answerData runs one table2 query and returns its JSON-marshalled data.
func answerData(t *testing.T, srv *serve.Server) []byte {
	t.Helper()
	ans, err := srv.Answer(context.Background(), serve.QuerySpec{Kind: serve.KindTable2})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(ans.Data)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestPlaneServeFreshness is the end-to-end freshness contract: an
// event accepted by a live plane is answerable by a concurrent
// watching server within 5 seconds, and the answer is bit-identical to
// a batch ingest + cold server over the same events.
func TestPlaneServeFreshness(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p, err := NewPlane(ctx, Config{
		Dir:      dir,
		Seal:     evstore.SealPolicy{MaxAge: 200 * time.Millisecond},
		SealTick: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	events := make(chan classify.Event)
	h, err := p.Attach(funcFeed{"live", func(ctx context.Context, emit func(classify.Event) error) error {
		for e := range events {
			if err := emit(e); err != nil {
				return err
			}
		}
		return nil
	}}, FeedOptions{})
	if err != nil {
		t.Fatal(err)
	}

	day := time.Date(2020, 3, 15, 0, 0, 0, 0, time.UTC)
	mkEvent := func(i int) classify.Event {
		return classify.Event{
			Time:      day.Add(time.Duration(i) * time.Minute),
			Collector: "rrc00",
			PeerAS:    64500,
			PeerAddr:  netip.MustParseAddr("10.0.0.1"),
			Prefix:    netip.MustParsePrefix("192.0.2.0/24"),
			ASPath:    bgp.NewASPath(64500, 3356, 12654),
		}
	}
	// First event: seed the store so the server has a partition to open.
	events <- mkEvent(0)
	waitFor(t, 5*time.Second, "first partition sealed", func() bool {
		m, err := evstore.LoadManifest(dir)
		return err == nil && len(m.Partitions) > 0
	})
	srv, _, err := serve.New(ctx, serve.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	go srv.Watch(ctx, 50*time.Millisecond, nil)

	// Second event while the server is live: measure emit → queryable.
	start := time.Now()
	events <- mkEvent(1)
	waitFor(t, 5*time.Second, "second event queryable", func() bool {
		ans, err := srv.Answer(ctx, serve.QuerySpec{Kind: serve.KindTable2})
		if err != nil {
			return false
		}
		raw, _ := json.Marshal(ans.Data)
		var data struct {
			Announcements int `json:"announcements"`
		}
		json.Unmarshal(raw, &data)
		return data.Announcements >= 2
	})
	latency := time.Since(start)
	t.Logf("event -> queryable latency: %v", latency)
	if latency >= 5*time.Second {
		t.Fatalf("freshness latency %v, want < 5s", latency)
	}

	close(events)
	if st := waitDone(t, h); st.State != FeedDone {
		t.Fatalf("live feed state %v err %q", st.State, st.LastError)
	}
	if _, err := p.Drain(5 * time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}

	// Oracle: batch ingest of the same two events, cold server.
	batchDir := t.TempDir()
	batchIngest(t, batchDir, stream.FromSlice([]classify.Event{mkEvent(0), mkEvent(1)}))
	batchSrv, _, err := serve.New(ctx, serve.Config{Dir: batchDir})
	if err != nil {
		t.Fatal(err)
	}
	if live, batch := answerData(t, srv), answerData(t, batchSrv); string(live) != string(batch) {
		t.Fatalf("live answer %s != batch answer %s", live, batch)
	}
}

// TestPlaneServeSmoke is the CI load smoke and the observability race
// test in one: a fully instrumented in-process daemon (metrics +
// admission) serves a mixed /v1 load while a live feed seals new
// partitions into its store, a watcher refreshes the cache, and a
// scraper lints /metrics continuously. Under -race this covers the
// instrument hot paths, the OnScrape samplers, the OnSeal hook, and the
// cache-invalidation path all contending at once. Every request must
// succeed and every scrape must lint.
func TestPlaneServeSmoke(t *testing.T) {
	duration := 1500 * time.Millisecond
	if testing.Short() {
		duration = 600 * time.Millisecond
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	cfg := smallDay()
	dir := t.TempDir()
	_, sources := workload.DaySources(cfg)
	batchIngest(t, dir, sources...)

	// One registry carries both planes' families, as a real colocated
	// deployment would expose them.
	reg := obs.NewRegistry()
	srv, _, err := serve.New(ctx, serve.Config{Dir: dir, Workers: 2, Metrics: serve.NewMetrics(reg)})
	if err != nil {
		t.Fatal(err)
	}
	go srv.Watch(ctx, 50*time.Millisecond, nil)
	ts := httptest.NewServer(serve.Admission(serve.AdmissionConfig{MaxInflight: 256}, srv.Handler()))
	defer ts.Close()

	// Live ingest into the served store, stamped with the wall clock:
	// short seal age so the watcher sees generation bumps (and drops the
	// cache) mid-run. The collector is not one the queries window over.
	p, err := NewPlane(ctx, Config{
		Dir:     dir,
		Seal:    evstore.SealPolicy{MaxAge: 200 * time.Millisecond},
		Metrics: NewMetrics(reg),
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.Attach(funcFeed{"churn", func(ctx context.Context, emit func(classify.Event) error) error {
		tick := time.NewTicker(2500 * time.Microsecond) // 400 events/s
		defer tick.Stop()
		for seq := 0; ; seq++ {
			select {
			case <-ctx.Done():
				return nil
			case <-tick.C:
			}
			e := classify.Event{
				Time:      time.Now(),
				Collector: "churn00",
				PeerAS:    uint32(65000 + seq%4),
				PeerAddr:  netip.AddrFrom4([4]byte{10, 9, byte(seq % 4), 1}),
				Prefix:    netip.PrefixFrom(netip.AddrFrom4([4]byte{192, 0, byte(seq), 0}), 24),
			}
			if e.Withdraw = seq%10 == 9; !e.Withdraw {
				e.ASPath = bgp.NewASPath(e.PeerAS, 3356, uint32(1000+seq%50))
				e.Communities = bgp.Communities{bgp.NewCommunity(3356, uint16(seq%100))}
			}
			if err := emit(e); err != nil {
				return err
			}
		}
	}}, FeedOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// Continuous scraping while serving: every exposition must lint.
	scrapeDone := make(chan struct{})
	scrapes := 0
	go func() {
		defer close(scrapeDone)
		for ctx.Err() == nil {
			resp, err := http.Get(ts.URL + "/metrics")
			if err != nil {
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			scrapes++
			if err := obs.Lint(body); err != nil {
				t.Errorf("scrape %d lint: %v", scrapes, err)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}()

	// The mix: mostly one hot full-day table2 (cached between seals), a
	// steady minority of fresh sub-day windows, some §7 and table1.
	iso := func(at time.Time) string { return url.QueryEscape(at.Format(time.RFC3339)) }
	window := func(from, to time.Time) string { return "from=" + iso(from) + "&to=" + iso(to) }
	fullDay := window(cfg.Day, cfg.Day.Add(24*time.Hour))
	pick := func(r *rand.Rand) string {
		switch n := r.Intn(80); {
		case n < 40:
			return "/v1/table2?" + fullDay
		case n < 65:
			from := cfg.Day.Add(time.Duration(r.Intn(6)) * time.Hour)
			return "/v1/table2?" + window(from, from.Add(time.Duration(2+r.Intn(17))*time.Hour))
		case n < 75:
			return "/v1/infer/peers?" + fullDay
		default:
			return "/v1/table1?" + fullDay
		}
	}
	var requests, cached atomic.Int64
	var clients sync.WaitGroup
	stop := time.Now().Add(duration)
	for c := range 4 {
		clients.Add(1)
		go func() {
			defer clients.Done()
			r := rand.New(rand.NewSource(int64(c + 1)))
			for time.Now().Before(stop) {
				path := pick(r)
				resp, err := http.Get(ts.URL + path)
				if err != nil {
					t.Errorf("GET %s: %v", path, err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				requests.Add(1)
				if resp.StatusCode != http.StatusOK { // a 429 would be Admission shedding
					t.Errorf("GET %s: status %d", path, resp.StatusCode)
				}
				if resp.Header.Get("X-Comm-Tier") == "cached" {
					cached.Add(1)
				}
			}
		}()
	}
	clients.Wait()
	cancel()
	<-scrapeDone

	if requests.Load() == 0 {
		t.Fatal("load run issued no requests")
	}
	if cached.Load() == 0 {
		t.Errorf("no cached answers in %d requests — tier header or cache broken", requests.Load())
	}
	if scrapes == 0 {
		t.Error("no successful scrapes during the run")
	}
	st, err := p.Drain(10 * time.Second)
	if err != nil {
		t.Fatalf("churn drain: %v", err)
	}
	if st.Events == 0 {
		t.Error("churn feed delivered no events")
	}
	sealed := 0
	for _, c := range st.Collectors {
		sealed += c.Writer.Sealed
	}
	if sealed == 0 {
		t.Error("churn sealed no partitions")
	}
	t.Logf("%d requests (%d cached), %d scrapes, %d events in %d sealed partitions, %d refreshes",
		requests.Load(), cached.Load(), scrapes, st.Events, sealed, srv.Stats(context.Background()).Refreshes)
}

// waitFor polls cond until true or the deadline.
func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestPlaneDrainFlushesQueues pins the graceful-shutdown contract:
// events already accepted into a queue at drain time are flushed,
// sealed, and published — not dropped.
func TestPlaneDrainFlushesQueues(t *testing.T) {
	dir := t.TempDir()
	p, err := NewPlane(context.Background(), Config{Dir: dir, QueueDepth: 512})
	if err != nil {
		t.Fatal(err)
	}
	day := time.Date(2020, 3, 15, 0, 0, 0, 0, time.UTC)
	const n = 300
	h, err := p.Attach(funcFeed{"burst", func(ctx context.Context, emit func(classify.Event) error) error {
		for i := 0; i < n; i++ {
			e := classify.Event{
				Time:      day.Add(time.Duration(i) * time.Second),
				Collector: "rrc00",
				PeerAS:    64500,
				PeerAddr:  netip.MustParseAddr("10.0.0.1"),
				Prefix:    netip.MustParsePrefix(fmt.Sprintf("192.0.%d.0/24", i%200)),
				ASPath:    bgp.NewASPath(64500, 3356),
			}
			if err := emit(e); err != nil {
				return err
			}
		}
		return nil
	}}, FeedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, h) // all n accepted into the queue (or written)
	st, err := p.Drain(5 * time.Second)
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	written := 0
	for _, c := range st.Collectors {
		written += c.Writer.Events
	}
	if written != n {
		t.Fatalf("writer saw %d events after drain, want %d", written, n)
	}
	counts := scanCounts(t, dir)
	if got := counts.Announcements() + counts.Withdrawals; got != n {
		t.Fatalf("store classified %d events, want %d", got, n)
	}
}
