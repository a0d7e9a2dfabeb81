// Command bgpcollect is the live collection daemon: a supervised fleet
// of BGP feeds — protocol-real peer sessions accepted off a TCP
// listener, accelerated simnet scenarios, and MRT-archive replays —
// streaming normalized events into an evstore directory with bounded
// memory and seconds-level seal freshness. A commservd -watch daemon
// pointed at the same directory answers queries over the events within
// seconds of their arrival.
//
// Usage:
//
//	bgpcollect -store ./store -listen 127.0.0.1:1790 [-as 12654]
//	bgpcollect -store ./store -sim 4 -sim-speed 3600
//	bgpcollect -store ./store -replay updates.mrt -replay-speed 60
//
// SIGINT/SIGTERM drain gracefully: accepting stops, queues flush,
// every open partition seals, and the daemon exits 0. Feeds still
// running after -drain-timeout are abandoned: the daemon exits
// non-zero without flushing, leaving only unsealed temp files (sealed
// partitions are already durable). A failure to bind the listen
// address exits non-zero immediately.
//
// The archiving mode of the previous version (-out updates.mrt,
// -sessions N) is gone: events now land in the store, not an MRT file,
// and sessions are supervised indefinitely instead of counted.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/netip"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/evstore"
	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/router"
	"repro/internal/session"
	"repro/internal/simnet"
)

func main() { os.Exit(run()) }

type listFlag []string

func (l *listFlag) String() string { return fmt.Sprint(*l) }
func (l *listFlag) Set(v string) error {
	*l = append(*l, v)
	return nil
}

func run() int {
	store := flag.String("store", "", "evstore directory to publish partitions into (required)")
	listen := flag.String("listen", "", "address to accept live BGP sessions on (empty: no listener)")
	as := flag.Uint("as", 12654, "collector AS number for accepted sessions")
	collectorName := flag.String("collector", "live00", "collector label stamped on session events")
	backpressure := flag.String("backpressure", "shed", "session-feed overload behavior: block or shed")

	sim := flag.Int("sim", 0, "number of simulated scenario feeds to attach")
	simSpeed := flag.Float64("sim-speed", 3600, "simulation acceleration factor (1: wall clock, <=0: unpaced)")
	var replays listFlag
	flag.Var(&replays, "replay", "MRT archive to replay as a feed (repeatable)")
	replaySpeed := flag.Float64("replay-speed", 0, "replay acceleration factor (1: wall clock, <=0: unpaced)")

	sealAge := flag.Duration("seal-age", 2*time.Second, "seal and publish partitions this old (freshness bound)")
	sealEvents := flag.Int("seal-events", 0, "seal partitions at this many events (0: off)")
	sealBytes := flag.Int64("seal-bytes", 0, "seal partitions at this many compressed bytes (0: off)")
	queueDepth := flag.Int("queue", 4096, "per-collector queue depth (the backpressure boundary)")
	codec := flag.String("codec", "", "chunk codec for published partitions: raw or lz (empty: store default)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "hard shutdown bound: feeds still running after this abandon the flush and exit non-zero (0: wait forever)")
	statsEvery := flag.Duration("stats", 10*time.Second, "status line interval (0: quiet)")
	duration := flag.Duration("duration", 0, "run this long, then drain and exit (0: until signal)")
	metricsAddr := flag.String("metrics", "", "ops listener address for GET /metrics and /healthz (empty: none)")
	logFormat := flag.String("log-format", "text", "log format: text|json")
	logLevel := flag.String("log-level", "info", "log level: debug|info|warn|error")
	flag.Parse()

	fail := func(err error) int {
		fmt.Fprintf(os.Stderr, "bgpcollect: %v\n", err)
		return 1
	}
	logger, err := obs.NewLogger(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		return fail(err)
	}
	if *store == "" {
		fmt.Fprintln(os.Stderr, "bgpcollect: -store is required")
		flag.Usage()
		return 2
	}
	if *listen == "" && *sim == 0 && len(replays) == 0 {
		fmt.Fprintln(os.Stderr, "bgpcollect: nothing to collect: give -listen, -sim, or -replay")
		flag.Usage()
		return 2
	}
	var mode ingest.BackpressureMode
	switch *backpressure {
	case "block":
		mode = ingest.Block
	case "shed":
		mode = ingest.Shed
	default:
		return fail(fmt.Errorf("unknown -backpressure %q (want block or shed)", *backpressure))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *duration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *duration)
		defer cancel()
	}

	reg := obs.NewRegistry()
	plane, err := ingest.NewPlane(ctx, ingest.Config{
		Dir:        *store,
		Seal:       evstore.SealPolicy{MaxAge: *sealAge, MaxEvents: *sealEvents, MaxBytes: *sealBytes},
		QueueDepth: *queueDepth,
		Codec:      *codec,
		Metrics:    ingest.NewMetrics(reg),
		Logger:     logger,
	})
	if err != nil {
		return fail(err)
	}

	// The ops listener is separate from the BGP listener: scrapes and
	// probes must keep answering while sessions churn.
	if *metricsAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("GET /metrics", reg.Handler())
		mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintf(w, "{\"ok\":true,\"feeds\":%q}\n", plane.Supervisor().StateSummary())
		})
		mln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			return fail(fmt.Errorf("metrics listener: %w", err))
		}
		msrv := obs.NewServer(mux)
		defer msrv.Close()
		go msrv.Serve(mln)
		logger.Info("ops listener up", "addr", mln.Addr().String())
	}

	// Bind before attaching anything: a taken port must exit non-zero
	// immediately, not after feeds have started publishing.
	if *listen != "" {
		ln, err := session.Listen(*listen, session.Config{
			LocalAS:  uint32(*as),
			RouterID: netip.MustParseAddr("198.51.100.1"),
		})
		if err != nil {
			return fail(err)
		}
		defer ln.Close()
		logger.Info("accepting BGP sessions", "addr", ln.Addr().String(),
			"as", *as, "collector", *collectorName, "backpressure", mode.String())
		go func() {
			if err := plane.AcceptSessions(ctx, ln, *collectorName, ingest.FeedOptions{Backpressure: mode}); err != nil {
				logger.Error("accept loop failed", "err", err)
				stop()
			}
		}()
	}

	// Replay and sim feeds do finite work, so a persistently failing one
	// (e.g. an unreadable archive) must park in FeedFailed after a few
	// no-progress attempts rather than retry forever — otherwise a
	// no-listener run never reaches the all-feeds-done exit.
	finitePolicy := &ingest.RestartPolicy{MaxRestarts: 5}
	for _, path := range replays {
		if _, err := os.Stat(path); err != nil {
			return fail(fmt.Errorf("replay: %w", err))
		}
	}

	var finite []*ingest.FeedHandle
	for i := 0; i < *sim; i++ {
		scen := simnet.Scenario{
			Name:     fmt.Sprintf("sim%02d", i),
			Topology: simnet.TopoInternet,
			Policy:   simnet.PolicyMixed,
			Vendor:   router.CiscoIOS,
			Workload: simnet.WorkChurn,
			Seed:     int64(i),
			Start:    time.Now().UTC().Truncate(24 * time.Hour),
		}
		h, err := plane.Attach(ingest.NewSimFeed(scen, *simSpeed), ingest.FeedOptions{Restart: finitePolicy})
		if err != nil {
			return fail(err)
		}
		finite = append(finite, h)
	}
	for i, path := range replays {
		name := fmt.Sprintf("replay/%s#%d", path, i)
		h, err := plane.Attach(ingest.ReplayArchive(name, fmt.Sprintf("replay%02d", i), path, *replaySpeed), ingest.FeedOptions{Restart: finitePolicy})
		if err != nil {
			return fail(err)
		}
		finite = append(finite, h)
	}
	logger.Info("collection plane up", "store", *store, "seal_age", *sealAge,
		"feeds", len(finite), "listener", *listen != "")

	// Without a listener the daemon's work is finite: exit once every
	// attached feed has reached a terminal state.
	if *listen == "" {
		go func() {
			for _, h := range finite {
				<-h.Done()
			}
			stop()
		}()
	}

	if *statsEvery > 0 {
		go func() {
			t := time.NewTicker(*statsEvery)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					logStats(logger, plane)
				}
			}
		}()
	}

	<-ctx.Done()
	logger.Info("draining: stopping feeds, flushing queues, sealing partitions")
	st, err := plane.Drain(*drainTimeout)
	logFinal(logger, st)
	if err != nil {
		return fail(err)
	}
	return 0
}

func logStats(logger *slog.Logger, p *ingest.Plane) {
	st := p.Stats()
	queued, sealed := 0, 0
	for _, c := range st.Collectors {
		queued += c.Queued
		sealed += c.Writer.Sealed
	}
	logger.Info("plane status", "feeds", p.Supervisor().StateSummary(),
		"events", st.Events, "sheds", st.Sheds, "queued", queued,
		"collectors", len(st.Collectors), "sealed", sealed)
}

func logFinal(logger *slog.Logger, st ingest.PlaneStats) {
	var w evstore.WriterStats
	for _, c := range st.Collectors {
		w.Add(c.Writer)
	}
	logger.Info("drained", "events", st.Events, "sheds", st.Sheds,
		"collectors", len(st.Collectors), "sealed", w.Sealed,
		"policy_sealed", w.PolicySealed, "bytes", w.Bytes)
}
