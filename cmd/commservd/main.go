// Command commservd is the query-serving daemon: it keeps incremental
// per-partition analyzer snapshots warm over a columnar event store
// and answers the paper's tables, figures, and §7 inferences as
// windowed HTTP queries — merged snapshot states plus a residual scan
// over only the partitions each window cuts through, with an LRU
// result cache and singleflight dedup in front.
//
// Daemon mode (single node, the default):
//
//	commservd -store DIR [-addr :8714] [-workers N] [-cache N]
//	          [-watch 1s] [-drain 5s]
//
// builds any missing snapshot sidecars, serves the /v1 API, and
// follows the store manifest: when live ingest (evstore ingest,
// commstudy sweep -store, bgpcollect) seals new partitions, the daemon
// snapshots exactly those and invalidates its cache. SIGTERM/SIGINT
// drains in-flight requests (up to -drain) before exiting 0.
//
// Cluster mode splits the same daemon into two tiers. A shard serves
// the binary state protocol over one store directory, repeated specs
// from the same cache that fronts /v1 answers (see `evstore shard` for
// splitting a store by collector):
//
//	commservd -shard -store DIR/shard-000 -addr :8801
//
// and a coordinator serves the full /v1 API by fanning every query out
// to its shards and merging the returned analyzer states — answers are
// bit-identical to a single-node daemon over the union store, and a
// lost shard degrades to a partial answer naming the missing shard in
// its provenance:
//
//	commservd -coordinator -shards http://h1:8801,http://h2:8801 -addr :8714
//
// Client mode renders daemon answers in the `evstore query` table style:
//
//	commservd -client http://host:8714 -q table2 [-from T] [-to T]
//	          [-collectors a,b]
//	commservd -client http://host:8714 -q figure2 -fromyear 2010 -toyear 2020
//
// Example queries against a running daemon:
//
//	curl 'http://localhost:8714/v1/table2?from=2020-03-15T00:00:00Z&to=2020-03-16T00:00:00Z'
//	curl 'http://localhost:8714/v1/figure/2?fromyear=2010&toyear=2020'
//	curl 'http://localhost:8714/v1/infer/peers?collectors=rrc00'
//	curl 'http://localhost:8714/v1/stats'
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/textplot"
)

func main() {
	store := flag.String("store", "", "columnar event store directory (daemon mode)")
	addr := flag.String("addr", ":8714", "HTTP listen address")
	workers := flag.Int("workers", 0, "per-query scan workers (0 = GOMAXPROCS)")
	cache := flag.Int("cache", 256, "LRU result-cache entries")
	watch := flag.Duration("watch", time.Second, "store manifest poll interval (0 disables)")
	drain := flag.Duration("drain", 5*time.Second, "in-flight request drain timeout on shutdown")
	shard := flag.Bool("shard", false, "shard mode: serve the binary state protocol over -store")
	coordinator := flag.Bool("coordinator", false, "coordinator mode: serve /v1 by scatter-gather over -shards")
	shards := flag.String("shards", "", "comma-separated shard base URLs (coordinator mode)")
	client := flag.String("client", "", "client mode: base URL of a running daemon")
	q := flag.String("q", "table2", "client query kind: table1|table2|figure2|figure3|figure6|peers|ingress|stats")
	from := flag.String("from", "", "window start (RFC 3339)")
	to := flag.String("to", "", "window end (RFC 3339)")
	collectors := flag.String("collectors", "", "comma-separated collectors")
	fromYear := flag.Int("fromyear", 0, "figure2 first year")
	toYear := flag.Int("toyear", 0, "figure2 last year")
	collector := flag.String("collector", "", "figure3 collector")
	prefix := flag.String("prefix", "", "figure3 prefix")
	logFormat := flag.String("log-format", "text", "log format: text|json")
	logLevel := flag.String("log-level", "info", "log level: debug|info|warn|error (debug logs every query)")
	maxInflight := flag.Int("max-inflight", 0, "shed requests over this many in flight with 429 (0 = unbounded)")
	rate := flag.Float64("rate", 0, "per-client admission rate in req/s, 429 over it (0 = unlimited)")
	burst := flag.Int("burst", 0, "per-client token-bucket depth (0 = max(1, ceil(rate)))")
	flag.Parse()

	var err error
	switch {
	case *client != "":
		err = runClient(*client, *q, *from, *to, *collectors, *collector, *prefix, *fromYear, *toYear)
	case *coordinator:
		if *shards == "" {
			err = fmt.Errorf("coordinator mode needs -shards URL,URL,...")
		} else {
			err = runDaemon(daemonOpts{addr: *addr, workers: *workers, cache: *cache,
				watch: *watch, drain: *drain, shards: strings.Split(*shards, ","),
				logFormat: *logFormat, logLevel: *logLevel,
				maxInflight: *maxInflight, rate: *rate, burst: *burst})
		}
	case *store == "":
		err = fmt.Errorf("need -store DIR (daemon), -coordinator -shards URLs, or -client URL")
	default:
		err = runDaemon(daemonOpts{store: *store, addr: *addr, workers: *workers,
			cache: *cache, watch: *watch, drain: *drain, shardMode: *shard,
			logFormat: *logFormat, logLevel: *logLevel,
			maxInflight: *maxInflight, rate: *rate, burst: *burst})
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "commservd: %v\n", err)
		os.Exit(1)
	}
}

type daemonOpts struct {
	store       string
	addr        string
	workers     int
	cache       int
	watch       time.Duration
	drain       time.Duration
	shardMode   bool
	shards      []string // coordinator mode when non-empty
	logFormat   string
	logLevel    string
	maxInflight int
	rate        float64
	burst       int
}

func runDaemon(opts daemonOpts) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	logger, err := obs.NewLogger(os.Stderr, opts.logFormat, opts.logLevel)
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()
	metrics := serve.NewMetrics(reg)

	cfg := serve.Config{Dir: opts.store, Workers: opts.workers, CacheEntries: opts.cache,
		Metrics: metrics, Logger: logger}
	mode := "single-node"
	if len(opts.shards) > 0 {
		backends := make([]serve.Backend, len(opts.shards))
		for i, u := range opts.shards {
			backends[i] = serve.NewRemoteBackend(strings.TrimSpace(u))
		}
		cfg.Backend = serve.NewCoordinator(backends...)
		mode = fmt.Sprintf("coordinator over %d shards", len(backends))
	} else if opts.shardMode {
		mode = "shard"
	}

	// Bind first, then build: the listener serves warming-state probe
	// answers (alive, not ready) while the store opens and the first
	// snapshot pass runs — which can take minutes on a cold store — so
	// /readyz is meaningful from the process's first instant.
	gate := serve.NewGate()
	srv := obs.NewServer(gate)
	ln, err := net.Listen("tcp", opts.addr)
	if err != nil {
		return err
	}
	serveErr := make(chan error, 1)
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			serveErr <- err
			return
		}
		serveErr <- nil
	}()
	logger.Info("listening", "addr", opts.addr, "mode", mode, "phase", "warming")

	s, rs, err := serve.New(ctx, cfg)
	if err != nil {
		srv.Close()
		return err
	}
	if len(opts.shards) > 0 {
		logger.Info("cluster ready", "shards", len(opts.shards),
			"generation", fmt.Sprintf("%#x", rs.Generation))
	} else {
		logger.Info("snapshot index built", "partitions", rs.Partitions,
			"built", rs.Built, "reused", rs.Reused, "events", rs.Events,
			"sidecars_read", rs.SidecarsRead, "restores", rs.Restores,
			"workers", rs.Workers, "elapsed", rs.Elapsed.Round(time.Millisecond))
	}

	if opts.watch > 0 {
		go s.Watch(ctx, opts.watch, func(rs serve.RefreshStats, err error) {
			if err != nil {
				logger.Warn("refresh failed", "err", err)
				return
			}
			if len(opts.shards) > 0 {
				logger.Info("refresh: shard stores moved",
					"generation", fmt.Sprintf("%#x", rs.Generation))
				return
			}
			logger.Info("refresh: new partitions snapshotted",
				"built", rs.Built, "events", rs.Events,
				"elapsed", rs.Elapsed.Round(time.Millisecond))
		})
	}

	handler := s.Handler()
	if opts.shardMode {
		handler = s.StateHandler()
	}
	handler = serve.Admission(serve.AdmissionConfig{
		MaxInflight: opts.maxInflight, Rate: opts.rate, Burst: opts.burst,
		Metrics: metrics, Logger: logger,
	}, handler)
	gate.Ready(handler)
	logger.Info("serving", "store", opts.store, "addr", opts.addr, "mode", mode,
		"watch", opts.watch, "cache", opts.cache,
		"max_inflight", opts.maxInflight, "rate", opts.rate)

	select {
	case err := <-serveErr:
		return err // listen failed before any signal
	case <-ctx.Done():
	}
	// Graceful drain: stop accepting, let in-flight requests finish,
	// and only then exit — Shutdown must complete (or time out) before
	// main returns, otherwise the process dies mid-response.
	logger.Info("shutdown: draining in-flight requests", "timeout", opts.drain)
	shutCtx, cancel := context.WithTimeout(context.Background(), opts.drain)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		// Drain timed out: sever the stragglers so we still exit.
		srv.Close()
		<-serveErr
		logger.Warn("shutdown: drain timed out, closed remaining connections")
		return nil
	}
	<-serveErr
	logger.Info("shutdown: drained")
	return nil
}

// ---------------------------------------------------------------------------
// Client mode
// ---------------------------------------------------------------------------

// answerEnvelope mirrors serve.Answer for decoding.
type answerEnvelope struct {
	Kind    string          `json:"kind"`
	Source  string          `json:"source"`
	Elapsed time.Duration   `json:"elapsed_ns"`
	Plan    json.RawMessage `json:"plan"`
	Data    json.RawMessage `json:"data"`
}

func runClient(base, kind, from, to, collectors, collector, prefix string, fromYear, toYear int) error {
	path, err := clientPath(kind, from, to, collectors, collector, prefix, fromYear, toYear)
	if err != nil {
		return err
	}
	resp, err := http.Get(base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if kind == "stats" {
		var pretty json.RawMessage
		if err := json.NewDecoder(resp.Body).Decode(&pretty); err != nil {
			return err
		}
		os.Stdout.Write(pretty)
		fmt.Println()
		return nil
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		json.Unmarshal(body, &e)
		if e.Error != "" {
			return fmt.Errorf("%s: HTTP %d: %s", path, resp.StatusCode, e.Error)
		}
		return fmt.Errorf("%s: HTTP %d", path, resp.StatusCode)
	}
	var env answerEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		return err
	}
	fmt.Printf("%s — served from %s in %v\n\n", path, env.Source, env.Elapsed.Round(time.Microsecond))
	return renderData(kind, env.Data)
}

func clientPath(kind, from, to, collectors, collector, prefix string, fromYear, toYear int) (string, error) {
	params := ""
	add := func(k, v string) {
		sep := "?"
		if params != "" {
			sep = "&"
		}
		params += sep + k + "=" + v
	}
	if from != "" {
		add("from", from)
	}
	if to != "" {
		add("to", to)
	}
	if collectors != "" {
		add("collectors", collectors)
	}
	switch kind {
	case "table1", "table2":
		return "/v1/" + kind + params, nil
	case "figure2":
		add("fromyear", strconv.Itoa(fromYear))
		add("toyear", strconv.Itoa(toYear))
		return "/v1/figure/2" + params, nil
	case "figure3":
		add("collector", collector)
		add("prefix", prefix)
		return "/v1/figure/3" + params, nil
	case "figure6":
		return "/v1/figure/6" + params, nil
	case "peers":
		return "/v1/infer/peers" + params, nil
	case "ingress":
		return "/v1/infer/ingress" + params, nil
	case "stats":
		return "/v1/stats", nil
	}
	return "", fmt.Errorf("unknown query kind %q", kind)
}

func renderData(kind string, data json.RawMessage) error {
	switch kind {
	case "table1":
		var t1 struct {
			PrefixesV4, PrefixesV6, ASes, Sessions, Peers     int
			Announcements, WithCommunities, UniqueCommunities int
			UniqueASPaths, Withdrawals                        int
		}
		if err := json.Unmarshal(data, &t1); err != nil {
			return err
		}
		fmt.Println("Table 1 — selection overview:")
		fmt.Print(textplot.Table([]string{"metric", "value"}, [][]string{
			{"IPv4 prefixes", strconv.Itoa(t1.PrefixesV4)},
			{"IPv6 prefixes", strconv.Itoa(t1.PrefixesV6)},
			{"ASes", strconv.Itoa(t1.ASes)},
			{"Sessions", strconv.Itoa(t1.Sessions)},
			{"Peers", strconv.Itoa(t1.Peers)},
			{"Announcements", strconv.Itoa(t1.Announcements)},
			{"  w/ communities", strconv.Itoa(t1.WithCommunities)},
			{"  uniq. 16-bit comms", strconv.Itoa(t1.UniqueCommunities)},
			{"  uniq. AS paths", strconv.Itoa(t1.UniqueASPaths)},
			{"Withdrawals", strconv.Itoa(t1.Withdrawals)},
		}))
	case "table2":
		var d countsJSON
		if err := json.Unmarshal(data, &d); err != nil {
			return err
		}
		printCounts(d)
	case "figure2":
		var rows []struct {
			Year   int        `json:"year"`
			Total  int        `json:"total"`
			Counts countsJSON `json:"counts"`
		}
		if err := json.Unmarshal(data, &rows); err != nil {
			return err
		}
		var tbl [][]string
		for _, r := range rows {
			tbl = append(tbl, []string{
				strconv.Itoa(r.Year), strconv.Itoa(r.Total),
				fmt.Sprintf("%.1f%%", 100*r.Counts.NoPathChange),
			})
		}
		fmt.Println("Figure 2 — per-year announcement counts:")
		fmt.Print(textplot.Table([]string{"year", "total", "nc+nn"}, tbl))
	case "figure3":
		var rows []struct {
			Session struct {
				Collector string
				PeerAddr  string
			}
			PeerAS uint32
			Counts struct {
				ByType      [6]int
				Withdrawals int
			}
		}
		if err := json.Unmarshal(data, &rows); err != nil {
			return err
		}
		fmt.Printf("Figure 3 — %d sessions\n", len(rows))
	case "figure6":
		var s struct {
			Total           int     `json:"Total"`
			WithdrawalOnly  int     `json:"WithdrawalOnly"`
			WithdrawalRatio float64 `json:"WithdrawalRatio"`
		}
		if err := json.Unmarshal(data, &s); err != nil {
			return err
		}
		fmt.Printf("Figure 6 — %d unique community attrs, %d withdrawal-only (ratio %.2f)\n",
			s.Total, s.WithdrawalOnly, s.WithdrawalRatio)
	case "peers":
		var d struct {
			Summary  map[string]int    `json:"summary"`
			Sessions []json.RawMessage `json:"sessions"`
		}
		if err := json.Unmarshal(data, &d); err != nil {
			return err
		}
		fmt.Printf("Peer behavior inference (§7, %d sessions):\n", len(d.Sessions))
		keys := make([]string, 0, len(d.Summary))
		for k := range d.Summary {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var rows [][]string
		for _, k := range keys {
			rows = append(rows, []string{k, strconv.Itoa(d.Summary[k])})
		}
		fmt.Print(textplot.Table([]string{"behavior", "sessions"}, rows))
	default:
		os.Stdout.Write(data)
		fmt.Println()
	}
	return nil
}

type countsJSON struct {
	Announcements int                `json:"announcements"`
	Withdrawals   int                `json:"withdrawals"`
	ByType        map[string]int     `json:"by_type"`
	Shares        map[string]float64 `json:"shares"`
	NoPathChange  float64            `json:"no_path_change_share"`
}

func printCounts(d countsJSON) {
	fmt.Println("Table 2 — announcement types (paper: pc 33.7 pn 15.1 nc 24.5 nn 25.7 xc 0.3 xn 0.7):")
	var rows [][]string
	for _, ty := range []string{"pc", "pn", "nc", "nn", "xc", "xn"} {
		rows = append(rows, []string{
			ty, strconv.Itoa(d.ByType[ty]), fmt.Sprintf("%.1f%%", 100*d.Shares[ty]),
		})
	}
	fmt.Print(textplot.Table([]string{"type", "count", "share"}, rows))
	fmt.Printf("\nno-path-change (nc+nn) share: %.1f%% (paper: ~50%%)\n", 100*d.NoPathChange)
	fmt.Printf("withdrawals: %d\n", d.Withdrawals)
}
