package serve_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/beacon"
	"repro/internal/classify"
	"repro/internal/evstore"
	"repro/internal/serve"
	"repro/internal/stream"
	"repro/internal/workload"
)

// shardProc is one in-process shard daemon: a serve.Server over a
// shard store behind the shard-mode HTTP surface on a real TCP
// listener. Unlike httptest.Server it is restartable on the SAME
// address, which is what the degraded-mode test needs: the coordinator
// keeps pointing at the configured URL while the process behind it
// dies and comes back.
type shardProc struct {
	dir  string
	addr string
	srv  *serve.Server
	hs   *http.Server
}

func (p *shardProc) start(t testing.TB) {
	t.Helper()
	addr := p.addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	var ln net.Listener
	var err error
	for i := 0; i < 100; i++ { // rebinding a just-closed address can race briefly
		if ln, err = net.Listen("tcp", addr); err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatal(err)
	}
	p.addr = ln.Addr().String()
	s, _, err := serve.New(context.Background(), serve.Config{Dir: p.dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	p.srv = s
	p.hs = &http.Server{Handler: s.StateHandler()}
	go p.hs.Serve(ln)
	t.Cleanup(func() { p.hs.Close() })
}

func (p *shardProc) stop() { p.hs.Close() }

func (p *shardProc) url() string { return "http://" + p.addr }

// splitRandom splits the store into n shards under a fresh dir with a
// seeded-random collector assignment (not the ShardMap — the protocol
// must be correct for ANY session-respecting partition), returning the
// shard dirs and the memoized assignment.
func splitRandom(t testing.TB, dir string, n int, seed int64) ([]string, map[string]int) {
	t.Helper()
	rnd := rand.New(rand.NewSource(seed))
	assigned := map[string]int{}
	out := t.TempDir()
	_, err := evstore.SplitStoreFunc(dir, n, out, func(col string) int {
		s, ok := assigned[col]
		if !ok {
			s = rnd.Intn(n)
			assigned[col] = s
		}
		return s
	})
	if err != nil {
		t.Fatal(err)
	}
	dirs := make([]string, n)
	for i := range dirs {
		dirs[i] = evstore.ShardDirName(i)
		dirs[i] = out + "/" + dirs[i]
	}
	return dirs, assigned
}

// startCluster brings up n shard daemons over the shard dirs plus a
// coordinator server fanning out to them, and returns the coordinator
// HTTP frontend.
func startCluster(t testing.TB, shardDirs []string) ([]*shardProc, *serve.Server, *httptest.Server) {
	t.Helper()
	procs := make([]*shardProc, len(shardDirs))
	backends := make([]serve.Backend, len(shardDirs))
	for i, dir := range shardDirs {
		procs[i] = &shardProc{dir: dir}
		procs[i].start(t)
		backends[i] = serve.NewRemoteBackend(procs[i].url())
	}
	coord, _, err := serve.New(context.Background(), serve.Config{Backend: serve.NewCoordinator(backends...)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(coord.Handler())
	t.Cleanup(ts.Close)
	return procs, coord, ts
}

// getAnswer GETs an API path and decodes the JSON answer envelope.
func getAnswer(t testing.TB, base, path string) map[string]any {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, body)
	}
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	return m
}

// firstRoute finds one announced route in the store to parameterize
// figure4/5 (collector, peer, prefix, AS path).
func firstRoute(t testing.TB, dir string) url.Values {
	t.Helper()
	var scanErr error
	for ev := range evstore.Scan(dir, evstore.Query{}, &scanErr) {
		if ev.Withdraw || ev.ASPath.Length() == 0 {
			continue
		}
		return url.Values{
			"collector": {ev.Collector},
			"peer":      {ev.PeerAddr.String()},
			"prefix":    {ev.Prefix.String()},
			"path":      {ev.ASPath.String()},
		}
	}
	if scanErr != nil {
		t.Fatal(scanErr)
	}
	t.Fatal("no announce event in store")
	return nil
}

// clusterPaths is every /v1 analysis endpoint, parameterized against
// the store's contents: windowed and unbounded aggregates, a per-event
// filter (cold scan), and every figure.
func clusterPaths(t testing.TB, single string) []string {
	t.Helper()
	from := testDay.Add(2 * time.Hour).Format(time.RFC3339)
	to := testDay.Add(20 * time.Hour).Format(time.RFC3339)
	window := "from=" + url.QueryEscape(from) + "&to=" + url.QueryEscape(to)
	route := firstRoute(t, single).Encode()
	peerAS := firstPeerAS(t, single)[0]
	return []string{
		"/v1/table1?" + window,
		"/v1/table2?" + window,
		"/v1/table2",
		fmt.Sprintf("/v1/table2?peeras=%d", peerAS),
		"/v1/figure/2?fromyear=2020&toyear=2020",
		"/v1/figure/3?collector=rrc00&prefix=" + url.QueryEscape(beacon.PrefixN(0).String()),
		"/v1/figure/4?" + route,
		"/v1/figure/5?" + route,
		"/v1/figure/6",
		"/v1/infer/peers?" + window,
		"/v1/infer/ingress",
	}
}

// TestClusterEquivalence is the scatter-gather acceptance: a 4-shard
// cluster over a random session-respecting partition of the store must
// answer every /v1 endpoint bit-identically to a single-node server
// over the unsplit store — cold, from warm caches, and across a live
// ingest + refresh (the generation guard dropping stale merged
// answers).
func TestClusterEquivalence(t *testing.T) {
	cfg := smallCfg()
	cfg.Collectors = 6
	single := buildStore(t, workload.MultiDaySource(cfg, 2))

	const nShards = 4
	shardDirs, assigned := splitRandom(t, single, nShards, 20200315)

	sSingle, _, err := serve.New(context.Background(), serve.Config{Dir: single, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	tsSingle := httptest.NewServer(sSingle.Handler())
	defer tsSingle.Close()

	shards, _, tsCoord := startCluster(t, shardDirs)

	paths := clusterPaths(t, single)
	for _, path := range paths {
		want := getAnswer(t, tsSingle.URL, path)
		got := getAnswer(t, tsCoord.URL, path)
		if !reflect.DeepEqual(got["data"], want["data"]) {
			t.Errorf("%s: coordinator diverged from single-node\n got %v\nwant %v",
				path, got["data"], want["data"])
		}
		if got["partial"] != nil {
			t.Errorf("%s: healthy cluster answered partial", path)
		}
	}
	if t.Failed() {
		t.FailNow()
	}

	// Warm repeats: both tiers serve from cache, still identical.
	for _, path := range paths {
		want := getAnswer(t, tsSingle.URL, path)
		got := getAnswer(t, tsCoord.URL, path)
		if want["source"] != "cache" || got["source"] != "cache" {
			t.Errorf("%s: warm repeat sources %q/%q, want cache/cache",
				path, want["source"], got["source"])
		}
		if !reflect.DeepEqual(got["data"], want["data"]) {
			t.Errorf("%s: warm coordinator diverged from single-node", path)
		}
	}

	// Live ingest: append a fresh day to the single store and, filtered
	// by the SAME collector assignment, to each shard store; refresh the
	// shard daemons and the single server. The coordinator is NOT
	// refreshed — the next envelope it pulls carries the new shard
	// generations, and that drift must drop its stale answer cache.
	day3 := cfg
	day3.Day = cfg.Day.Add(48 * time.Hour)
	_, sources := workload.DaySources(day3)
	appendEvents(t, single, stream.Concat(sources...), nil, 0)
	for i, p := range shards {
		appendEvents(t, p.dir, stream.Concat(sources...), assigned, i)
		if _, err := p.srv.Refresh(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sSingle.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}

	// An unseen spec reaches the shards and observes the drift...
	probe := "/v1/table1?from=" + url.QueryEscape(testDay.Add(time.Hour).Format(time.RFC3339))
	if !reflect.DeepEqual(getAnswer(t, tsCoord.URL, probe)["data"], getAnswer(t, tsSingle.URL, probe)["data"]) {
		t.Error("post-ingest probe diverged")
	}
	// ...so previously-cached specs must recompute against fresh data,
	// not serve the pre-ingest answer.
	for _, path := range paths {
		want := getAnswer(t, tsSingle.URL, path)
		got := getAnswer(t, tsCoord.URL, path)
		if got["source"] == "cache" && !reflect.DeepEqual(got["data"], want["data"]) {
			t.Errorf("%s: coordinator served a stale cached answer across a store refresh", path)
		}
		if !reflect.DeepEqual(got["data"], want["data"]) {
			t.Errorf("%s: post-ingest coordinator diverged from single-node", path)
		}
	}
}

// appendEvents ingests src into an existing store, optionally keeping
// only the collectors a shard owns (assigned non-nil). Every collector
// must already be in the assignment — a fresh name would mean the
// split and the live feed disagree about placement units.
func appendEvents(t testing.TB, dir string, src stream.EventSource, assigned map[string]int, shard int) {
	t.Helper()
	w, err := evstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	w.BlockEvents = 512
	err = w.Ingest(func(yield func(classify.Event) bool) {
		for ev := range src {
			if assigned != nil {
				own, ok := assigned[ev.Collector]
				if !ok {
					t.Errorf("collector %q not in the split assignment", ev.Collector)
					return
				}
				if own != shard {
					continue
				}
			}
			if !yield(ev) {
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestClusterEquivalenceAcrossProducers: the scatter-gather acceptance
// must hold for stores built through every producer path, not just the
// synthetic multiday store — including stores with fewer collectors
// than shards, where some shards are empty and answer 204 (a complete
// zero contribution, not a degradation).
func TestClusterEquivalenceAcrossProducers(t *testing.T) {
	for pi, p := range storeProducers {
		t.Run(p.name, func(t *testing.T) {
			dir := p.build(t)
			shardDirs, _ := splitRandom(t, dir, 4, int64(pi))

			sSingle, _, err := serve.New(context.Background(), serve.Config{Dir: dir, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			tsSingle := httptest.NewServer(sSingle.Handler())
			defer tsSingle.Close()
			_, _, tsCoord := startCluster(t, shardDirs)

			for _, path := range clusterPaths(t, dir) {
				want := getAnswer(t, tsSingle.URL, path)
				got := getAnswer(t, tsCoord.URL, path)
				if !reflect.DeepEqual(got["data"], want["data"]) {
					t.Errorf("%s: coordinator diverged from single-node\n got %v\nwant %v",
						path, got["data"], want["data"])
				}
				if got["partial"] != nil {
					t.Errorf("%s: healthy cluster answered partial", path)
				}
			}
		})
	}
}

// TestClusterDegraded: losing a data-owning shard mid-flight degrades
// to a partial answer that NAMES the missing shard (never a wrong
// total passed off as complete, never a cached partial), and the
// cluster recovers to full bit-identical answers when the shard
// process comes back on the same address.
func TestClusterDegraded(t *testing.T) {
	cfg := smallCfg()
	cfg.Collectors = 4
	_, sources := workload.DaySources(cfg)
	single := buildStore(t, stream.Concat(sources...))

	const nShards = 4
	shardDirs, assigned := splitRandom(t, single, nShards, 7)
	shards, _, tsCoord := startCluster(t, shardDirs)

	sSingle, _, err := serve.New(context.Background(), serve.Config{Dir: single, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	tsSingle := httptest.NewServer(sSingle.Handler())
	defer tsSingle.Close()

	// Pick a victim that owns data, so its loss is observable.
	victim := -1
	for _, s := range assigned {
		victim = s
		break
	}
	if victim < 0 {
		t.Fatal("no shard owns any collector")
	}

	// warmPath is queried (and so cached) while healthy; freshPath is
	// first queried after the kill, so it must fan out and degrade.
	const warmPath = "/v1/table2"
	const freshPath = "/v1/table1"
	want := getAnswer(t, tsSingle.URL, warmPath)
	if got := getAnswer(t, tsCoord.URL, warmPath); !reflect.DeepEqual(got["data"], want["data"]) {
		t.Fatal("healthy baseline diverged")
	}
	wantFresh := getAnswer(t, tsSingle.URL, freshPath)

	// Concurrent load through the kill: every answer must be a clean
	// 200 — full or explicitly partial — never an error, because the
	// remaining shards still answer.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					getAnswer(t, tsCoord.URL, warmPath)
					getAnswer(t, tsCoord.URL, "/v1/infer/peers")
				}
			}
		}()
	}
	shards[victim].stop()
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// A full answer cached while the shard was healthy stays servable:
	// the cluster generation has not drifted, so the cache is still the
	// correct complete answer — losing a process must not forget data
	// already aggregated.
	if got := getAnswer(t, tsCoord.URL, warmPath); got["source"] != "cache" || got["partial"] != nil {
		t.Fatalf("pre-kill cached answer not served while shard down: source=%v partial=%v",
			got["source"], got["partial"])
	}

	// An uncached spec must fan out and degrade: partial, with
	// provenance naming the dead shard.
	got := getAnswer(t, tsCoord.URL, freshPath)
	if got["partial"] != true {
		t.Fatalf("answer with shard %d down not marked partial: %v", victim, got)
	}
	found := false
	for _, raw := range got["shards"].([]any) {
		p := raw.(map[string]any)
		if p["backend"] == shards[victim].url() {
			found = true
			if e, _ := p["error"].(string); e == "" {
				t.Fatalf("dead shard's provenance has no error: %v", p)
			}
		}
	}
	if !found {
		t.Fatalf("no provenance entry for dead shard %s: %v", shards[victim].url(), got["shards"])
	}
	// Partial answers are never cached: the repeat recomputes.
	if again := getAnswer(t, tsCoord.URL, freshPath); again["source"] == "cache" {
		t.Fatal("partial answer served from cache")
	} else if again["partial"] != true {
		t.Fatal("repeat while shard down not partial")
	}

	// Recovery: same address, fresh process over the same shard store.
	shards[victim].start(t)
	deadline := time.Now().Add(10 * time.Second)
	for {
		got = getAnswer(t, tsCoord.URL, freshPath)
		if got["partial"] == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cluster still partial %v after shard restart", got["shards"])
		}
		time.Sleep(50 * time.Millisecond)
	}
	if !reflect.DeepEqual(got["data"], wantFresh["data"]) {
		t.Fatalf("recovered answer diverged from single-node:\n got %v\nwant %v", got["data"], wantFresh["data"])
	}
}

// TestClusterDegradedState is TestClusterDegraded's never-a-cached-
// partial rule for the envelope entry kind: with a data-owning shard
// down, the coordinator's Server.State returns the partial envelope,
// stores nothing, and asks the shards again on the repeat.
func TestClusterDegradedState(t *testing.T) {
	cfg := smallCfg()
	cfg.Collectors = 4
	_, sources := workload.DaySources(cfg)
	shardDirs, assigned := splitRandom(t, buildStore(t, stream.Concat(sources...)), 4, 7)
	shards, coord, _ := startCluster(t, shardDirs)
	victim := -1
	for _, s := range assigned {
		victim = s
		break
	}
	shards[victim].stop()

	ctx := context.Background()
	spec := serve.QuerySpec{Kind: serve.KindTable2}
	for attempt := range 2 {
		env, err := coord.State(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		if !env.Partial() {
			t.Fatalf("attempt %d: envelope with shard %d down is not partial: %+v", attempt, victim, env.Shards)
		}
		if c := coord.Stats(ctx).Cache; c.Entries != 0 || c.Hits != 0 || c.Misses != uint64(attempt+1) {
			t.Fatalf("attempt %d: a partial envelope touched the cache: %+v", attempt, c)
		}
	}
}

// BenchmarkScatterGather measures the coordinator tax: the same
// questions answered by a single-node server over the whole store and
// by a coordinator fanning out to a 4-shard in-process cluster over
// HTTP. Warm answers (snapshot merges) pay one round-trip of envelope
// shipping per shard; cold answers (per-event filters) split the scan
// 4 ways, which is where a real multi-machine cluster scales — on one
// box the win is bounded by the shared CPU. The cached tier should be
// indistinguishable between modes.
func BenchmarkScatterGather(b *testing.B) {
	// Enough collectors×days that the warm path merges dozens of
	// partition snapshots, as a real archive would: the per-query
	// fan-out cost (4 HTTP round trips + envelope codec) has to
	// amortize against real merge work, not an 8-partition toy store.
	const days = 10
	cfg := workload.DefaultDayConfig(testDay)
	cfg.Collectors = 10
	dir := buildStore(b, workload.MultiDaySource(cfg, days))

	const nShards = 4
	out := b.TempDir()
	if _, err := evstore.SplitStore(dir, nShards, out); err != nil {
		b.Fatal(err)
	}
	shardDirs := make([]string, nShards)
	for i := range shardDirs {
		shardDirs[i] = out + "/" + evstore.ShardDirName(i)
	}
	_, coord, _ := startCluster(b, shardDirs)

	single, _, err := serve.New(context.Background(), serve.Config{Dir: dir})
	if err != nil {
		b.Fatal(err)
	}

	// The window spans the whole archive, so the warm path merges every
	// partition's snapshot and the cold path scans every event.
	window := evstore.TimeRange{From: testDay, To: testDay.Add(days * 24 * time.Hour)}
	warm := serve.QuerySpec{Kind: serve.KindTable2, Window: window}
	cold := warm
	cold.PeerAS = firstPeerAS(b, dir)

	// vary keeps every query a cache miss by moving the window end one
	// nanosecond per call; the counter survives b.N re-runs so repeated
	// timing rounds can't drift into the answer cache.
	var miss int64
	vary := func(spec serve.QuerySpec) serve.QuerySpec {
		miss++
		spec.Window.To = spec.Window.To.Add(time.Duration(miss))
		return spec
	}
	bench := func(s *serve.Server, spec serve.QuerySpec, uncached bool) func(*testing.B) {
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sp := spec
				if uncached {
					sp = vary(spec)
				}
				if _, err := s.Answer(context.Background(), sp); err != nil {
					b.Fatal(err)
				}
			}
		}
	}

	b.Run("single-warm", bench(single, warm, true))
	b.Run("coordinator-warm-4shard", bench(coord, warm, true))
	b.Run("single-cold-scan", bench(single, cold, true))
	b.Run("coordinator-cold-scan-4shard", bench(coord, cold, true))
	b.Run("single-cached", bench(single, warm, false))
	b.Run("coordinator-cached", bench(coord, warm, false))
}
