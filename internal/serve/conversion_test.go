package serve_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/classify"
	"repro/internal/evstore"
	"repro/internal/serve"
	"repro/internal/stream"
	"repro/internal/workload"
)

// conversions counts the Snapshot and Restore calls made on the
// analyzer sets one backend builds: the points where state changes
// between accumulators and bytes.
type conversions struct {
	sets, snapshots, restores atomic.Int64
}

// countConversions hooks b's per-spec analyzer builder so every set it
// builds counts into the returned conversions. Fresh copies (the
// planner's per-worker accumulators, which restore sidecars) are the
// plain analyzers: only what the backend hands up is counted.
func countConversions(b serve.Backend) *conversions {
	c := new(conversions)
	serve.SetAnalyzers(b, func(spec serve.QuerySpec) ([]evstore.NamedAnalyzer, error) {
		named, err := serve.StateAnalyzers(spec)
		if err != nil {
			return nil, err
		}
		c.sets.Add(1)
		for i := range named {
			named[i].Proto = countingAnalyzer{Analyzer: named[i].Proto, c: c}
		}
		return named, nil
	})
	return c
}

func (c *conversions) check(t *testing.T, what string, snapshots, restores int64) {
	t.Helper()
	if s, r := c.snapshots.Load(), c.restores.Load(); s != snapshots || r != restores {
		t.Errorf("%s: %d Snapshot and %d Restore calls, want %d and %d", what, s, r, snapshots, restores)
	}
}

type countingAnalyzer struct {
	classify.Analyzer
	c *conversions
}

func (a countingAnalyzer) Snapshot(dst []byte) []byte {
	a.c.snapshots.Add(1)
	return a.Analyzer.Snapshot(dst)
}

func (a countingAnalyzer) Restore(src []byte) error {
	a.c.restores.Add(1)
	return a.Analyzer.Restore(src)
}

func (a countingAnalyzer) Merge(o classify.Analyzer) {
	if oc, ok := o.(countingAnalyzer); ok {
		o = oc.Analyzer
	}
	a.Analyzer.Merge(o)
}

// TestStateConversions pins where analyzer state changes form: a
// single-node answer neither encodes nor decodes it, a shard's
// /v1/state compute encodes each key once and a cache hit not at all,
// and a coordinator decodes each key once per answering shard and never
// re-encodes what it merged.
func TestStateConversions(t *testing.T) {
	_, sources := workload.DaySources(smallCfg())
	dir := buildStore(t, stream.Concat(sources...))
	ctx := context.Background()
	paths := []string{"/v1/table1", "/v1/table2", "/v1/infer/peers"}

	lb, _, err := serve.NewLocalBackend(ctx, serve.Config{Dir: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	single := countConversions(lb)
	s, _, err := serve.New(ctx, serve.Config{Backend: lb})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	want := map[string]any{}
	for _, p := range paths {
		want[p] = getAnswer(t, ts.URL, p)["data"]
	}
	if n := single.sets.Load(); n != int64(len(paths)) {
		t.Fatalf("%d analyzer sets built for %d answers", n, len(paths))
	}
	single.check(t, "single-node answers", 0, 0)

	// Every kind has one key, so one Snapshot per /v1/state compute.
	for _, kind := range []string{serve.KindTable2, serve.KindPeers} {
		spec := serve.QuerySpec{Kind: kind}
		postState(t, ts.URL, spec)
		single.check(t, "shard compute of "+kind, 1, 0)
		postState(t, ts.URL, spec)
		single.check(t, "shard cache hit of "+kind, 1, 0)
		single.snapshots.Store(0)
	}

	// Two HTTP shards, one collector each, under a coordinator.
	out := t.TempDir()
	shardOf := map[string]int{}
	if _, err := evstore.SplitStoreFunc(dir, 2, out, func(col string) int {
		if _, ok := shardOf[col]; !ok {
			shardOf[col] = len(shardOf) % 2
		}
		return shardOf[col]
	}); err != nil {
		t.Fatal(err)
	}
	remotes := make([]serve.Backend, 2)
	shardConv := make([]*conversions, 2)
	coordConv := make([]*conversions, 2)
	for i := range remotes {
		lb, _, err := serve.NewLocalBackend(ctx, serve.Config{Dir: out + "/" + evstore.ShardDirName(i), Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		shardConv[i] = countConversions(lb)
		shard, _, err := serve.New(ctx, serve.Config{Backend: lb})
		if err != nil {
			t.Fatal(err)
		}
		sts := httptest.NewServer(shard.StateHandler())
		defer sts.Close()
		remotes[i] = serve.NewRemoteBackend(sts.URL)
		coordConv[i] = countConversions(remotes[i])
	}
	coord, _, err := serve.New(ctx, serve.Config{Backend: serve.NewCoordinator(remotes...)})
	if err != nil {
		t.Fatal(err)
	}
	cts := httptest.NewServer(coord.Handler())
	defer cts.Close()
	for _, p := range paths {
		ans := getAnswer(t, cts.URL, p)
		if shards := ans["shards"].([]any); len(shards) != 2 || ans["partial"] == true {
			t.Fatalf("%s: coordinator provenance %v", p, shards)
		}
		if !reflect.DeepEqual(ans["data"], want[p]) {
			t.Errorf("%s: coordinator data differs from the single-node answer", p)
		}
	}
	n := int64(len(paths))
	for i := range remotes {
		shardConv[i].check(t, "shard side of coordinator answers", n, 0)
		coordConv[i].check(t, "coordinator side of coordinator answers", 0, n)
	}
}

// TestCoordinatorHungShardHealth: a shard that accepts connections but
// never answers /healthz costs a coordinator one bounded probe, not its
// Refresh, Health or readiness: the healthy shard's generation is still
// recorded and the hung one reads unhealthy.
func TestCoordinatorHungShardHealth(t *testing.T) {
	const bound = 200 * time.Millisecond
	t.Cleanup(serve.SetHealthTimeout(bound))
	release := make(chan struct{})
	hung := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	t.Cleanup(hung.Close)
	t.Cleanup(func() { close(release) }) // before Close, which waits for the handler
	healthy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(serve.BackendHealth{OK: true, Generation: 42, Partitions: 3, Snapshotted: 3})
	}))
	t.Cleanup(healthy.Close)
	coord := serve.NewCoordinator(serve.NewRemoteBackend(hung.URL), serve.NewRemoteBackend(healthy.URL))
	ctx := context.Background()

	// within runs f under the test's own deadline, so a probe that never
	// returns fails the test instead of hanging it.
	within := func(what string, f func()) {
		t.Helper()
		start := time.Now()
		done := make(chan struct{})
		go func() {
			defer close(done)
			f()
		}()
		select {
		case <-done:
		case <-time.After(10 * bound):
			t.Fatalf("%s still blocked on the hung shard after %v", what, 10*bound)
		}
		if d := time.Since(start); d > 5*bound {
			t.Errorf("%s took %v with health probes bounded by %v", what, d, bound)
		}
	}

	var rsErr error
	within("Refresh", func() { _, rsErr = coord.Refresh(ctx) })
	if rsErr != nil {
		t.Fatalf("Refresh with one healthy shard: %v", rsErr)
	}
	if gens := serve.ShardGenerations(coord); gens[healthy.URL] != 42 || gens[hung.URL] != 0 {
		t.Errorf("shard generations after Refresh: %v, want %s at 42 and %s unknown", gens, healthy.URL, hung.URL)
	}
	var h serve.BackendHealth
	within("Health", func() { h, _ = coord.Health(ctx) })
	if h.OK || len(h.Shards) != 2 || h.Shards[0].OK || !h.Shards[1].OK || h.Shards[1].Generation != 42 {
		t.Errorf("Health: %+v, want the hung shard unhealthy and the other at generation 42", h)
	}
	var srv *serve.Server
	within("New", func() {
		var err error
		if srv, _, err = serve.New(ctx, serve.Config{Backend: coord}); err != nil {
			t.Error(err)
		}
	})
	if srv == nil {
		t.FailNow()
	}
	var ready bool
	within("Ready", func() { ready, _ = srv.Ready(ctx) })
	if !ready {
		t.Error("coordinator with one healthy shard is not ready")
	}
}
