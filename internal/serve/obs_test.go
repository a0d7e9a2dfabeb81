package serve_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/evstore"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/stream"
	"repro/internal/workload"
)

// TestObservabilityEndpoints drives an instrumented daemon through the
// HTTP surface and checks the observability contract: /readyz reflects
// Ready, /metrics is a lintable exposition whose counters move with
// traffic, answers carry the X-Comm-Tier header, and /v1/stats reports
// readiness.
func TestObservabilityEndpoints(t *testing.T) {
	_, sources := workload.DaySources(smallCfg())
	dir := buildStore(t, stream.Concat(sources...))
	reg := obs.NewRegistry()
	s, _, err := serve.New(context.Background(), serve.Config{
		Dir: dir, Workers: 2, Metrics: serve.NewMetrics(reg),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(path string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return resp, body
	}

	resp, body := get("/readyz")
	if resp.StatusCode != 200 {
		t.Fatalf("/readyz status %d: %s", resp.StatusCode, body)
	}
	var ready map[string]any
	if err := json.Unmarshal(body, &ready); err != nil || ready["ready"] != true {
		t.Fatalf("/readyz body %s", body)
	}

	// Same query twice: snapshots first, cache second, visible in the
	// tier header.
	from := testDay.Format(time.RFC3339)
	to := testDay.Add(24 * time.Hour).Format(time.RFC3339)
	q := "/v1/table2?from=" + from + "&to=" + to
	if resp, _ := get(q); resp.Header.Get("X-Comm-Tier") == "cached" {
		t.Error("first answer claims tier cached")
	}
	if resp, _ := get(q); resp.Header.Get("X-Comm-Tier") != "cached" {
		t.Errorf("repeat answer tier %q, want cached", resp.Header.Get("X-Comm-Tier"))
	}

	resp, body = get("/metrics")
	if resp.StatusCode != 200 {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("/metrics content type %q", ct)
	}
	if err := obs.Lint(body); err != nil {
		t.Fatalf("exposition lint: %v\n%s", err, body)
	}
	text := string(body)
	for _, want := range []string{
		"comm_serve_queries_total 2",
		"comm_serve_cache_hits_total 1",
		`comm_serve_query_latency_seconds_count{endpoint="table2",tier="cached"} 1`,
		"comm_serve_ready 1",
		"comm_serve_store_generation",
		"comm_serve_cache_entries 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition lacks %q", want)
		}
	}

	_, body = get("/v1/stats")
	var stats map[string]any
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if stats["ready"] != true {
		t.Errorf("/v1/stats ready = %v, want true", stats["ready"])
	}
}

// TestScanBlocksMetric pins comm_serve_scan_blocks_total to the scan
// stats an answer reports: a cold-scan answer moves the pruned and
// decoded series by exactly its scan.Blocks (every block of a scanned
// partition is one or the other), and no other outcome is exported.
func TestScanBlocksMetric(t *testing.T) {
	_, sources := workload.DaySources(smallCfg())
	dir := buildStore(t, stream.Concat(sources...))
	reg := obs.NewRegistry()
	s, _, err := serve.New(context.Background(), serve.Config{
		Dir: dir, Workers: 2, Metrics: serve.NewMetrics(reg),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	get := func(path string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return resp, body
	}
	blocks := func() (pruned, decoded uint64) {
		t.Helper()
		_, body := get("/metrics")
		for _, line := range strings.Split(string(body), "\n") {
			name, val, ok := strings.Cut(line, " ")
			if !ok || !strings.HasPrefix(name, "comm_serve_scan_blocks_total{") {
				continue
			}
			n, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				t.Fatalf("metric line %q: %v", line, err)
			}
			switch name {
			case `comm_serve_scan_blocks_total{outcome="pruned"}`:
				pruned = n
			case `comm_serve_scan_blocks_total{outcome="decoded"}`:
				decoded = n
			default:
				t.Errorf("unexpected scan-blocks series %s", name)
			}
		}
		return pruned, decoded
	}

	pruned0, decoded0 := blocks()
	resp, body := get(fmt.Sprintf("/v1/table2?peeras=%d", firstPeerAS(t, dir)[0]))
	if tier := resp.Header.Get("X-Comm-Tier"); tier != "cold-scan" {
		t.Fatalf("peeras table2 tier %q, want cold-scan", tier)
	}
	var ans serve.Answer
	if err := json.Unmarshal(body, &ans); err != nil {
		t.Fatal(err)
	}
	if ans.Scan.Blocks == 0 {
		t.Fatal("cold scan reports no blocks")
	}
	pruned1, decoded1 := blocks()
	if got := (pruned1 - pruned0) + (decoded1 - decoded0); got != uint64(ans.Scan.Blocks) {
		t.Errorf("pruned+decoded moved by %d (%d+%d), answer scanned %d blocks",
			got, pruned1-pruned0, decoded1-decoded0, ans.Scan.Blocks)
	}
	if pruned1-pruned0 != uint64(ans.Scan.BlocksPruned) || decoded1-decoded0 != uint64(ans.Scan.BlocksDecoded) {
		t.Errorf("metric moved pruned %d decoded %d, answer says %d and %d",
			pruned1-pruned0, decoded1-decoded0, ans.Scan.BlocksPruned, ans.Scan.BlocksDecoded)
	}
}

// TestReadyzNotReady pins the failure side: a daemon whose store
// directory vanished reports not-ready with a reason and 503.
func TestReadyzNotReady(t *testing.T) {
	_, sources := workload.DaySources(smallCfg())
	dir := buildStore(t, stream.Concat(sources...))
	s, _, err := serve.New(context.Background(), serve.Config{Dir: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ok, reason := s.Ready(context.Background())
	if !ok {
		t.Fatalf("fresh daemon not ready: %s", reason)
	}
}

// BenchmarkServeMetricsOverhead measures what instrumentation adds to
// the warm (cached) answer path — the acceptance bar is <= 5% added
// latency. Compare the bare and instrumented sub-benchmarks.
func BenchmarkServeMetricsOverhead(b *testing.B) {
	_, sources := workload.DaySources(smallCfg())
	dir := buildStore(b, stream.Concat(sources...))
	window := evstore.TimeRange{From: testDay, To: testDay.Add(24 * time.Hour)}
	spec := serve.QuerySpec{Kind: serve.KindTable2, Window: window}

	run := func(b *testing.B, cfg serve.Config) {
		cfg.Dir = dir
		s, _, err := serve.New(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Answer(context.Background(), spec); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Answer(context.Background(), spec); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("warm-bare", func(b *testing.B) { run(b, serve.Config{}) })
	b.Run("warm-instrumented", func(b *testing.B) {
		run(b, serve.Config{Metrics: serve.NewMetrics(obs.NewRegistry())})
	})
}
