package main

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
	"time"
)

func TestSameSeedSameRequests(t *testing.T) {
	d := generate(7, true)
	paths := func(workload string, seed int64) []string {
		gen := newGenerator(workload, "closed", seed, d)
		out := make([]string, 300)
		for i := range out {
			out[i] = gen.Next().path
		}
		return out
	}
	for _, w := range workloadNames {
		a, b, c := paths(w, 1), paths(w, 1), paths(w, 2)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed gave different request sequences", w)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: different seeds gave the same request sequence", w)
		}
	}
	// Phases of one run draw from independent streams.
	warm := newGenerator(wlWindow, "warm", 1, d).Next().path
	if warm == paths(wlWindow, 1)[0] {
		t.Errorf("warm-up and measured phase start with the same request %s", warm)
	}
}

func TestSameSeedSameChurnStream(t *testing.T) {
	stream := func(seed int64) []string {
		f := newChurnFeed(seed, nil)
		out := make([]string, 500)
		for i := range out {
			e := f.event(time.Time{})
			out[i] = e.PeerAddr.String() + " " + e.Prefix.String() + " " + e.ASPath.String() + " " + e.Communities.String()
		}
		return out
	}
	if !reflect.DeepEqual(stream(1), stream(1)) {
		t.Error("same seed gave different churn streams")
	}
	if reflect.DeepEqual(stream(1), stream(2)) {
		t.Error("different seeds gave the same churn stream")
	}
}

func TestHotKeysAreFixed(t *testing.T) {
	a, b := generate(1, true), generate(2, true)
	ka, kb := hotKeys(a), hotKeys(b)
	if len(ka) != 64 {
		t.Fatalf("hot has %d keys, want 64", len(ka))
	}
	for i := range ka {
		if ka[i].path != kb[i].path {
			t.Fatalf("key %d depends on the seed: %s vs %s", i, ka[i].path, kb[i].path)
		}
	}
	ck := churnKeys(a)
	live := 0
	for i, k := range ck {
		if k.live {
			live++
			if frozenUnderChurn(k) {
				t.Errorf("the growing key %s is classed as frozen", k.path)
			}
		} else if k.path != ka[i].path {
			t.Errorf("churn key %d differs from hot's: %s", i, k.path)
		}
	}
	if live != 1 {
		t.Errorf("churn has %d growing keys, want 1", live)
	}
}

func TestPercentileRule(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		idx  int
	}{
		{2000, 0.99, 1979}, // p99 has 20 beyond it
		{1100, 0.99, 1088}, // 11 beyond
		{1000, 0.99, 989},  // exactly 10 beyond
		{500, 0.99, 489},   // p99 would leave 5: step down to the one with 10
		{500, 0.50, 249},
		{15, 0.99, 4},
		{5, 0.99, 0},
		{1, 0.50, 0},
	}
	for _, c := range cases {
		idx, pct := tailIndex(c.n, c.want)
		if idx != c.idx {
			t.Errorf("tailIndex(%d, %v) = %d, want %d", c.n, c.want, idx, c.idx)
		}
		if beyond := c.n - 1 - idx; c.n > minBeyond && beyond < minBeyond {
			t.Errorf("tailIndex(%d, %v) leaves %d samples beyond", c.n, c.want, beyond)
		}
		if want := float64(idx+1) / float64(c.n); pct != want {
			t.Errorf("tailIndex(%d, %v) percentile %v, want %v", c.n, c.want, pct, want)
		}
	}
	d := make([]time.Duration, 500)
	for i := range d {
		d[len(d)-1-i] = time.Duration(i+1) * time.Millisecond // descending: summarize must sort
	}
	s := summarize(d)
	if s.N != 500 || s.P50Ms != 250 || s.TailMs != 490 || math.Abs(s.TailPct-98) > 1e-9 {
		t.Errorf("summarize = %+v, want n=500 p50=250 tail=490 at p98", s)
	}
}

// A server that stalls for 100 ms must show in the open loop's tail:
// every arrival that came due during the stall is charged its wait,
// although only two requests (one per connection) were in flight.
func TestOpenLoopChargesStallToDueTime(t *testing.T) {
	var start time.Time
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if since := time.Since(start); since > 300*time.Millisecond && since < 400*time.Millisecond {
			time.Sleep(400*time.Millisecond - since)
		}
		w.Write([]byte("{}"))
	}))
	defer srv.Close()
	d := generate(1, true)
	ld := &loader{base: srv.URL, conns: connections}
	start = time.Now()
	res := ld.open(newGenerator(wlHot, "open", 1, d), 500, time.Second, 1)
	if sent := float64(len(res.samples)) / float64(res.scheduled); sent < 0.98 {
		t.Fatalf("sent %.3f of the schedule", sent)
	}
	inFlight := 0
	for _, s := range res.samples {
		if s.done-s.sent > 80*time.Millisecond {
			inFlight++
		}
	}
	if inFlight > connections {
		t.Errorf("%d requests were in flight through the stall, want at most %d", inFlight, connections)
	}
	// About 50 of the 500 arrivals came due during the stall, waiting
	// 0 to 100 ms; the tail (10 samples beyond) must sit among them.
	lat := summarize(res.latencies())
	if lat.TailMs < 50 {
		t.Errorf("p%.3g from due time = %.1f ms: the 100 ms stall is hidden", lat.TailPct, lat.TailMs)
	}
	// Timed from the send instead, the same percentile sees nothing.
	var fromSend []time.Duration
	for _, s := range res.samples {
		fromSend = append(fromSend, s.done-s.sent)
	}
	if omitted := summarize(fromSend); omitted.TailMs > 20 {
		t.Errorf("p%.3g from send time = %.1f ms: the fake server is slower than the test assumes", omitted.TailPct, omitted.TailMs)
	}
	if lag := summarize(res.lags()); lag.TailMs < 50 {
		t.Errorf("generator lag tail = %.1f ms, want the stall's backlog", lag.TailMs)
	}
}

func TestSpanSelfTime(t *testing.T) {
	at := func(ms int) time.Time { return time.Unix(100, 0).Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{Name: spanRequest, Req: 1, Start: at(0), End: at(100)},
		{Name: spanHandler, Req: 1, Parent: spanRequest, Start: at(10), End: at(70)},
		{Name: spanState, Req: 1, Parent: spanHandler, Start: at(20), End: at(40)},
		{Name: spanState, Req: 1, Parent: spanHandler, Start: at(30), End: at(50)},   // overlaps: counted once
		{Name: spanState, Req: 1, Parent: spanHandler, Start: at(65), End: at(90)},   // clipped to its parent
		{Name: spanHandler, Req: 2, Parent: spanRequest, Start: at(0), End: at(100)}, // another request
		{Name: spanRefresh, Start: at(0), End: at(30)},                               // a root
	}
	self := selfTimes(spans)
	want := map[string][]time.Duration{
		spanRequest: {40 * time.Millisecond},                         // 100 - handler's 60
		spanHandler: {25 * time.Millisecond, 100 * time.Millisecond}, // 60 - (30 + 5)
		spanState:   {20 * time.Millisecond, 20 * time.Millisecond, 25 * time.Millisecond},
		spanRefresh: {30 * time.Millisecond},
	}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v\nwant %v", self, want)
	}
}

func TestValidityGates(t *testing.T) {
	cases := []struct {
		workload string
		layers   map[string]float64
		problems int
	}{
		{wlHot, map[string]float64{"serve.tier_cached_ratio": 0.995}, 0},
		{wlHot, map[string]float64{"serve.tier_cached_ratio": 0.98}, 1},
		{wlWindow, map[string]float64{"serve.cache_hit_ratio": 0.005}, 0},
		{wlWindow, map[string]float64{"serve.cache_hit_ratio": 0.02}, 1},
		{wlFilter, map[string]float64{"serve.cache_hit_ratio": 0, "serve.tier_cold_scan_ratio": 1}, 0},
		{wlFilter, map[string]float64{"serve.cache_hit_ratio": 0.5, "serve.tier_cold_scan_ratio": 0.9}, 2},
		{wlChurn, map[string]float64{"serve.refresh_count": 20}, 0},
		{wlChurn, map[string]float64{"serve.refresh_count": 10}, 1},
	}
	for _, c := range cases {
		if got := gate(c.workload, c.layers, 35); len(got) != c.problems {
			t.Errorf("gate(%s, %v) = %v, want %d problems", c.workload, c.layers, got, c.problems)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q := newQuartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q.Q1 != 2.75 || q.Median != 5.5 || q.Q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q.Q1, q.Median, q.Q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q = newQuartiles([]float64{4, 1, 2})
	if q.Q1 != 1 || q.Median != 2 || q.Q3 != 4 {
		t.Errorf("quartiles = %v %v %v, want 1 2 4", q.Q1, q.Median, q.Q3)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "latency_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "throughput_rps", Better: "higher", Bound: 0.10}
	errs := metricDef{Name: "error_ratio", Better: "lower", AbsBound: 0.001}
	steady := func(v float64) quartiles { return newQuartiles([]float64{v * 0.99, v, v * 1.01, v, v}) }
	noisy := func(v float64) quartiles { return newQuartiles([]float64{v * 0.7, v * 0.9, v, v * 1.1, v * 1.3}) }
	cases := []struct {
		m    metricDef
		a, b quartiles
		want string
	}{
		{lower, steady(10), steady(10.5), "same"},
		{lower, steady(10), steady(12), "worse"},
		{lower, steady(10), steady(8), "better"},
		{higher, steady(100), steady(80), "worse"},
		{higher, steady(100), steady(120), "better"},
		{lower, noisy(10), noisy(10.5), "unresolved"},
		{lower, noisy(10), noisy(30), "worse"},     // every run of B is slower than every run of A
		{higher, noisy(100), noisy(300), "better"}, // every run of B beats every run of A
		{errs, steady(0), steady(0), "same"},
		{errs, steady(0), newQuartiles([]float64{0.01, 0.01, 0.01}), "worse"},
	}
	for _, c := range cases {
		if got := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("verdict(%s, %v -> %v) = %s, want %s", c.m.Name, c.a.Median, c.b.Median, got, c.want)
		}
	}
}

// BENCHMARK.json is written by hand once; this keeps it equal to the
// catalogue and inside the builder contract's limits.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var got, want any
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	spec := benchmarkSpec()
	wantData, _ := json.Marshal(spec)
	json.Unmarshal(wantData, &want)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from the catalogue; regenerate with: go run -C bench . -print-benchmark-json > BENCHMARK.json")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	checkName := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for _, w := range spec.Workloads {
		checkName(w.Name)
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, list := range [][]benchMetric{spec.EndToEnd, spec.PerLayer} {
		for _, m := range list {
			checkName(m.Name)
			if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
				t.Errorf("metric %s: unit %q better %q", m.Name, m.Unit, m.Better)
			}
			if m.Bound != nil && (*m.Bound <= 0 || *m.Bound > 0.25) {
				t.Errorf("metric %s: bound %v", m.Name, *m.Bound)
			}
			setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" && m.Bound != nil)
		}
	}
	if !setup {
		t.Error("no setup_s end-to-end metric")
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	runs := 4 + 22*len(spec.Workloads)
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 || runs*(spec.RunSeconds+20) > 3420 {
		t.Errorf("run_seconds %d: %d runs would not fit in 3420 s", spec.RunSeconds, runs)
	}
}

// The -quick pass: all four workloads end to end against the real
// daemon, plus the traced run and the direct-call pass, on a shrunken
// store. It checks that every metric of the catalogue is produced, that
// answers verify, and that nothing is left behind.
func TestQuickPass(t *testing.T) {
	_, repoDir, err := moduleDirs()
	if err != nil {
		t.Fatal(err)
	}
	workDirs := func() map[string]bool {
		dirs, _ := filepath.Glob(filepath.Join(repoDir, ".bench_build", "run-*"))
		set := make(map[string]bool)
		for _, d := range dirs {
			set[d] = true
		}
		return set
	}
	before := workDirs() // another invocation may be running beside the test
	clean := &cleanups{}
	spans := t.TempDir()
	opts := options{seed: 3, seconds: 1, trace: true, quick: true}
	rf, err := execute(clean, opts, workloadNames, 1, spans)
	clean.run()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadNames {
		res := rf.Runs[0][w]
		for _, p := range res.Problems {
			t.Errorf("%s: %s", w, p)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", w, res.Correct, res.Attempted, res.Failed)
		}
		for _, m := range endToEnd {
			if _, ok := res.EndToEnd[m.Name]; ok != m.appliesTo(w) {
				t.Errorf("%s: end-to-end metric %s present=%v", w, m.Name, ok)
			}
		}
		for _, m := range perLayer {
			if _, ok := res.Layers[m.Name]; !ok && m.appliesTo(w) {
				t.Errorf("%s: per-layer metric %s missing", w, m.Name)
			}
		}
		for name := range res.Layers {
			if _, ok := findMetric(name); !ok {
				t.Errorf("%s: metric %s is not in the catalogue", w, name)
			}
		}
		if res.Layers["bench.oracle_checked"] == 0 {
			t.Errorf("%s: the oracle checked nothing", w)
		}
		for _, traced := range []bool{false, true} {
			if _, err := driverLine(w, res, traced); err != nil {
				t.Errorf("%s: driver line: %v", w, err)
			}
		}
		if fi, err := os.Stat(filepath.Join(spans, w+".jsonl")); err != nil || fi.Size() == 0 {
			t.Errorf("%s: span file: %v", w, err)
		}
	}
	for d := range workDirs() {
		if !before[d] {
			t.Errorf("work directory left behind: %s", d)
		}
	}
}

func findMetric(name string) (metricDef, bool) {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range list {
			if m.Name == name {
				return m, true
			}
		}
	}
	return metricDef{}, false
}
