package obs

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// fullRegistry exercises every instrument type.
func fullRegistry() *Registry {
	r := NewRegistry()
	c := r.Counter("test_requests_total", "Total requests.")
	c.Add(41)
	c.Inc()
	r.CounterFunc("test_sampled_total", "Sampled cumulative value.", func() uint64 { return 7 })
	cv := r.CounterVec("test_by_kind_total", "Per-kind totals.", "kind", "tier")
	cv.With("table2", "cached").Add(3)
	cv.With("table2", "cold-scan").Inc()
	cv.With("figure2", "snapshot-merge").Add(9)
	g := r.Gauge("test_queue_depth", "Current queue depth.")
	g.Set(12)
	g.Add(-2)
	r.GaugeFunc("test_uptime_seconds", "Sampled gauge.", func() float64 { return 1.5 })
	gv := r.GaugeVec("test_feeds", "Feeds by state.", "state")
	gv.With("running").Set(3)
	gv.With("failed").Set(0)
	h := r.Histogram("test_latency_seconds", "Latency.", nil)
	h.Observe(0.0002)
	h.Observe(0.004)
	h.Observe(42) // beyond the last bound: lands only in +Inf
	hv := r.HistogramVec("test_by_op_seconds", "Per-op latency.", []float64{0.001, 0.01, 0.1}, "op")
	hv.With("warm").Observe(0.0005)
	hv.With("cold").Observe(0.05)
	return r
}

func scrape(t testing.TB, r *Registry) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	return buf.Bytes()
}

// TestExpositionLint is the format's own gate: a registry using every
// instrument type renders valid Prometheus text with no duplicate
// series, headers before samples, and consistent histograms.
func TestExpositionLint(t *testing.T) {
	out := scrape(t, fullRegistry())
	if err := Lint(out); err != nil {
		t.Fatalf("lint: %v\nexposition:\n%s", err, out)
	}
	for _, want := range []string{
		"test_requests_total 42",
		"test_sampled_total 7",
		`test_by_kind_total{kind="table2",tier="cached"} 3`,
		"test_queue_depth 10",
		"test_uptime_seconds 1.5",
		`test_feeds{state="running"} 3`,
		`test_latency_seconds_bucket{le="0.00025"} 1`,
		`test_latency_seconds_bucket{le="+Inf"} 3`,
		"test_latency_seconds_count 3",
		`test_by_op_seconds_bucket{op="cold",le="0.1"} 1`,
	} {
		if !strings.Contains(string(out), want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
}

// TestExpositionDeterministic pins that two scrapes of a quiet
// registry are byte-identical (sorted families and series).
func TestExpositionDeterministic(t *testing.T) {
	r := fullRegistry()
	a, b := scrape(t, r), scrape(t, r)
	if !bytes.Equal(a, b) {
		t.Fatalf("scrapes differ:\n%s\n---\n%s", a, b)
	}
}

// TestLintCatchesBadExpositions drives the linter with hand-built
// violations — the linter is itself load-bearing for the format tests.
func TestLintCatchesBadExpositions(t *testing.T) {
	cases := []struct {
		name string
		text string
	}{
		{"duplicate series", "# HELP a h\n# TYPE a counter\na 1\na 2\n"},
		{"series before type", "a 1\n"},
		{"series before help", "# TYPE a counter\na 1\n"},
		{"malformed value", "# HELP a h\n# TYPE a counter\na one\n"},
		{"non-monotone buckets", "# HELP h h\n# TYPE h histogram\n" +
			`h_bucket{le="0.1"} 5` + "\n" + `h_bucket{le="0.2"} 3` + "\n" +
			`h_bucket{le="+Inf"} 5` + "\nh_sum 1\nh_count 5\n"},
		{"inf mismatch", "# HELP h h\n# TYPE h histogram\n" +
			`h_bucket{le="0.1"} 2` + "\n" + `h_bucket{le="+Inf"} 2` + "\nh_sum 1\nh_count 3\n"},
		{"missing inf", "# HELP h h\n# TYPE h histogram\n" +
			`h_bucket{le="0.1"} 2` + "\nh_sum 1\nh_count 2\n"},
	}
	for _, tc := range cases {
		if err := Lint([]byte(tc.text)); err == nil {
			t.Errorf("%s: lint accepted invalid exposition", tc.name)
		}
	}
	if err := Lint(scrape(t, fullRegistry())); err != nil {
		t.Errorf("lint rejected valid exposition: %v", err)
	}
}

// TestHistogramBucketDeterminism pins the shared latency bucket layout
// exactly: recorded histories and cross-daemon dashboards depend on
// these bounds never drifting silently.
func TestHistogramBucketDeterminism(t *testing.T) {
	want := []float64{
		0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
		0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
	}
	if !reflect.DeepEqual(LatencyBuckets, want) {
		t.Fatalf("LatencyBuckets drifted:\n got %v\nwant %v", LatencyBuckets, want)
	}
	// The rendered le= labels are a function of the bounds alone.
	r := NewRegistry()
	h := r.Histogram("pin_seconds", "pin", nil)
	h.Observe(0.003)
	out := string(scrape(t, r))
	for _, b := range want {
		if !strings.Contains(out, fmt.Sprintf("le=%q", formatFloat(b))) {
			t.Errorf("bucket le=%v missing from exposition", b)
		}
	}
}

// TestHistogramSemantics checks bucket assignment edges: a value equal
// to a bound lands in that bucket (le = less-or-equal).
func TestHistogramSemantics(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h_seconds", "h", []float64{1, 2, 4})
	h.Observe(1)   // le="1"
	h.Observe(1.5) // le="2"
	h.Observe(4)   // le="4"
	h.Observe(9)   // +Inf only
	out := string(scrape(t, r))
	for _, want := range []string{
		`h_seconds_bucket{le="1"} 1`,
		`h_seconds_bucket{le="2"} 2`,
		`h_seconds_bucket{le="4"} 3`,
		`h_seconds_bucket{le="+Inf"} 4`,
		"h_seconds_count 4",
		"h_seconds_sum 15.5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

// TestConcurrentScrape hammers every instrument type from many
// goroutines while scraping — the race detector's view of the hot
// paths, plus the invariant that every scrape lints mid-flight.
func TestConcurrentScrape(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "c")
	cv := r.CounterVec("cv_total", "cv", "k")
	g := r.Gauge("g", "g")
	h := r.Histogram("h_seconds", "h", nil)
	hv := r.HistogramVec("hv_seconds", "hv", nil, "op")
	r.GaugeFunc("gf", "gf", func() float64 { return g.Value() })

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Inc()
				cv.With(fmt.Sprintf("k%d", i%3)).Add(2)
				g.Set(float64(i))
				h.Observe(float64(i%100) / 1000)
				hv.With([]string{"warm", "cold"}[i%2]).Observe(0.001 * float64(w+1))
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		out := scrape(t, r)
		if err := Lint(out); err != nil {
			close(stop)
			wg.Wait()
			t.Fatalf("scrape %d failed lint under concurrency: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	out := scrape(t, r)
	if err := Lint(out); err != nil {
		t.Fatalf("final lint: %v", err)
	}
	if c.Value() == 0 {
		t.Fatal("counter never advanced")
	}
}

// TestVecChildIdentity pins that With returns the same child for the
// same label values — callers may cache the pointer.
func TestVecChildIdentity(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("x_total", "x", "a")
	if cv.With("1") != cv.With("1") {
		t.Fatal("With returned distinct children for identical labels")
	}
	cv.With("1").Add(5)
	if got := cv.With("1").Value(); got != 5 {
		t.Fatalf("child value = %d, want 5", got)
	}
}

// TestDuplicateRegistrationPanics pins fail-at-startup semantics.
func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup_total", "a")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.Counter("dup_total", "b")
}

// TestLabelEscaping pins that hostile label values cannot corrupt the
// exposition.
func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	gv := r.GaugeVec("esc", "esc", "v")
	gv.With("a\"b\\c\nd").Set(1)
	out := scrape(t, r)
	if err := Lint(out); err != nil {
		t.Fatalf("lint after hostile label: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), `esc{v="a\"b\\c\nd"} 1`) {
		t.Fatalf("escaping wrong:\n%s", out)
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		0: "0", 1: "1", 42: "42", -3: "-3",
		1.5: "1.5", 0.0001: "0.0001", 0.00025: "0.00025",
		math.Inf(1): "+Inf",
	}
	for in, want := range cases {
		if got := formatFloat(in); got != want {
			t.Errorf("formatFloat(%v) = %q, want %q", in, got, want)
		}
	}
}

// BenchmarkMetricsHotPath measures the per-event instrumentation cost:
// one counter increment, one vec lookup+increment, one histogram
// observation — what the serving hot path pays per request.
func BenchmarkMetricsHotPath(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench_total", "b")
	hv := r.HistogramVec("bench_seconds", "b", nil, "endpoint", "tier")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
		hv.With("table2", "cached").Observe(0.0005)
	}
}
