package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"text/tabwriter"
)

// metricDef describes one metric of the benchmark. The catalogue below
// is the single definition: the printed tables, BENCHMARK.json (checked
// by a self-test) and -compare all read it.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"` // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before -compare calls it worse. AbsBound, when
	// set, is an absolute allowance instead (error_ratio).
	Bound    float64 `json:"bound,omitempty"`
	AbsBound float64 `json:"abs_bound,omitempty"`
	// Gated end-to-end metrics exist on every workload and are never 0,
	// so the driver can bound them; they form BENCHMARK.json's
	// end_to_end. The others (one workload only, or 0 when healthy) are
	// carried in its per_layer list.
	Gated     bool     `json:"gated,omitempty"`
	Workloads []string `json:"workloads,omitempty"` // nil: all
	// Moves names the (end-to-end metric @ workload) pairs a layer
	// metric should move: written down before anything was measured.
	Moves string `json:"moves,omitempty"`
	Def   string `json:"definition"`
}

var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Gated: true,
		Def: "ingest plane start to /readyz 200: ingest + sidecar build + open; median of repeated set-ups"},
	{Name: "throughput_rps", Unit: "req/s", Better: "higher", Bound: 0.25, Gated: true,
		Def: "verified 200 responses per second of the closed-loop phase"},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.20, Gated: true,
		Def: "closed-loop phase, send to last body byte, median"},
	{Name: "latency_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25, Gated: true,
		Def: "same phase, p99 or the highest percentile with 10 samples beyond it"},
	{Name: "openloop_p50_ms", Unit: "ms", Better: "lower", Bound: 0.20, Workloads: []string{wlHot},
		Def: "2,000 req/s Poisson arrivals, due time to last body byte, median"},
	{Name: "openloop_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25, Workloads: []string{wlHot},
		Def: "same phase; invalid if under 98% of the schedule was sent"},
	{Name: "freshness_p50_ms", Unit: "ms", Better: "lower", Bound: 0.20, Workloads: []string{wlChurn},
		Def: "churn event emit to receipt of the first answer on the growing key that counts it, median"},
	{Name: "store_bytes_per_event", Unit: "B", Better: "lower", Bound: 0.05, Gated: true,
		Def: "(partition + sidecar bytes) / events at ready; deterministic per seed"},
	{Name: "error_ratio", Unit: "ratio", Better: "lower", AbsBound: 0.001,
		Def: "(non-200 + transport errors + unsent + failed verification) / attempted, all phases"},
}

var perLayer = []metricDef{
	// The end-to-end run, from outside the process.
	{Name: "commservd.cpu_ms_per_request", Unit: "ms", Better: "lower", Moves: "throughput_rps@all",
		Def: "/proc utime+stime of the daemon over the closed phase / requests: the steadiest predictor on a shared box"},
	{Name: "commservd.rss_peak_mb", Unit: "MB", Better: "lower", Moves: "guards memory-for-speed trades @hot,churn",
		Def: "VmHWM of the daemon after the load"},
	{Name: "serve.cache_hit_ratio", Unit: "ratio", Better: "higher", Moves: "throughput_rps@churn; gate: >=0.99 hot, <=0.01 window,filter",
		Def: "/v1/stats hits / (hits + misses) over the closed phase"},
	{Name: "serve.tier_cached_ratio", Unit: "ratio", Better: "higher", Moves: "gate: >=0.99 hot",
		Def: "share of closed-phase answers with X-Comm-Tier: cached"},
	{Name: "serve.tier_snapshot_merge_ratio", Unit: "ratio", Better: "higher", Moves: "validates window reaches the planner",
		Def: "share with X-Comm-Tier: snapshot-merge"},
	{Name: "serve.tier_residual_scan_ratio", Unit: "ratio", Better: "lower", Moves: "validates window reaches the planner",
		Def: "share with X-Comm-Tier: residual-scan"},
	{Name: "serve.tier_cold_scan_ratio", Unit: "ratio", Better: "lower", Moves: "gate: >=0.99 filter",
		Def: "share with X-Comm-Tier: cold-scan"},
	{Name: "serve.dedup_ratio", Unit: "ratio", Better: "higher", Moves: "latency_p99_ms@churn",
		Def: "/v1/stats deduped / queries over the closed phase (singleflight followers)"},
	{Name: "serve.refresh_count", Unit: "count", Better: "higher", Moves: "gate: churn refreshes about once a second",
		Def: "/v1/stats refreshes over the closed phase"},
	{Name: "serve.response_bytes_p50", Unit: "B", Better: "lower", Moves: "throughput_rps@hot",
		Def: "median response body size of the closed phase"},
	{Name: "obs.scrape_ms", Unit: "ms", Better: "lower", Moves: "ops cost; obs.Lint must pass",
		Def: "one /metrics scrape after the load"},
	{Name: "bench.generator_lag_p99_ms", Unit: "ms", Better: "lower", Workloads: []string{wlHot}, Moves: "validity of openloop_*",
		Def: "open loop: send time - due time, tail"},
	{Name: "bench.openloop_sent_ratio", Unit: "ratio", Better: "higher", Workloads: []string{wlHot}, Moves: "validity of openloop_* (>=0.98)",
		Def: "open loop: arrivals sent / arrivals scheduled"},
	{Name: "bench.client_cpu_share", Unit: "ratio", Better: "lower", Moves: "how much of the box the generator takes",
		Def: "harness CPU / (harness + daemon CPU) over the closed phase"},
	{Name: "bench.oracle_checked", Unit: "count", Better: "higher", Moves: "coverage of the answer oracle",
		Def: "responses compared with a recomputed reference"},
	{Name: "ingest.churn_events_per_s", Unit: "events/s", Better: "higher", Workloads: []string{wlChurn}, Moves: "gate: >=98% of 2,000",
		Def: "events the churn plane accepted per second"},
	{Name: "ingest.seal_count", Unit: "count", Better: "higher", Workloads: []string{wlChurn}, Moves: "freshness_p50_ms@churn",
		Def: "churn partitions published"},
	{Name: "ingest.sheds", Unit: "count", Better: "lower", Workloads: []string{wlChurn}, Moves: "gate: 0",
		Def: "events the churn plane shed"},
	// The traced run: spans.
	{Name: "serve.http_self_us", Unit: "us", Better: "lower", Moves: "throughput_rps@hot, latency_p50_ms@hot",
		Def: "bench.request self time: socket, net/http, admission; median"},
	{Name: "serve.handler_self_us", Unit: "us", Better: "lower", Moves: "throughput_rps@hot, openloop_p50_ms@hot",
		Def: "serve.handler self time: parse, cache, shape, JSON encode, write; median"},
	{Name: "serve.backend_state_ms", Unit: "ms", Better: "lower", Moves: "latency_p50_ms@window,filter; latency_p99_ms@churn",
		Def: "serve.backend.state duration (cache misses only); median"},
	{Name: "serve.refresh_lag_p50_ms", Unit: "ms", Better: "lower", Workloads: []string{wlChurn}, Moves: "freshness_p50_ms@churn",
		Def: "new partition visible in the directory to the Watch callback; median"},
	{Name: "bench.traced_request_p50_us", Unit: "us", Better: "lower", Moves: "the budget http_self + handler_self + backend_state must add up to",
		Def: "bench.request duration in the traced run; median"},
	{Name: "bench.tracing_overhead_ratio", Unit: "ratio", Better: "higher", Moves: "cost of the traced, in-process run",
		Def: "traced throughput / untraced throughput_rps"},
	// The traced run: direct calls.
	{Name: "serve.answer_hit_us", Unit: "us", Better: "lower", Moves: "throughput_rps@hot (handler_self - answer_hit = parse + encode + write)",
		Def: "Server.Answer on a cached key"},
	{Name: "evstore.query_ms", Unit: "ms", Better: "lower", Moves: "latency_p50_ms@window, throughput_rps@window",
		Def: "SnapshotIndex.Query over specs from the workload's stream; median"},
	{Name: "evstore.query_merged_per_req", Unit: "count", Better: "lower", Moves: "latency_p50_ms@window", Def: "partitions answered from sidecar states; exact"},
	{Name: "evstore.query_jumped_per_req", Unit: "count", Better: "lower", Moves: "latency_p50_ms@window", Def: "partitions that cost a classifier restore only; exact"},
	{Name: "evstore.query_scanned_per_req", Unit: "count", Better: "lower", Moves: "latency_p50_ms@window", Def: "partitions decoded by the residual scan; exact"},
	{Name: "evstore.query_blocks_decoded_per_req", Unit: "count", Better: "lower", Moves: "latency_p50_ms@window", Def: "blocks the residual scan decoded; exact"},
	{Name: "evstore.query_bytes_read_per_req", Unit: "B", Better: "lower", Moves: "latency_p50_ms@window", Def: "stored block bytes the residual scan read; exact"},
	{Name: "classify.restore_us_per_sidecar", Unit: "us", Better: "lower", Moves: "latency_p50_ms@window",
		Def: "Classifier.Restore of one sidecar's end state"},
	{Name: "classify.snapshot_bytes_per_sidecar", Unit: "B", Better: "lower", Moves: "latency_p50_ms@window, store_bytes_per_event",
		Def: "classifier end-state bytes per sidecar"},
	{Name: "analysis.restore_merge_us_per_state", Unit: "us", Better: "lower", Moves: "latency_p50_ms@window, latency_p99_ms@churn",
		Def: "registry analyzers' Restore + Merge of one sidecar state"},
	{Name: "evstore.scanparallel_ms", Unit: "ms", Better: "lower", Workloads: []string{wlFilter}, Moves: "latency_p50_ms@filter, latency_p99_ms@filter",
		Def: "ScanParallel over filtered specs from the workload's stream; median"},
	{Name: "evstore.scan_blocks_decoded_per_req", Unit: "count", Better: "lower", Workloads: []string{wlFilter}, Moves: "latency_p50_ms@filter", Def: "blocks ScanParallel decoded; exact"},
	{Name: "evstore.scan_pruned_ratio", Unit: "ratio", Better: "higher", Workloads: []string{wlFilter}, Moves: "latency_p50_ms@filter", Def: "share of the store's blocks ScanParallel did not decode; exact"},
	{Name: "evstore.scan_events_per_s", Unit: "events/s", Better: "higher", Moves: "latency_p99_ms@filter",
		Def: "ScanAnalyze, full store, one thread, CountsAnalyzer: the single-threaded baseline"},
	{Name: "lz.decompress_mb_s", Unit: "MB/s", Better: "higher", Moves: "latency_p99_ms@filter", Def: "lz.Decompress on a raw-codec partition's bytes"},
	{Name: "lz.compress_mb_s", Unit: "MB/s", Better: "higher", Moves: "setup_s", Def: "lz Encoder.Compress on the same bytes"},
	{Name: "lz.ratio", Unit: "ratio", Better: "lower", Moves: "store_bytes_per_event", Def: "compressed / raw bytes"},
	{Name: "classify.observe_ns_per_event", Unit: "ns", Better: "lower", Moves: "latency@filter,window; setup_s",
		Def: "Classifier.Observe over the materialised events"},
	{Name: "analysis.runall_ns_per_event", Unit: "ns", Better: "lower", Moves: "latency@filter,window; setup_s",
		Def: "classify.RunAll with serve.DefaultRegistry over the materialised events"},
	{Name: "evstore.refresh_ms", Unit: "ms", Better: "lower", Moves: "freshness_p50_ms@churn, throughput_rps@churn",
		Def: "SnapshotIndex.Refresh after one new partition; median of 5"},
	{Name: "evstore.load_manifest_ms", Unit: "ms", Better: "lower", Moves: "freshness_p50_ms@churn, throughput_rps@churn",
		Def: "LoadManifest over the store directory (the watcher polls it 4x/s); median of 5"},
	{Name: "evstore.build_snapshots_s", Unit: "s", Better: "lower", Moves: "setup_s", Def: "BuildSnapshots over a sidecar-less copy of the store"},
	{Name: "evstore.writer_events_per_s", Unit: "events/s", Better: "higher", Moves: "setup_s", Def: "one bare evstore.Writer with the benchmark's seal policy"},
	{Name: "ingest.plane_events_per_s", Unit: "events/s", Better: "higher", Moves: "setup_s (plane - writer = queue and supervisor cost)",
		Def: "events / seconds the set-up's ingest plane took"},
	{Name: "evstore.partitions", Unit: "count", Better: "lower", Moves: "store_bytes_per_event", Def: "partitions at ready; exact"},
	{Name: "evstore.partition_bytes", Unit: "B", Better: "lower", Moves: "store_bytes_per_event", Def: "partition bytes at ready; exact"},
	{Name: "evstore.sidecar_bytes", Unit: "B", Better: "lower", Moves: "store_bytes_per_event", Def: "sidecar bytes at ready; exact"},
	{Name: "workload.generate_s", Unit: "s", Better: "lower", Moves: "outside setup_s", Def: "materialising the generated events"},
}

func (m metricDef) appliesTo(workload string) bool {
	if m.Workloads == nil {
		return true
	}
	for _, w := range m.Workloads {
		if w == workload {
			return true
		}
	}
	return false
}

// benchmarkJSON is BENCHMARK.json, in the builder contract's schema.
type benchmarkJSON struct {
	Command    []string        `json:"command"`
	Paths      []string        `json:"paths"`
	RunSeconds int             `json:"run_seconds"`
	Workloads  []benchWorkload `json:"workloads"`
	EndToEnd   []benchMetric   `json:"end_to_end"`
	PerLayer   []benchMetric   `json:"per_layer"`
}

type benchWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type benchMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// driverSeconds is the run length BENCHMARK.json asks the driver for.
const driverSeconds = 12

// benchmarkSpec projects the catalogue onto BENCHMARK.json.
func benchmarkSpec() benchmarkJSON {
	b := benchmarkJSON{
		Command:    []string{"go", "run", "-C", "bench", "."},
		Paths:      []string{"bench"},
		RunSeconds: driverSeconds,
	}
	for _, w := range workloadNames {
		b.Workloads = append(b.Workloads, benchWorkload{w, workloadWhy[w]})
	}
	for _, m := range endToEnd {
		if m.Gated {
			bound := m.Bound
			b.EndToEnd = append(b.EndToEnd, benchMetric{m.Name, m.Unit, m.Better, &bound})
		} else {
			b.PerLayer = append(b.PerLayer, benchMetric{m.Name, m.Unit, m.Better, nil})
		}
	}
	for _, m := range perLayer {
		b.PerLayer = append(b.PerLayer, benchMetric{m.Name, m.Unit, m.Better, nil})
	}
	return b
}

// environment stamps a result with the machine it came from.
type environment struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	LoadAvg1   float64 `json:"loadavg_1m_at_start"`
}

func stampEnvironment(repoDir string) environment {
	env := environment{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = repoDir
	if out, err := cmd.Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		fmt.Sscanf(string(data), "%f", &env.LoadAvg1)
	}
	return env
}

// quartiles is a metric over repeated runs.
type quartiles struct {
	N      int       `json:"n"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

// newQuartiles computes the quartiles the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), which
// is how the builder contract measures spread.
func newQuartiles(values []float64) quartiles {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	q := quartiles{N: len(v), Values: values}
	switch len(v) {
	case 0:
		return q
	case 1:
		q.Median, q.Q1, q.Q3 = v[0], v[0], v[0]
		return q
	}
	cut := func(i int) float64 {
		m := len(v) + 1
		j := i * m / 4
		j = max(1, min(j, len(v)-1))
		delta := float64(i*m - j*4)
		return (v[j-1]*(4-delta) + v[j]*delta) / 4
	}
	q.Q1, q.Median, q.Q3 = cut(1), cut(2), cut(3)
	return q
}

// spread is the interquartile distance as a share of the median.
func (q quartiles) spread() float64 {
	if q.Median == 0 {
		return 0
	}
	return (q.Q3 - q.Q1) / q.Median
}

// catalogue is the metric catalogue as result files carry it, so a
// result explains its own numbers: what each metric is, which workloads
// have it, its bound, and what a layer metric is expected to move.
type catalogue struct {
	Workloads map[string]string `json:"workloads"` // name -> why
	EndToEnd  []metricDef       `json:"end_to_end"`
	PerLayer  []metricDef       `json:"per_layer"`
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Benchmark   string                          `json:"benchmark"`
	Seed        int64                           `json:"seed"`
	Seconds     int                             `json:"seconds"`
	Traced      bool                            `json:"traced"`
	Environment environment                     `json:"environment"`
	Catalogue   catalogue                       `json:"catalogue"`
	Runs        []map[string]*workloadResult    `json:"runs"`
	Summary     map[string]map[string]quartiles `json:"summary"` // workload -> metric -> over runs
	Claim       *string                         `json:"claim"`   // always null: this benchmark claims no gain
}

// summarizeRuns folds repeated runs into per-metric quartiles.
func summarizeRuns(runs []map[string]*workloadResult) map[string]map[string]quartiles {
	values := make(map[string]map[string][]float64)
	for _, run := range runs {
		for wl, res := range run {
			if values[wl] == nil {
				values[wl] = make(map[string][]float64)
			}
			for _, set := range []map[string]float64{res.EndToEnd, res.Layers} {
				for name, v := range set {
					values[wl][name] = append(values[wl][name], v)
				}
			}
		}
	}
	out := make(map[string]map[string]quartiles)
	for wl, metrics := range values {
		out[wl] = make(map[string]quartiles)
		for name, v := range metrics {
			out[wl][name] = newQuartiles(v)
		}
	}
	return out
}

// printWorkload prints every metric of one workload by name, with unit.
func printWorkload(w io.Writer, workload string, res *workloadResult) {
	fmt.Fprintf(w, "\n== %s ==  correct=%v attempted=%d failed=%d\n", workload, res.Correct, res.Attempted, res.Failed)
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	row := func(m metricDef, v float64) { fmt.Fprintf(tw, "  %s\t%.6g\t%s\n", m.Name, v, m.Unit) }
	fmt.Fprintln(tw, "  end to end\t\t")
	for _, m := range endToEnd {
		if v, ok := res.EndToEnd[m.Name]; ok {
			row(m, v)
		}
	}
	fmt.Fprintln(tw, "  per layer\t\t")
	for _, m := range perLayer {
		if v, ok := res.Layers[m.Name]; ok {
			row(m, v)
		}
	}
	tw.Flush()
	phases := make([]string, 0, len(res.Latency))
	for p := range res.Latency {
		phases = append(phases, p)
	}
	sort.Strings(phases)
	for _, p := range phases {
		l := res.Latency[p]
		fmt.Fprintf(w, "  %s: n=%d p50=%.3f ms p%.4g=%.3f ms\n", p, l.N, l.P50Ms, l.TailPct, l.TailMs)
	}
	for _, p := range res.Problems {
		fmt.Fprintf(w, "  PROBLEM: %s\n", p)
	}
}

// printSummary prints the medians and quartiles of repeated runs.
func printSummary(w io.Writer, names []string, summary map[string]map[string]quartiles) {
	fmt.Fprintln(w, "\n#### summary over runs (median [q1, q3], spread = (q3-q1)/median)")
	for _, wl := range names {
		fmt.Fprintf(w, "\n== %s ==\n", wl)
		tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
		for _, list := range [][]metricDef{endToEnd, perLayer} {
			for _, m := range list {
				q, ok := summary[wl][m.Name]
				if !ok {
					continue
				}
				fmt.Fprintf(tw, "  %s\t%.6g\t[%.6g, %.6g]\t%s\t%.1f%%\tn=%d\n", m.Name, q.Median, q.Q1, q.Q3, m.Unit, 100*q.spread(), q.N)
			}
		}
		tw.Flush()
	}
}

// driverLine is the single JSON line the builder contract reads: every
// gated end-to-end metric untraced, every per-layer metric traced. A
// metric the workload does not have reads 0.
func driverLine(workload string, res *workloadResult, traced bool) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, make(map[string]value)}
	spec := benchmarkSpec()
	list := spec.EndToEnd
	if traced {
		list = spec.PerLayer
	}
	for _, m := range list {
		v, ok := res.EndToEnd[m.Name]
		if !ok {
			v = res.Layers[m.Name]
		}
		out.Metrics[m.Name] = value{v, m.Unit}
	}
	return json.Marshal(out)
}

// compare applies each end-to-end metric's bound to two result files,
// one row per workload, and reports whether any metric got worse.
func compare(w io.Writer, pathA, pathB string) (worse bool, err error) {
	load := func(path string) (*resultFile, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var rf resultFile
		if err := json.Unmarshal(data, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &rf, nil
	}
	a, err := load(pathA)
	if err != nil {
		return false, err
	}
	b, err := load(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "base A = %s (%d runs, %s)\nnew  B = %s (%d runs, %s)\n",
		pathA, len(a.Runs), a.Environment.Commit, pathB, len(b.Runs), b.Environment.Commit)
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median\tB median\tB/A\tbound\tspread A\tspread B\tverdict")
	for _, wl := range workloadNames {
		for _, m := range endToEnd {
			qa, okA := a.Summary[wl][m.Name]
			qb, okB := b.Summary[wl][m.Name]
			if !okA || !okB {
				continue
			}
			v := verdict(m, qa, qb)
			if v == "worse" {
				worse = true
			}
			bound := fmt.Sprintf("%.0f%%", 100*m.Bound)
			if m.AbsBound > 0 {
				bound = fmt.Sprintf("+%g", m.AbsBound)
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g %s\t%.6g %s\t%.3f of %.6g\t%s\t%.1f%%\t%.1f%%\t%s\n",
				wl, m.Name, qa.Median, m.Unit, qb.Median, m.Unit,
				ratio(qb.Median, qa.Median), qa.Median, bound, 100*qa.spread(), 100*qb.spread(), v)
		}
	}
	tw.Flush()
	return worse, nil
}

// verdict judges one (metric, workload) row. Where the run-to-run spread
// is wider than the bound the row is unresolved, not unchanged, unless
// every run of one side beats every run of the other.
func verdict(m metricDef, a, b quartiles) string {
	lower := m.Better == "lower"
	// worsening is how far B's median moved in the worse direction.
	worsening := b.Median - a.Median
	if !lower {
		worsening = -worsening
	}
	bound := m.Bound * a.Median
	resolved := a.spread() <= m.Bound && b.spread() <= m.Bound
	if m.AbsBound > 0 {
		bound = m.AbsBound
		resolved = a.Q3-a.Q1 <= bound && b.Q3-b.Q1 <= bound
	}
	if !resolved {
		minA, maxA := minMax(a.Values)
		minB, maxB := minMax(b.Values)
		switch {
		case maxB < minA && lower, minB > maxA && !lower:
			return "better"
		case minB > maxA && lower, maxB < minA && !lower:
			if worsening > bound {
				return "worse"
			}
			return "same"
		}
		return "unresolved"
	}
	switch {
	case worsening > bound:
		return "worse"
	case -worsening > bound:
		return "better"
	}
	return "same"
}

func minMax(v []float64) (lo, hi float64) {
	if len(v) == 0 {
		return 0, 0
	}
	lo, hi = v[0], v[0]
	for _, x := range v {
		lo, hi = min(lo, x), max(hi, x)
	}
	return lo, hi
}
