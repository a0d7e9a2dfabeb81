// Package obs is the production observability plane: a small,
// dependency-free metrics registry (counters, gauges, histograms with
// atomic hot paths and Prometheus text-format exposition) plus the
// structured-logging setup shared by every daemon.
//
// Design points:
//
//   - Hot paths are lock-free. Counter.Add and Histogram.Observe are
//     single atomic operations (plus one CAS loop for the histogram
//     sum); labeled instruments resolve through a sync.Map so the
//     steady state is one lock-free lookup. Instrumenting the serving
//     hot path must cost nanoseconds, not microseconds — the cached
//     answer tier it measures is itself only ~1µs.
//
//   - Sampled instruments thread through EXISTING bookkeeping. The
//     daemons already keep deep internal counters (serve.ServerStats,
//     evstore.ScanStats, ingest.CollectorStats); CounterFunc/GaugeFunc
//     and OnScrape samplers read those at scrape time instead of
//     maintaining a second, drift-prone set of books.
//
//   - Exposition is deterministic: families sorted by name, series by
//     label values, histogram buckets fixed at registration — so
//     scrape output is diffable and the format tests can pin it.
//
// Lint validates exposition output (tests and the load generator both
// use it); NewLogger builds the shared slog setup (-log-format
// text|json).
package obs

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// LatencyBuckets is the shared latency histogram layout, in seconds:
// 100µs to 10s, roughly exponential. One fixed layout for every
// latency histogram keeps cross-daemon dashboards comparable and is
// pinned by a determinism test — changing it silently would corrupt
// recorded history.
var LatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// SizeBuckets is the shared byte-size histogram layout: 1KiB to 1GiB
// in powers of 8.
var SizeBuckets = []float64{
	1 << 10, 8 << 10, 64 << 10, 512 << 10, 4 << 20, 32 << 20, 256 << 20, 1 << 30,
}

var nameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// Registry holds a daemon's metric families and renders them in
// Prometheus text format. Safe for concurrent use; registration
// usually happens once at startup, scrapes and instrument updates run
// concurrently for the daemon's lifetime.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	samplers []func()
}

// family is one metric name: its metadata plus every labeled series.
type family struct {
	name   string
	help   string
	typ    string   // "counter", "gauge", "histogram"
	labels []string // label names; nil for a single unlabeled series

	// series maps joined label values to the instrument. Unlabeled
	// families hold exactly one series under the empty key.
	series sync.Map // string -> instrument
	// seriesMu serializes creation so two goroutines materializing the
	// same child can't produce distinct instruments.
	seriesMu sync.Mutex
}

// instrument is anything a family can hold a series of.
type instrument interface {
	// sampleInto appends the series' sample lines.
	sampleInto(b *strings.Builder, name, labelPart string)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// register adds a family, panicking on an invalid or duplicate name —
// metric registration is daemon wiring, and a name collision is a
// programming error that must fail at startup, not corrupt series at
// scrape time.
func (r *Registry) register(name, help, typ string, labels []string) *family {
	if !nameRE.MatchString(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !nameRE.MatchString(l) || strings.HasPrefix(l, "__") {
			panic(fmt.Sprintf("obs: invalid label name %q on %q", l, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[name]; dup {
		panic(fmt.Sprintf("obs: duplicate metric registration %q", name))
	}
	f := &family{name: name, help: help, typ: typ, labels: labels}
	r.families[name] = f
	return f
}

// OnScrape registers a sampler run before every exposition — the hook
// that threads existing stats structs (queue depths, feed states,
// shard health) into gauges exactly when they are observed.
func (r *Registry) OnScrape(fn func()) {
	r.mu.Lock()
	r.samplers = append(r.samplers, fn)
	r.mu.Unlock()
}

// ---------------------------------------------------------------------------
// Counter
// ---------------------------------------------------------------------------

// Counter is a monotonically increasing uint64. The zero Counter is
// ready to use once obtained from a registry.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

func (c *Counter) sampleInto(b *strings.Builder, name, labelPart string) {
	fmt.Fprintf(b, "%s%s %d\n", name, labelPart, c.v.Load())
}

// Counter registers and returns an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(name, help, "counter", nil)
	c := &Counter{}
	f.series.Store("", c)
	return c
}

// counterFunc samples a cumulative value from existing bookkeeping.
type counterFunc func() uint64

func (fn counterFunc) sampleInto(b *strings.Builder, name, labelPart string) {
	fmt.Fprintf(b, "%s%s %d\n", name, labelPart, fn())
}

// CounterFunc registers a counter whose value is read from fn at
// scrape time. fn must be monotonic (it reads an existing cumulative
// counter) and safe to call concurrently.
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	f := r.register(name, help, "counter", nil)
	f.series.Store("", counterFunc(fn))
}

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if len(labels) == 0 {
		panic(fmt.Sprintf("obs: CounterVec %q needs labels", name))
	}
	return &CounterVec{r.register(name, help, "counter", labels)}
}

// With returns the child counter for the given label values (created
// on first use). The steady state is one lock-free map hit; callers on
// very hot paths may cache the child.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.child(values, func() instrument { return &Counter{} }).(*Counter)
}

// ---------------------------------------------------------------------------
// Gauge
// ---------------------------------------------------------------------------

// Gauge is a float64 that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds d (CAS loop; gauges are not as hot as counters).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) sampleInto(b *strings.Builder, name, labelPart string) {
	fmt.Fprintf(b, "%s%s %s\n", name, labelPart, formatFloat(g.Value()))
}

// Gauge registers and returns an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.register(name, help, "gauge", nil)
	g := &Gauge{}
	f.series.Store("", g)
	return g
}

// gaugeFunc samples a point-in-time value from existing bookkeeping.
type gaugeFunc func() float64

func (fn gaugeFunc) sampleInto(b *strings.Builder, name, labelPart string) {
	fmt.Fprintf(b, "%s%s %s\n", name, labelPart, formatFloat(fn()))
}

// GaugeFunc registers a gauge whose value is read from fn at scrape
// time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.register(name, help, "gauge", nil)
	f.series.Store("", gaugeFunc(fn))
}

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// GaugeVec registers a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	if len(labels) == 0 {
		panic(fmt.Sprintf("obs: GaugeVec %q needs labels", name))
	}
	return &GaugeVec{r.register(name, help, "gauge", labels)}
}

// With returns the child gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.f.child(values, func() instrument { return &Gauge{} }).(*Gauge)
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

// Histogram counts observations into fixed cumulative buckets.
// Observe is two atomic adds plus one CAS for the sum; bucket count
// and layout are fixed at registration.
type Histogram struct {
	uppers  []float64 // sorted upper bounds, exclusive of +Inf
	buckets []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
}

func newHistogram(uppers []float64) *Histogram {
	for i := 1; i < len(uppers); i++ {
		if uppers[i] <= uppers[i-1] {
			panic(fmt.Sprintf("obs: histogram buckets not strictly increasing at %v", uppers[i]))
		}
	}
	return &Histogram{
		uppers:  append([]float64(nil), uppers...),
		buckets: make([]atomic.Uint64, len(uppers)),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Linear scan: latency layouts are ~16 buckets and most
	// observations land in the first few, so this beats binary search
	// in practice and keeps the code branch-predictable.
	for i, ub := range h.uppers {
		if v <= ub {
			h.buckets[i].Add(1)
			break
		}
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

func (h *Histogram) sampleInto(b *strings.Builder, name, labelPart string) {
	// Bucket counts are cumulative in the exposition. Reads race
	// concurrent Observes benignly: each bucket is read once, so a
	// scrape sees some consistent-enough prefix; the lint invariants
	// (monotone cumulative counts, +Inf == count) are preserved by
	// summing in order and emitting the same total for both.
	labels := labelPart
	if labels != "" {
		labels = labels[:len(labels)-1] + ","
	} else {
		labels = "{"
	}
	var cum uint64
	for i, ub := range h.uppers {
		cum += h.buckets[i].Load()
		fmt.Fprintf(b, "%s_bucket%sle=%q} %d\n", name, labels, formatFloat(ub), cum)
	}
	total := cum + h.infCount(cum)
	fmt.Fprintf(b, "%s_bucket%sle=\"+Inf\"} %d\n", name, labels, total)
	fmt.Fprintf(b, "%s_sum%s %s\n", name, labelPart, formatFloat(math.Float64frombits(h.sumBits.Load())))
	fmt.Fprintf(b, "%s_count%s %d\n", name, labelPart, total)
}

// infCount derives the +Inf bucket's increment: observations beyond
// the last bound incremented count but no bucket.
func (h *Histogram) infCount(cumSoFar uint64) uint64 {
	total := h.count.Load()
	if total < cumSoFar {
		// A racing Observe bumped a bucket before count; clamp so the
		// exposition stays internally consistent.
		return 0
	}
	return total - cumSoFar
}

// Histogram registers and returns an unlabeled histogram with the
// given bucket upper bounds (nil: LatencyBuckets).
func (r *Registry) Histogram(name, help string, uppers []float64) *Histogram {
	if uppers == nil {
		uppers = LatencyBuckets
	}
	f := r.register(name, help, "histogram", nil)
	h := newHistogram(uppers)
	f.series.Store("", h)
	return h
}

// HistogramVec is a histogram family with labels; every child shares
// one bucket layout.
type HistogramVec struct {
	f      *family
	uppers []float64
}

// HistogramVec registers a labeled histogram family (nil uppers:
// LatencyBuckets).
func (r *Registry) HistogramVec(name, help string, uppers []float64, labels ...string) *HistogramVec {
	if len(labels) == 0 {
		panic(fmt.Sprintf("obs: HistogramVec %q needs labels", name))
	}
	if uppers == nil {
		uppers = LatencyBuckets
	}
	// Validate once so child creation can't panic mid-serve.
	newHistogram(uppers)
	return &HistogramVec{r.register(name, help, "histogram", labels), append([]float64(nil), uppers...)}
}

// With returns the child histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.f.child(values, func() instrument { return newHistogram(v.uppers) }).(*Histogram)
}

// ---------------------------------------------------------------------------
// family internals
// ---------------------------------------------------------------------------

// child resolves (creating on first use) the series for a label-value
// tuple.
func (f *family) child(values []string, mk func() instrument) instrument {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\xff")
	if got, ok := f.series.Load(key); ok {
		return got.(instrument)
	}
	f.seriesMu.Lock()
	defer f.seriesMu.Unlock()
	if got, ok := f.series.Load(key); ok {
		return got.(instrument)
	}
	inst := mk()
	f.series.Store(key, inst)
	return inst
}

// labelPart renders {a="x",b="y"} for a series key ("" for none).
func (f *family) labelPart(key string) string {
	if len(f.labels) == 0 {
		return ""
	}
	values := strings.Split(key, "\xff")
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range f.labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l)
		b.WriteString("=\"")
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer("\\", `\\`, "\"", `\"`, "\n", `\n`)
	return r.Replace(v)
}

// formatFloat renders a float the Prometheus way: integers without
// exponent noise, everything else shortest round-trip form.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return fmt.Sprintf("%g", v)
}

// sortedFamilies snapshots the family list in name order.
func (r *Registry) sortedFamilies() ([]*family, []func()) {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	samplers := append([]func(){}, r.samplers...)
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams, samplers
}
