package main

import (
	"fmt"
	"math/rand"
	"net/netip"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/beacon"
	"repro/internal/evstore"
	"repro/internal/serve"
)

// Workload names. Later issues cite them; do not rename.
const (
	wlHot    = "hot"
	wlWindow = "window"
	wlFilter = "filter"
	wlChurn  = "churn"
)

var workloadNames = []string{wlHot, wlWindow, wlFilter, wlChurn}

// workloadWhy records why each workload exists.
var workloadWhy = map[string]string{
	wlHot:    "Zipf(1.1) over 64 cacheable keys: socket, parse, admission, cache hit, JSON encode, write; almost no evstore. A serve-side gain must show here, a decode gain must not.",
	wlWindow: "one collector over a random 1-24 h window, >1e7 keys against 256 cache entries: every request is plan, sidecar merge, classifier restore and a small residual scan.",
	wlFilter: "table2 with a per-event filter (70% peeras, 30% prefixrange) over a random window: forced cold ScanParallel, sidecars never touched; the other half of evstore from window.",
	wlChurn:  "hot's keys while 2,000 events/s seal into the served store every second: refresh, sidecar build, cache flush and the recompute stampede; the only freshness number.",
}

// churnCollector is the collector the churn workload appends to.
const churnCollector = "churn00"

// hotZipfS is the popularity skew of hot and churn.
const hotZipfS = 1.1

// request is one generated query: the URL path the client sends and the
// spec it parses to, kept for the oracle and the direct-call pass.
type request struct {
	path string
	spec serve.QuerySpec
	live bool // churn's growing key: every response is kept for freshness
}

func newRequest(spec serve.QuerySpec) request {
	return request{path: specPath(spec), spec: spec}
}

// specPath renders a spec as the daemon's /v1 URL.
func specPath(spec serve.QuerySpec) string {
	var endpoint string
	switch spec.Kind {
	case serve.KindTable1, serve.KindTable2:
		endpoint = "/v1/" + spec.Kind
	case serve.KindPeers:
		endpoint = "/v1/infer/peers"
	case serve.KindIngress:
		endpoint = "/v1/infer/ingress"
	case serve.KindFigure3:
		endpoint = "/v1/figure/3"
	case serve.KindFigure6:
		endpoint = "/v1/figure/6"
	default:
		panic("bench: no URL for kind " + spec.Kind)
	}
	q := url.Values{}
	if !spec.Window.From.IsZero() {
		q.Set("from", spec.Window.From.UTC().Format(time.RFC3339))
	}
	if !spec.Window.To.IsZero() {
		q.Set("to", spec.Window.To.UTC().Format(time.RFC3339))
	}
	if len(spec.Collectors) > 0 {
		q.Set("collectors", strings.Join(spec.Collectors, ","))
	}
	if len(spec.PeerAS) > 0 {
		as := make([]string, len(spec.PeerAS))
		for i, a := range spec.PeerAS {
			as[i] = strconv.FormatUint(uint64(a), 10)
		}
		q.Set("peeras", strings.Join(as, ","))
	}
	if spec.PrefixRange.IsValid() {
		q.Set("prefixrange", spec.PrefixRange.String())
	}
	if spec.Collector != "" {
		q.Set("collector", spec.Collector)
	}
	if spec.Prefix.IsValid() {
		q.Set("prefix", spec.Prefix.String())
	}
	if len(q) == 0 {
		return endpoint
	}
	return endpoint + "?" + q.Encode()
}

// hotKeys is the fixed 64-key universe of hot and churn, in popularity
// order (rank 0 is the most requested). It does not depend on the seed:
// every seed must offer statistically the same work, or runs on
// different seeds could not be compared. 48 keys span the whole store
// (all-collector and per-collector); 16 are hour-aligned sub-day
// windows on single collectors.
func hotKeys(d *dataset) []request {
	var keys []request
	add := func(s serve.QuerySpec) { keys = append(keys, newRequest(s)) }
	f3 := serve.QuerySpec{Kind: serve.KindFigure3, Collector: "rrc00", Prefix: beacon.PrefixN(0)}
	// All-collector keys: the dashboard's front page.
	add(serve.QuerySpec{Kind: serve.KindTable2})
	add(serve.QuerySpec{Kind: serve.KindTable1})
	add(serve.QuerySpec{Kind: serve.KindPeers})
	add(serve.QuerySpec{Kind: serve.KindIngress})
	add(f3)
	add(serve.QuerySpec{Kind: serve.KindFigure6})
	perCollector := []string{serve.KindTable2, serve.KindTable1, serve.KindPeers, serve.KindIngress}
	// The sub-day windows come from a fixed sequence, not the seed.
	rng := rand.New(rand.NewSource(64))
	hours := int(d.to.Sub(d.from) / time.Hour)
	subDay := func() serve.QuerySpec {
		length := 1 + rng.Intn(12)
		start := rng.Intn(hours - length)
		from := d.from.Add(time.Duration(start) * time.Hour)
		return serve.QuerySpec{
			Kind:       perCollector[rng.Intn(3)],
			Collectors: []string{d.collectors[rng.Intn(len(d.collectors))]},
			Window:     evstore.TimeRange{From: from, To: from.Add(time.Duration(length) * time.Hour)},
		}
	}
	// 40 per-collector keys with two sub-day windows after every fifth,
	// so both classes appear at every popularity level. (The quick
	// topology has fewer collectors; its ranks then share keys.)
	for i := 0; i < 40; i++ {
		kind := perCollector[i%len(perCollector)]
		c := d.collectors[(i/len(perCollector))%len(d.collectors)]
		add(serve.QuerySpec{Kind: kind, Collectors: []string{c}})
		if i%5 == 4 {
			add(subDay())
			add(subDay())
		}
	}
	add(serve.QuerySpec{Kind: serve.KindFigure6, Collectors: d.collectors[:1]})
	add(serve.QuerySpec{Kind: serve.KindFigure6, Collectors: d.collectors[1:2]})
	return keys
}

// churnKeyRank is the popularity rank churn gives its one live key;
// Zipf(1.1) over 64 ranks sends it about 2% of the requests.
const churnKeyRank = 7

// churnKeys is hotKeys with one key replaced by the growing collector.
func churnKeys(d *dataset) []request {
	keys := hotKeys(d)
	keys[churnKeyRank] = newRequest(serve.QuerySpec{Kind: serve.KindTable2, Collectors: []string{churnCollector}})
	keys[churnKeyRank].live = true
	return keys
}

// generator yields a workload's request sequence. The sequence is a
// function of the seed alone: workers share one generator, so timing
// decides only who sends a request, never which request is next.
type generator struct {
	mu   sync.Mutex
	next func() request
}

func (g *generator) Next() request {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.next()
}

// phaseSeed derives an independent stream per (seed, workload, phase).
func phaseSeed(seed int64, workload, phase string) int64 {
	h := uint64(seed) ^ 0x9E3779B97F4A7C15
	for _, b := range []byte(workload + "/" + phase) {
		h = (h ^ uint64(b)) * 0x100000001B3
	}
	return int64(h >> 1)
}

// newGenerator builds the request stream of one workload phase.
func newGenerator(workload, phase string, seed int64, d *dataset) *generator {
	rng := rand.New(rand.NewSource(phaseSeed(seed, workload, phase)))
	switch workload {
	case wlHot, wlChurn:
		keys := hotKeys(d)
		if workload == wlChurn {
			keys = churnKeys(d)
		}
		zipf := rand.NewZipf(rng, hotZipfS, 1, uint64(len(keys)-1))
		return &generator{next: func() request { return keys[zipf.Uint64()] }}
	case wlWindow:
		return &generator{next: func() request {
			spec := serve.QuerySpec{Kind: serve.KindTable2, Window: randomWindow(rng, d)}
			switch r := rng.Intn(10); {
			case r >= 8:
				spec.Kind = serve.KindPeers
			case r >= 6:
				spec.Kind = serve.KindTable1
			}
			spec.Collectors = []string{d.collectors[rng.Intn(len(d.collectors))]}
			return newRequest(spec)
		}}
	case wlFilter:
		// The 70/30 split keeps p50 inside the pruned mode (footer
		// pushdown leaves one collector) and the tail inside the
		// full-decode mode, instead of on the boundary between them.
		ranges := d.cfg.PrefixesV4 / 16
		return &generator{next: func() request {
			spec := serve.QuerySpec{Kind: serve.KindTable2, Window: randomWindow(rng, d)}
			if rng.Intn(10) < 7 {
				spec.PeerAS = []uint32{d.peerAS[rng.Intn(len(d.peerAS))]}
			} else {
				i := rng.Intn(ranges) * 16
				addr := netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 0})
				spec.PrefixRange = netip.PrefixFrom(addr, 20)
			}
			return newRequest(spec)
		}}
	}
	panic(fmt.Sprintf("bench: unknown workload %q", workload))
}

// randomWindow draws a minute-granular window of 1 to 24 hours inside
// the generated days.
func randomWindow(rng *rand.Rand, d *dataset) evstore.TimeRange {
	span := int(d.to.Sub(d.from) / time.Minute)
	length := 60 + rng.Intn(23*60+1)
	start := rng.Intn(span - length + 1)
	from := d.from.Add(time.Duration(start) * time.Minute)
	return evstore.TimeRange{From: from, To: from.Add(time.Duration(length) * time.Minute)}
}
