package main

import (
	"bytes"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// connections is the number of persistent loopback connections (and
// closed-loop clients) the generator drives: one per core of the
// two-core boxes the benchmark is sized for, so the generator does not
// measure its own scheduling.
const connections = 2

// connectionsFor returns a workload's client count. filter drives one:
// each of its requests already fans out over GOMAXPROCS scan workers, so
// one client keeps every core busy, and a second only adds a third
// runnable thread to two cores. With two, the median sat between "ran
// alone" and "shared the cores with a full decode" and moved 14% between
// runs of the same seed.
func connectionsFor(workload string) int {
	if workload == wlFilter {
		return 1
	}
	return connections
}

// keepEvery is the oracle's sampling period: one response body in
// keepEvery is kept and verified after the phase.
const keepEvery = 64

// spanHeader carries the request id of a traced run to the server.
const spanHeader = "X-Bench-Span"

// sample is one attempted request. Times are offsets from phase start.
type sample struct {
	due    time.Duration // open loop: when it was scheduled; closed loop: sent
	sent   time.Duration
	done   time.Duration // last body byte read
	tier   string        // X-Comm-Tier
	bytes  int
	failed bool // transport error, non-200 (429 included) or empty body
}

// keptResponse is a sampled response held for the oracle.
type keptResponse struct {
	req  request
	body []byte
	recv time.Time
}

// phaseResult is everything one load phase observed.
type phaseResult struct {
	start     time.Time
	elapsed   time.Duration
	samples   []sample
	kept      []keptResponse
	live      []keptResponse // every response of the churn workload's growing key
	scheduled int            // open loop: arrivals in the schedule
}

// loader drives load at one daemon over persistent connections.
type loader struct {
	base  string
	conns int           // persistent connections, one closed-loop client each
	spans *spanRecorder // non-nil in the traced run
	seq   atomic.Int64  // request ids, also the oracle's sampling clock
}

// worker is one connection's client state.
type worker struct {
	l       *loader
	client  *http.Client
	buf     bytes.Buffer
	samples []sample
	kept    []keptResponse
	live    []keptResponse
}

func (l *loader) newWorker() *worker {
	return &worker{l: l, client: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}}
}

// do sends one request and records its sample. due is the offset the
// latency clock started at; a closed-loop caller passes the send time.
func (w *worker) do(start time.Time, due time.Duration, req request) {
	id := w.l.seq.Add(1)
	hreq, err := http.NewRequest(http.MethodGet, w.l.base+req.path, nil)
	if err != nil {
		panic(err) // the harness generated a malformed URL
	}
	if w.l.spans != nil {
		hreq.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	}
	sentAt := time.Now()
	s := sample{due: due, sent: sentAt.Sub(start)}
	resp, err := w.client.Do(hreq)
	if err != nil {
		s.failed = true
	} else {
		w.buf.Reset()
		_, err = io.Copy(&w.buf, resp.Body)
		resp.Body.Close()
		s.tier = resp.Header.Get("X-Comm-Tier")
		s.bytes = w.buf.Len()
		s.failed = err != nil || resp.StatusCode != http.StatusOK || s.bytes == 0
	}
	doneAt := time.Now()
	s.done = doneAt.Sub(start)
	if s.due < 0 {
		s.due = s.sent
	}
	w.samples = append(w.samples, s)
	if w.l.spans != nil {
		w.l.spans.add(span{Name: spanRequest, Req: id, Start: sentAt, End: doneAt})
	}
	if s.failed {
		return
	}
	if req.live {
		w.live = append(w.live, keptResponse{req, bytes.Clone(w.buf.Bytes()), doneAt})
	} else if id%keepEvery == 0 {
		w.kept = append(w.kept, keptResponse{req, bytes.Clone(w.buf.Bytes()), doneAt})
	}
}

func (l *loader) collect(res *phaseResult, workers []*worker) *phaseResult {
	for _, w := range workers {
		res.samples = append(res.samples, w.samples...)
		res.kept = append(res.kept, w.kept...)
		res.live = append(res.live, w.live...)
		w.client.CloseIdleConnections()
	}
	sort.Slice(res.samples, func(i, j int) bool { return res.samples[i].done < res.samples[j].done })
	sort.Slice(res.live, func(i, j int) bool { return res.live[i].recv.Before(res.live[j].recv) })
	return res
}

// closed runs a closed loop: each connection sends its next request
// only when the previous answer is complete, for dur.
func (l *loader) closed(gen *generator, dur time.Duration) *phaseResult {
	res := &phaseResult{start: time.Now()}
	workers := make([]*worker, l.conns)
	var wg sync.WaitGroup
	for i := range workers {
		w := l.newWorker()
		workers[i] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(res.start) < dur {
				w.do(res.start, -1, gen.Next())
			}
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(res.start)
	return l.collect(res, workers)
}

// maxLate is how far behind its due time an open-loop arrival may be
// sent before it is dropped instead.
const maxLate = time.Second

// open runs an open loop: arrivals follow a seeded Poisson process at
// rate per second, with absolute due times fixed before the phase
// starts. The calling goroutine is the pacer: it releases each arrival
// at its due time to whichever connection is free. When both are busy
// the arrival waits, but its latency clock still starts at its due
// time, so a stall is charged to every request it delays. An arrival
// that is maxLate behind when a connection frees up is dropped: it
// stays unsent and counts against the schedule, which bounds how far an
// overloaded phase overruns.
//
// The pacer waits in nanosleep(2), not time.Sleep: the Go runtime parks
// an idle thread in epoll with millisecond granularity, so time.Sleep to
// a sub-millisecond due time overshoots by about a millisecond, several
// times the service time being measured (internal/loadgen's
// timer-per-arrival loop delivered 1,060 of 2,000 req/s for that
// reason). Spinning instead would take a core from a daemon that may be
// under a CPU quota.
func (l *loader) open(gen *generator, rate float64, dur time.Duration, seed int64) *phaseResult {
	rng := rand.New(rand.NewSource(seed))
	var due []time.Duration
	var reqs []request
	for t := rng.ExpFloat64() / rate; t < dur.Seconds(); t += rng.ExpFloat64() / rate {
		due = append(due, time.Duration(t*float64(time.Second)))
		reqs = append(reqs, gen.Next())
	}
	res := &phaseResult{start: time.Now(), scheduled: len(due)}
	// Buffered for every arrival, so the pacer never waits for a worker.
	arrivals := make(chan int, len(due))
	workers := make([]*worker, l.conns)
	var wg sync.WaitGroup
	for i := range workers {
		w := l.newWorker()
		workers[i] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range arrivals {
				if time.Since(res.start)-due[i] < maxLate {
					w.do(res.start, due[i], reqs[i])
				}
			}
		}()
	}
	for i, d := range due {
		// A signal may end nanosleep early; sleep again for the rest.
		for wait := d - time.Since(res.start); wait > 0; wait = d - time.Since(res.start) {
			ts := syscall.NsecToTimespec(int64(wait))
			syscall.Nanosleep(&ts, nil)
		}
		arrivals <- i
	}
	close(arrivals)
	wg.Wait()
	res.elapsed = time.Since(res.start)
	return l.collect(res, workers)
}

// touch requests every key once, so a cacheable workload starts warm.
func (l *loader) touch(keys []request) {
	w := l.newWorker()
	start := time.Now()
	for _, k := range keys {
		w.do(start, -1, k)
	}
	w.client.CloseIdleConnections()
}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// tailIndex returns the index, into n ascending samples, of the highest
// percentile not above want that still has minBeyond samples beyond it,
// and the percentile that index stands for.
func tailIndex(n int, want float64) (int, float64) {
	if n == 0 {
		return 0, 0
	}
	idx := int(want*float64(n)+0.999999) - 1 // ceil(want*n) - 1
	if limit := n - 1 - minBeyond; idx > limit {
		idx = limit
	}
	if idx < 0 {
		idx = 0
	}
	return idx, float64(idx+1) / float64(n)
}

// latencySummary is a timing reported the way the benchmark reports
// every timing: the median, the highest supported percentile up to
// p99, and the sample count.
type latencySummary struct {
	N       int     `json:"n"`
	P50Ms   float64 `json:"p50_ms"`
	TailMs  float64 `json:"tail_ms"`
	TailPct float64 `json:"tail_pct"` // the percentile TailMs stands for
}

func summarize(d []time.Duration) latencySummary {
	if len(d) == 0 {
		return latencySummary{}
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	ms := func(v time.Duration) float64 { return float64(v) / float64(time.Millisecond) }
	mid, _ := tailIndex(len(d), 0.5)
	tail, pct := tailIndex(len(d), 0.99)
	return latencySummary{N: len(d), P50Ms: ms(d[mid]), TailMs: ms(d[tail]), TailPct: 100 * pct}
}

// latencies returns done-due of every successful sample; lags returns
// sent-due of every sample.
func (p *phaseResult) latencies() []time.Duration {
	out := make([]time.Duration, 0, len(p.samples))
	for _, s := range p.samples {
		if !s.failed {
			out = append(out, s.done-s.due)
		}
	}
	return out
}

func (p *phaseResult) lags() []time.Duration {
	out := make([]time.Duration, 0, len(p.samples))
	for _, s := range p.samples {
		out = append(out, s.sent-s.due)
	}
	return out
}

func (p *phaseResult) failures() int {
	n := 0
	for _, s := range p.samples {
		if s.failed {
			n++
		}
	}
	return n
}
