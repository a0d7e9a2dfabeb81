package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/evstore"
	"repro/internal/obs"
	"repro/internal/serve"
)

// Span names. A request's spans nest bench.request ⊃ serve.handler ⊃
// serve.backend.state; refreshes and churn emits are roots.
const (
	spanRequest = "bench.request"
	spanHandler = "serve.handler"
	spanState   = "serve.backend.state"
	spanRefresh = "serve.backend.refresh"
	spanEmit    = "ingest.emit"
)

// span is one timed interval at a layer boundary. Spans of one request
// share Req; Parent names the span that caused this one.
type span struct {
	Name   string    `json:"name"`
	Req    int64     `json:"req,omitempty"`
	Parent string    `json:"parent,omitempty"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

// spanRecorder keeps spans in memory until the run ends.
type spanRecorder struct {
	mu    sync.Mutex
	spans []span
}

func (r *spanRecorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// since returns the spans that started at or after t.
func (r *spanRecorder) since(t time.Time) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []span
	for _, s := range r.spans {
		if !s.Start.Before(t) {
			out = append(out, s)
		}
	}
	return out
}

// writeJSONL writes every span, one JSON object per line.
func (r *spanRecorder) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	r.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// selfTimes returns, per span name, each span's self time: its duration
// minus the part of it that its child spans (same request, Parent equal
// to its name) cover. Overlapping children are counted once.
func selfTimes(spans []span) map[string][]time.Duration {
	type key struct {
		req    int64
		parent string
	}
	children := make(map[key][]span)
	for _, s := range spans {
		if s.Parent != "" {
			k := key{s.Req, s.Parent}
			children[k] = append(children[k], s)
		}
	}
	out := make(map[string][]time.Duration)
	for _, s := range spans {
		kids := children[key{s.Req, s.Name}]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start.Before(kids[j].Start) })
		covered := time.Duration(0)
		cursor := s.Start
		for _, k := range kids {
			from, to := k.Start, k.End
			if from.Before(cursor) {
				from = cursor
			}
			if to.After(s.End) {
				to = s.End
			}
			if to.After(from) {
				covered += to.Sub(from)
				cursor = to
			}
		}
		out[s.Name] = append(out[s.Name], s.End.Sub(s.Start)-covered)
	}
	return out
}

// durations returns the plain durations of the spans called name.
func durations(spans []span, name string) []time.Duration {
	var out []time.Duration
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.End.Sub(s.Start))
		}
	}
	return out
}

type reqIDKey struct{}

// spanMiddleware records serve.handler around next and carries the
// request id to the layers below through the context.
func spanMiddleware(rec *spanRecorder, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		if err != nil {
			next.ServeHTTP(w, r) // an ops probe, not a generated request
			return
		}
		start := time.Now()
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), reqIDKey{}, id)))
		rec.add(span{Name: spanHandler, Req: id, Parent: spanRequest, Start: start, End: time.Now()})
	})
}

// tracedBackend decorates a serve.Backend with spans: serve.backend.state
// around every State call (cache misses only reach it), and
// serve.backend.refresh plus the refresh lag around every store change.
type tracedBackend struct {
	serve.Backend
	rec *spanRecorder
	dir string

	mu   sync.Mutex
	seen map[string]bool
	lags []time.Duration // partition visible -> Watch callback
}

func newTracedBackend(inner serve.Backend, rec *spanRecorder, dir string) (*tracedBackend, error) {
	tb := &tracedBackend{Backend: inner, rec: rec, dir: dir, seen: make(map[string]bool)}
	m, err := evstore.LoadManifest(dir)
	if err != nil {
		return nil, err
	}
	for _, p := range m.Partitions {
		tb.seen[p.Path] = true
	}
	return tb, nil
}

func (tb *tracedBackend) State(ctx context.Context, spec serve.QuerySpec) (*serve.StateEnvelope, error) {
	id, _ := ctx.Value(reqIDKey{}).(int64)
	start := time.Now()
	env, err := tb.Backend.State(ctx, spec)
	tb.rec.add(span{Name: spanState, Req: id, Parent: spanHandler, Start: start, End: time.Now()})
	return env, err
}

// Watch wraps the inner watcher's callback. The inner backend refreshes
// before calling back, so the refresh span is reconstructed from the
// sidecar build time it reports; the lag runs from the moment a new
// partition became visible in the directory (its mtime: the writer
// links complete files into place) to the callback.
func (tb *tracedBackend) Watch(ctx context.Context, interval time.Duration, onChange func(serve.RefreshStats, error)) error {
	return tb.Backend.Watch(ctx, interval, func(rs serve.RefreshStats, err error) {
		now := time.Now()
		tb.rec.add(span{Name: spanRefresh, Start: now.Add(-rs.Elapsed), End: now})
		if m, merr := evstore.LoadManifest(tb.dir); merr == nil {
			tb.mu.Lock()
			for _, p := range m.Partitions {
				if tb.seen[p.Path] {
					continue
				}
				tb.seen[p.Path] = true
				if fi, serr := os.Stat(p.Path); serr == nil {
					tb.lags = append(tb.lags, now.Sub(fi.ModTime()))
				}
			}
			tb.mu.Unlock()
		}
		if onChange != nil {
			onChange(rs, err)
		}
	})
}

func (tb *tracedBackend) refreshLags() []time.Duration {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	return append([]time.Duration(nil), tb.lags...)
}

// tracedServer is the in-process server of the traced run: production
// wiring (commservd's runDaemon) rebuilt from public pieces, with the
// span decorators in between.
type tracedServer struct {
	base    string
	backend *tracedBackend
	http    *http.Server
	cancel  context.CancelFunc
	watched chan struct{}
}

func startTraced(ctx context.Context, store string, rec *spanRecorder) (*tracedServer, error) {
	metrics := serve.NewMetrics(obs.NewRegistry())
	cfg := serve.Config{Dir: store, Metrics: metrics}
	lb, _, err := serve.NewLocalBackend(ctx, cfg)
	if err != nil {
		return nil, err
	}
	tb, err := newTracedBackend(lb, rec, store)
	if err != nil {
		return nil, err
	}
	cfg.Backend = tb
	s, _, err := serve.New(ctx, cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	wctx, cancel := context.WithCancel(ctx)
	ts := &tracedServer{
		base:    "http://" + ln.Addr().String(),
		backend: tb,
		cancel:  cancel,
		watched: make(chan struct{}),
	}
	go func() {
		defer close(ts.watched)
		s.Watch(wctx, 250*time.Millisecond, nil)
	}()
	ts.http = &http.Server{Handler: serve.Admission(
		serve.AdmissionConfig{MaxInflight: 1024, Metrics: metrics},
		spanMiddleware(rec, s.Handler()))}
	go ts.http.Serve(ln)
	return ts, nil
}

func (ts *tracedServer) stop() {
	ts.cancel()
	<-ts.watched
	ts.http.Close()
}
