package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/netip"
	"strconv"
	"strings"
	"time"
)

// Handler returns the daemon's HTTP API:
//
//	GET  /v1/table1        ?from&to&collectors&peeras&prefixrange
//	GET  /v1/table2        ?from&to&collectors&peeras&prefixrange
//	GET  /v1/figure/2      ?fromyear&toyear | ?year
//	GET  /v1/figure/3      ?collector&prefix&from&to
//	GET  /v1/figure/4      ?collector&peer&prefix&path&from&to
//	GET  /v1/figure/5      ?collector&peer&prefix&path&from&to
//	GET  /v1/figure/6      ?from&to
//	GET  /v1/infer/peers   ?from&to&collectors
//	GET  /v1/infer/ingress ?from&to&collectors
//	GET  /v1/stats
//	GET  /healthz
//	GET  /readyz           (readiness: 503 until the store view is serveable)
//	GET  /metrics          (Prometheus text, when Config.Metrics is set)
//	POST /v1/state         (binary QuerySpec → binary StateEnvelope)
//
// Times are RFC 3339; collectors/peeras are comma-separated. Every
// analysis answer is a JSON Answer envelope: the data plus provenance
// (cache/snapshots/scan, plan and pushdown stats, compute time, and —
// under a coordinator — per-shard contributions). Request cancellation
// propagates into the residual scans, which stop at the next block
// boundary. The same /v1 surface is served whichever engine sits
// below: single-node answers and coordinator scatter-gather answers
// are bit-identical over the same store.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	serveKind := func(kind string) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			spec, err := specFromRequest(kind, r)
			if err != nil {
				httpError(w, http.StatusBadRequest, err)
				return
			}
			s.serveAnswer(w, r, spec)
		}
	}
	mux.HandleFunc("GET /v1/table1", serveKind(KindTable1))
	mux.HandleFunc("GET /v1/table2", serveKind(KindTable2))
	mux.HandleFunc("GET /v1/figure/{n}", func(w http.ResponseWriter, r *http.Request) {
		kind, ok := map[string]string{
			"2": KindFigure2, "3": KindFigure3, "4": KindFigure4,
			"5": KindFigure5, "6": KindFigure6,
		}[r.PathValue("n")]
		if !ok {
			httpError(w, http.StatusNotFound, fmt.Errorf("unknown figure %q (have 2-6)", r.PathValue("n")))
			return
		}
		spec, err := specFromRequest(kind, r)
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		s.serveAnswer(w, r, spec)
	})
	mux.HandleFunc("GET /v1/infer/peers", serveKind(KindPeers))
	mux.HandleFunc("GET /v1/infer/ingress", serveKind(KindIngress))
	s.handleOps(mux)
	return mux
}

// StateHandler returns the shard-mode HTTP surface: just the state
// protocol plus health and stats — a shard daemon answers analyzer
// state to its coordinator, not shaped JSON to end users.
func (s *Server) StateHandler() http.Handler {
	mux := http.NewServeMux()
	s.handleOps(mux)
	return mux
}

// handleOps registers the endpoints common to both modes: the binary
// state protocol (so any daemon can serve as a shard), stats, health,
// readiness, and — when the server is instrumented — /metrics.
func (s *Server) handleOps(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/state", s.handleState)
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats(r.Context()))
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		h, err := s.engine.Health(r.Context())
		if err != nil {
			httpError(w, http.StatusServiceUnavailable, err)
			return
		}
		// The extra "ok"/"partitions" shape predates BackendHealth and
		// is kept for existing probes; BackendHealth adds generation
		// (the field coordinators poll) and per-shard detail.
		writeJSON(w, http.StatusOK, struct {
			BackendHealth
			OKCompat bool `json:"ok"`
		}{h, h.OK})
	})
	// Readiness is distinct from liveness: /healthz answers "is the
	// process and its engine alive", /readyz answers "should a load
	// balancer route query traffic here" — 503 until the store view is
	// refreshed (and, under a coordinator, ≥1 shard is healthy).
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		ready, reason := s.Ready(r.Context())
		if !ready {
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false, "reason": reason})
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"ready": true})
	})
	if s.metrics != nil {
		mux.Handle("GET /metrics", s.metrics.reg.Handler())
	}
}

// handleState serves the coordinator↔shard protocol: a binary
// QuerySpec in, a binary StateEnvelope out, encoded from the wire form
// Server.State caches. 204 reports an empty store
// (nothing to contribute), which the coordinator treats as a complete
// zero answer rather than a failure.
func (s *Server) handleState(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxSpecBytes+1))
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if len(body) > maxSpecBytes {
		httpError(w, http.StatusBadRequest, fmt.Errorf("query spec exceeds %d bytes", maxSpecBytes))
		return
	}
	spec, err := DecodeQuerySpec(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	s.queries.Add(1)
	env, err := s.State(r.Context(), spec)
	if err != nil {
		if errors.Is(err, ErrEmptyStore) {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		httpError(w, errStatus(r, err), err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(AppendStateEnvelope(nil, env))
}

func (s *Server) serveAnswer(w http.ResponseWriter, r *http.Request, spec QuerySpec) {
	start := time.Now()
	ans, err := s.Answer(r.Context(), spec)
	if err != nil {
		if s.logger != nil {
			s.logger.Warn("query failed", "endpoint", spec.Kind,
				"elapsed", time.Since(start), "err", err)
		}
		httpError(w, errStatus(r, err), err)
		return
	}
	tier := tierOf(ans)
	// The tier header lets load generators and caches classify answers
	// without parsing the body.
	w.Header().Set("X-Comm-Tier", tier)
	if s.logger != nil && s.logger.Enabled(r.Context(), slog.LevelDebug) {
		s.logger.Debug("query", "endpoint", spec.Kind, "tier", tier,
			"elapsed", time.Since(start), "partial", ans.Partial,
			"merged", ans.Plan.Merged, "jumped", ans.Plan.Jumped,
			"scanned", ans.Plan.Scanned, "skipped", ans.Plan.Skipped,
			"generation", ans.generation, "spec", spec.CacheKey())
	}
	writeJSON(w, http.StatusOK, ans)
}

// errStatus maps serving errors onto HTTP statuses.
func errStatus(r *http.Request, err error) int {
	switch {
	case errors.Is(err, r.Context().Err()) && r.Context().Err() != nil:
		// Client went away; the scan already aborted. 499-style.
		return http.StatusRequestTimeout
	case errors.Is(err, ErrEmptyStore):
		return http.StatusServiceUnavailable // store not ingested yet
	case errors.Is(err, ErrBadSpec):
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

func httpError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// specFromRequest parses the query parameters shared by all kinds plus
// the kind-specific ones.
func specFromRequest(kind string, r *http.Request) (QuerySpec, error) {
	q := r.URL.Query()
	spec := QuerySpec{Kind: kind}
	var err error
	if v := q.Get("from"); v != "" {
		if spec.Window.From, err = time.Parse(time.RFC3339, v); err != nil {
			return spec, fmt.Errorf("from: %w", err)
		}
	}
	if v := q.Get("to"); v != "" {
		if spec.Window.To, err = time.Parse(time.RFC3339, v); err != nil {
			return spec, fmt.Errorf("to: %w", err)
		}
	}
	if v := q.Get("collectors"); v != "" {
		spec.Collectors = strings.Split(v, ",")
	}
	if v := q.Get("peeras"); v != "" {
		for _, tok := range strings.Split(v, ",") {
			as, err := strconv.ParseUint(strings.TrimSpace(tok), 10, 32)
			if err != nil {
				return spec, fmt.Errorf("peeras %q: %w", tok, err)
			}
			spec.PeerAS = append(spec.PeerAS, uint32(as))
		}
	}
	if v := q.Get("prefixrange"); v != "" {
		if spec.PrefixRange, err = netip.ParsePrefix(v); err != nil {
			return spec, fmt.Errorf("prefixrange: %w", err)
		}
	}
	switch kind {
	case KindFigure2:
		if v := q.Get("year"); v != "" {
			y, err := strconv.Atoi(v)
			if err != nil {
				return spec, fmt.Errorf("year: %w", err)
			}
			spec.FromYear, spec.ToYear = y, y
		}
		if v := q.Get("fromyear"); v != "" {
			if spec.FromYear, err = strconv.Atoi(v); err != nil {
				return spec, fmt.Errorf("fromyear: %w", err)
			}
		}
		if v := q.Get("toyear"); v != "" {
			if spec.ToYear, err = strconv.Atoi(v); err != nil {
				return spec, fmt.Errorf("toyear: %w", err)
			}
		}
	case KindFigure3, KindFigure4, KindFigure5:
		spec.Collector = q.Get("collector")
		if v := q.Get("prefix"); v != "" {
			if spec.Prefix, err = netip.ParsePrefix(v); err != nil {
				return spec, fmt.Errorf("prefix: %w", err)
			}
		}
		if kind != KindFigure3 {
			if v := q.Get("peer"); v != "" {
				if spec.PeerAddr, err = netip.ParseAddr(v); err != nil {
					return spec, fmt.Errorf("peer: %w", err)
				}
			}
			spec.Path = q.Get("path")
		}
	}
	return spec, nil
}
