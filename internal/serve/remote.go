package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/evstore"
)

// RemoteBackend speaks the shard protocol to a commservd -shard
// daemon: POST /v1/state with a binary QuerySpec, binary StateEnvelope
// back; GET /healthz for liveness and generation drift. Like every
// backend it holds no cache: the shard daemon's Server caches the
// envelopes it serves, the coordinator's Server caches what it shapes
// from them.
type RemoteBackend struct {
	base   string
	client *http.Client
	// analyzers is stateAnalyzers, which tests wrap to count conversions.
	analyzers func(QuerySpec) ([]evstore.NamedAnalyzer, error)
	// lastGen is the most recently observed shard generation (0 until
	// the first successful response), used by Refresh to detect drift.
	lastGen atomic.Uint64
}

// healthTimeout bounds one /healthz probe, so a shard that accepts TCP
// but never answers cannot stall a coordinator's Refresh or Health.
var healthTimeout = 5 * time.Second

// NewRemoteBackend returns a backend for a shard daemon's base URL
// (e.g. "http://10.0.0.1:8081"). The client carries no global timeout:
// cold archive scans can legitimately run long, so a State deadline
// belongs to the request context (health probes: healthTimeout).
func NewRemoteBackend(base string) *RemoteBackend {
	return &RemoteBackend{
		base:      strings.TrimRight(base, "/"),
		client:    &http.Client{},
		analyzers: stateAnalyzers,
	}
}

// Name is the shard's base URL — the identity that appears in
// partial-answer provenance.
func (rb *RemoteBackend) Name() string { return rb.base }

// State asks the remote shard and restores its answer into fresh
// accumulators: the one decode of a shard hop.
func (rb *RemoteBackend) State(ctx context.Context, spec QuerySpec) (*StateEnvelope, error) {
	named, err := rb.analyzers(spec)
	if err != nil {
		return nil, err
	}
	body := AppendQuerySpec(nil, spec)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, rb.base+"/v1/state", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := rb.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("serve: shard %s: %w", rb.base, err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNoContent:
		return nil, fmt.Errorf("shard %s: %w", rb.base, ErrEmptyStore)
	default:
		return nil, fmt.Errorf("serve: shard %s: %s: %s", rb.base, resp.Status, remoteErrText(resp.Body))
	}
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxEnvelopeBytes+1))
	if err != nil {
		return nil, fmt.Errorf("serve: shard %s: read: %w", rb.base, err)
	}
	if len(raw) > maxEnvelopeBytes {
		return nil, fmt.Errorf("serve: shard %s: envelope exceeds %d bytes", rb.base, maxEnvelopeBytes)
	}
	env, err := DecodeStateEnvelope(raw)
	if err != nil {
		return nil, fmt.Errorf("serve: shard %s: %w", rb.base, err)
	}
	env.Backend = rb.base // provenance names the shard as the cluster knows it
	if err := restoreStates(named, env); err != nil {
		return nil, err
	}
	env.Named, env.Keys, env.States = named, nil, nil
	rb.lastGen.Store(env.Generation)
	return env, nil
}

// restoreStates restores an envelope's snapshots into the fresh named
// set for its spec, refusing keys that differ from it in name or order
// (registry or version skew between tiers, which Merge cannot detect).
// On error the caller must discard the set.
func restoreStates(named []evstore.NamedAnalyzer, env *StateEnvelope) error {
	if len(env.Keys) != len(named) || len(env.States) != len(named) {
		return fmt.Errorf("serve: backend %s answered %d states, want %d", env.Backend, len(env.States), len(named))
	}
	for i, na := range named {
		if env.Keys[i] != na.Key {
			return fmt.Errorf("serve: backend %s answered key %q at %d, want %q", env.Backend, env.Keys[i], i, na.Key)
		}
		if err := na.Proto.Restore(env.States[i]); err != nil {
			return fmt.Errorf("serve: restore %q from %s: %w", na.Key, env.Backend, err)
		}
	}
	return nil
}

// remoteErrText extracts the {"error": ...} body of a failed shard
// response, falling back to the raw (truncated) body.
func remoteErrText(body io.Reader) string {
	raw, _ := io.ReadAll(io.LimitReader(body, 4096))
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(raw, &e) == nil && e.Error != "" {
		return e.Error
	}
	return strings.TrimSpace(string(raw))
}

// Refresh probes the shard's health endpoint and reports whether its
// generation moved since the last observation. The shard refreshes its
// own snapshot index (its -watch loop); the coordinator only needs to
// know that answers may have changed.
func (rb *RemoteBackend) Refresh(ctx context.Context) (RefreshStats, error) {
	h, err := rb.Health(ctx)
	if err != nil {
		return RefreshStats{}, err
	}
	prev := rb.lastGen.Swap(h.Generation)
	return RefreshStats{
		Generation: h.Generation,
		Changed:    prev != 0 && prev != h.Generation,
	}, nil
}

// Watch polls the shard's generation on the given interval, invoking
// onChange when it drifts or the shard stops answering.
func (rb *RemoteBackend) Watch(ctx context.Context, interval time.Duration, onChange func(RefreshStats, error)) error {
	return pollWatch(ctx, interval, rb.Refresh, onChange)
}

// pollWatch calls refresh every tick until ctx ends, reporting each
// refresh that changed answers and each start of a failure run once; the
// success that ends a run reports a change (the store may have moved).
func pollWatch(ctx context.Context, interval time.Duration, refresh func(context.Context) (RefreshStats, error), onChange func(RefreshStats, error)) error {
	if interval <= 0 {
		interval = time.Second
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	down := false
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ticker.C:
		}
		rs, err := refresh(ctx)
		rs.Changed = err == nil && (rs.Changed || down)
		report := rs.Changed || (err != nil && !down)
		down = err != nil
		if report && onChange != nil {
			onChange(rs, err)
		}
	}
}

// Health fetches the shard's /healthz within healthTimeout.
func (rb *RemoteBackend) Health(ctx context.Context) (BackendHealth, error) {
	ctx, cancel := context.WithTimeout(ctx, healthTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rb.base+"/healthz", nil)
	if err != nil {
		return BackendHealth{}, err
	}
	resp, err := rb.client.Do(req)
	if err != nil {
		return BackendHealth{}, fmt.Errorf("serve: shard %s: %w", rb.base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return BackendHealth{}, fmt.Errorf("serve: shard %s: healthz: %s", rb.base, resp.Status)
	}
	var h BackendHealth
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&h); err != nil {
		return BackendHealth{}, fmt.Errorf("serve: shard %s: healthz: %w", rb.base, err)
	}
	h.Backend = rb.base
	return h, nil
}
