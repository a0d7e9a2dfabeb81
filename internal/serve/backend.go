package serve

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/analysis"
	"repro/internal/beacon"
	"repro/internal/classify"
	"repro/internal/evstore"
)

// The two-tier serving engine. A Backend answers "the merged analyzer
// STATE for this spec over your partitions" — not shaped JSON — as a
// StateEnvelope carrying the accumulators themselves. Because every
// analyzer's Merge is commutative and associative across
// session-respecting splits, a Coordinator can fan one spec out to N
// shard backends (each holding a disjoint set of collector timelines)
// and Merge every returned set into one — and the result is
// bit-identical to one LocalBackend over the union store. State becomes
// bytes only where it leaves the process: a shard hop costs one
// Snapshot (Server.State) and one Restore (RemoteBackend), a single-node
// answer neither. The Server frontend is engine-agnostic: it shapes
// whatever backend it is given, so single-node and scatter-gather modes
// share every line of the answer/caching/HTTP path.

// ErrEmptyStore reports a backend whose store holds no partitions yet.
// A serving daemon may start before its first ingest seals anything,
// so this is "not ready", not failure: the HTTP layer maps it to 503,
// and a Coordinator treats an empty shard as contributing nothing
// rather than degrading the answer. (The text deliberately embeds the
// evstore "no partitions" phrasing relied on by clients of the
// single-node daemon.)
var ErrEmptyStore = errors.New("serve: no partitions in store yet")

// ErrBadSpec reports a query spec the client must change before any
// backend can answer it — a missing parameter, an unknown kind, an
// undecodable wire spec. Validation wraps it so the HTTP layer can map
// it to 400 by identity, not by message text.
var ErrBadSpec = errors.New("serve: bad query spec")

// RefreshStats describes one backend refresh. The embedded
// SnapshotBuildStats is the local sidecar-build accounting (zero for
// remote backends, which refresh on their own node).
type RefreshStats struct {
	evstore.SnapshotBuildStats
	// Generation is the backend's store-version fingerprint after the
	// refresh (manifest fingerprint for a local store, the joint vector
	// hash for a coordinator). 0 means unknown.
	Generation uint64
	// Changed reports whether answers may differ from before the
	// refresh — the signal that the Server above this backend must
	// drop its cache.
	Changed bool
}

// ShardProvenance records one backend's contribution to an answer.
// Err is non-empty when the backend failed to answer, in which case
// its partitions are MISSING from the result (a partial answer).
type ShardProvenance struct {
	Backend    string        `json:"backend"`
	Generation uint64        `json:"generation,omitempty"`
	Source     string        `json:"source,omitempty"` // "snapshots", "scan", "empty"
	Elapsed    time.Duration `json:"elapsed_ns,omitempty"`
	Err        string        `json:"error,omitempty"`
}

// StateEnvelope is a backend's answer to one QuerySpec: the spec's
// analyzers after observing the backend's matching events, plus
// execution provenance. In process the state is Named; on the wire
// (codec.go) it is Keys and States, filled only by Server.State and read
// only by RemoteBackend.
type StateEnvelope struct {
	// Backend names the answering engine; Generation is its store
	// version at answer time.
	Backend    string
	Generation uint64
	Source     string // "snapshots" or "scan"
	Elapsed    time.Duration
	Plan       evstore.PlanStats
	Scan       evstore.ScanStats
	Merges     int
	// Named is the merged analyzer set, in stateAnalyzers order.
	Named []evstore.NamedAnalyzer
	// Keys and States are Named's wire form: keys and snapshot bytes.
	Keys   []string
	States [][]byte
	// Shards is the per-backend provenance — one entry for a local
	// backend, one per shard for a coordinator.
	Shards []ShardProvenance
}

// Partial reports whether any contributing backend failed, i.e. the
// envelope covers only part of the store.
func (e *StateEnvelope) Partial() bool {
	for _, p := range e.Shards {
		if p.Err != "" {
			return true
		}
	}
	return false
}

// BackendHealth is a backend's liveness/readiness snapshot — the
// /healthz payload of a shard daemon and the probe a coordinator polls
// for generation drift.
type BackendHealth struct {
	Backend     string          `json:"backend"`
	OK          bool            `json:"ok"`
	Generation  uint64          `json:"generation"`
	Partitions  int             `json:"partitions"`
	Snapshotted int             `json:"snapshotted"`
	Shards      []BackendHealth `json:"shards,omitempty"`
}

// Backend is a state engine the Server frontend can drive: local
// store, remote shard, or scatter-gather coordinator. Implementations
// are safe for concurrent use.
type Backend interface {
	// Name identifies the backend in provenance and stats.
	Name() string
	// State answers one spec as merged analyzer state, in Named. Specs
	// whose kind has no single-state form (figure2) are rejected; the
	// Server decomposes them into per-year sub-specs first. An empty store
	// is ErrEmptyStore. The caller owns the returned accumulators: Merge
	// into an empty receiver takes over the argument's maps, so a backend
	// never returns accumulators that it or a cache keeps.
	State(ctx context.Context, spec QuerySpec) (*StateEnvelope, error)
	// Refresh re-checks the underlying store(s) for newly sealed
	// partitions and reports whether answers may have changed.
	Refresh(ctx context.Context) (RefreshStats, error)
	// Watch follows the store(s) and invokes onChange after each
	// refresh that changed (or failed to check) the backend's state.
	// Blocks until ctx is cancelled; run on its own goroutine.
	Watch(ctx context.Context, interval time.Duration, onChange func(RefreshStats, error)) error
	// Health reports liveness, store coverage, and the current
	// generation.
	Health(ctx context.Context) (BackendHealth, error)
}

// stateAnalyzers returns the fresh named analyzer set for a spec's
// kind — the unit both tiers compute and merge. The first
// analyzer is the kind's primary (the one shaped into Answer.Data).
// Kind validation lives here so local and remote execution reject
// malformed specs identically.
func stateAnalyzers(spec QuerySpec) ([]evstore.NamedAnalyzer, error) {
	switch spec.Kind {
	case KindTable1:
		return []evstore.NamedAnalyzer{{Key: "table1", Proto: analysis.NewTable1()}}, nil
	case KindTable2:
		return []evstore.NamedAnalyzer{{Key: "counts", Proto: analysis.NewCounts()}}, nil
	case KindFigure3:
		if !spec.Prefix.IsValid() || spec.Collector == "" {
			return nil, fmt.Errorf("%w: figure3 needs collector and prefix", ErrBadSpec)
		}
		return []evstore.NamedAnalyzer{{
			Key:   sessionMixKey(spec.Collector, spec.Prefix),
			Proto: analysis.NewSessionMix(spec.Collector, spec.Prefix),
		}}, nil
	case KindFigure4, KindFigure5:
		if spec.Collector == "" || !spec.PeerAddr.IsValid() || !spec.Prefix.IsValid() || spec.Path == "" {
			return nil, fmt.Errorf("%w: %s needs collector, peer, prefix, and path", ErrBadSpec, spec.Kind)
		}
		session := classify.SessionKey{Collector: spec.Collector, PeerAddr: spec.PeerAddr}
		// Route-specific accumulators are not in the sidecar registry
		// (Key ""); the planner still jumps the pre-window prelude.
		return []evstore.NamedAnalyzer{{Key: "", Proto: analysis.NewCumulative(session, spec.Prefix, spec.Path)}}, nil
	case KindFigure6:
		return []evstore.NamedAnalyzer{{Key: "revealed:ripe", Proto: analysis.NewRevealed(beacon.RIPE)}}, nil
	case KindPeers:
		return []evstore.NamedAnalyzer{{Key: "peers", Proto: analysis.NewPeerBehavior()}}, nil
	case KindIngress:
		return []evstore.NamedAnalyzer{{Key: "ingress", Proto: analysis.NewIngress()}}, nil
	case KindFigure2:
		return nil, fmt.Errorf("%w: figure2 has no single-state form; decompose into per-year table2 specs", ErrBadSpec)
	default:
		return nil, fmt.Errorf("%w: unknown query kind %q", ErrBadSpec, spec.Kind)
	}
}
