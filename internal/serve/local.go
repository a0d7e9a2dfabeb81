package serve

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/evstore"
)

// LocalBackend answers state queries over one store directory through
// the snapshot index's planner (evstore.SnapshotIndex.Query): validate
// the spec, run the plan, hand back the analyzers it merged into. It
// holds no cache — every State call computes; the Server above caches
// envelopes (shard mode) and answers.
type LocalBackend struct {
	cfg Config
	ix  *evstore.SnapshotIndex
	// analyzers builds a spec's fresh analyzer set: stateAnalyzers,
	// which tests wrap to hold a query open mid-plan.
	analyzers func(QuerySpec) ([]evstore.NamedAnalyzer, error)
}

// NewLocalBackend opens the store's snapshot index (building any
// missing sidecars for the registry) and returns the backend.
func NewLocalBackend(ctx context.Context, cfg Config) (*LocalBackend, RefreshStats, error) {
	if cfg.Registry == nil {
		cfg.Registry = DefaultRegistry()
	}
	ix, bs, err := evstore.OpenSnapshotIndex(ctx, cfg.Dir, cfg.Registry)
	rs := RefreshStats{SnapshotBuildStats: bs, Changed: true}
	if err != nil {
		return nil, rs, err
	}
	lb := &LocalBackend{cfg: cfg, ix: ix, analyzers: stateAnalyzers}
	rs.Generation = lb.generation()
	return lb, rs, nil
}

// Name identifies the backend in provenance. Deliberately not the
// store path: single-node answers should not leak filesystem layout
// into the public API.
func (lb *LocalBackend) Name() string { return "local" }

// Registry returns the snapshot-indexed analyzer keys.
func (lb *LocalBackend) Registry() []string {
	keys := make([]string, 0, len(lb.cfg.Registry))
	for _, na := range lb.cfg.Registry {
		keys = append(keys, na.Key)
	}
	return keys
}

func (lb *LocalBackend) generation() uint64 { return lb.ix.Generation() }

// State answers one spec as merged analyzer state: it runs the spec
// through the index's planner into fresh analyzers and returns them in
// an envelope stamped with the generation of the index view the plan
// was made from. A spec with per-event filters plans as a cold
// scan (no sidecar trusted), so it reports Source "scan" like any
// answer that merged and jumped nothing.
func (lb *LocalBackend) State(ctx context.Context, spec QuerySpec) (*StateEnvelope, error) {
	named, err := lb.analyzers(spec)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	env := &StateEnvelope{Backend: lb.Name()}
	q := evstore.Query{Window: spec.Window, Collectors: spec.Collectors, PeerAS: spec.PeerAS, PrefixRange: spec.PrefixRange}
	ss, err := lb.ix.Query(ctx, q, lb.cfg.Workers, named...)
	if err != nil {
		return nil, mapEmptyStore(err)
	}
	env.Plan = ss.Plan
	env.Scan = ss.Scan
	env.Merges = ss.Merges
	if ss.Plan.Merged > 0 || ss.Plan.Jumped > 0 {
		env.Source = "snapshots"
	} else {
		env.Source = "scan"
	}
	// The generation of the view the query planned from, not the
	// index's now: a Refresh that completed mid-query must not stamp
	// its fingerprint on an answer computed without it.
	env.Generation = ss.Generation
	env.Named = named
	env.Elapsed = time.Since(start)
	env.Shards = []ShardProvenance{{
		Backend:    lb.Name(),
		Generation: env.Generation,
		Source:     env.Source,
		Elapsed:    env.Elapsed,
	}}
	return env, nil
}

// mapEmptyStore folds evstore's empty-store error into the serving
// tier's sentinel so coordinators and HTTP handlers can match it.
func mapEmptyStore(err error) error {
	if errors.Is(err, evstore.ErrNoPartitions) {
		return fmt.Errorf("%w (%s)", ErrEmptyStore, err)
	}
	return err
}

// Refresh incrementally snapshots newly sealed partitions and reports
// whether the store changed.
func (lb *LocalBackend) Refresh(ctx context.Context) (RefreshStats, error) {
	before := lb.generation()
	bs, err := lb.ix.Refresh(ctx)
	rs := RefreshStats{SnapshotBuildStats: bs}
	if err != nil {
		return rs, err
	}
	rs.Generation = lb.generation()
	rs.Changed = rs.Generation != before || bs.Built > 0
	return rs, nil
}

// Watch follows the store manifest and refreshes whenever live ingest
// seals new partitions.
func (lb *LocalBackend) Watch(ctx context.Context, interval time.Duration, onChange func(RefreshStats, error)) error {
	return evstore.Watch(ctx, lb.ix.Manifest(), interval, func(evstore.Manifest, []evstore.PartitionRef) {
		rs, err := lb.Refresh(ctx)
		if onChange != nil {
			onChange(rs, err)
		}
	})
}

// Health reports store coverage and the current generation.
func (lb *LocalBackend) Health(ctx context.Context) (BackendHealth, error) {
	parts, snapped := lb.ix.Coverage()
	return BackendHealth{
		Backend:     lb.Name(),
		OK:          true,
		Generation:  lb.generation(),
		Partitions:  parts,
		Snapshotted: snapped,
	}, nil
}
