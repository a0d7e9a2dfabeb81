package serve

import (
	"time"

	"repro/internal/evstore"
)

// StateAnalyzers is the analyzer set a backend builds per spec.
var StateAnalyzers = stateAnalyzers

// SetAnalyzers replaces the per-spec analyzer builder of b, a
// *LocalBackend or a *RemoteBackend, so a test can hand a query
// analyzers that block mid-plan or count their conversions.
func SetAnalyzers(b Backend, f func(QuerySpec) ([]evstore.NamedAnalyzer, error)) {
	switch b := b.(type) {
	case *LocalBackend:
		b.analyzers = f
	case *RemoteBackend:
		b.analyzers = f
	default:
		panic("serve: SetAnalyzers on a backend without an analyzers hook")
	}
}

// SetHealthTimeout bounds RemoteBackend health probes by d until the
// returned func restores the default.
func SetHealthTimeout(d time.Duration) (restore func()) {
	prev := healthTimeout
	healthTimeout = d
	return func() { healthTimeout = prev }
}

// ShardGenerations returns the coordinator's last known generation per
// shard.
func ShardGenerations(c *Coordinator) map[string]uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	gens := make(map[string]uint64, len(c.gens))
	for n, g := range c.gens {
		gens[n] = g
	}
	return gens
}
