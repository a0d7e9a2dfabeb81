package serve

import "repro/internal/evstore"

// StateAnalyzers is the analyzer set a LocalBackend builds per spec.
var StateAnalyzers = stateAnalyzers

// SetAnalyzers replaces lb's per-spec analyzer builder, so a test can
// hand a query analyzers that block mid-plan.
func SetAnalyzers(lb *LocalBackend, f func(QuerySpec) ([]evstore.NamedAnalyzer, error)) {
	lb.analyzers = f
}
