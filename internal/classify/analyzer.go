package classify

import "iter"

// Analyzer is a mergeable accumulator over a classified event stream —
// the unit of the ask-many-questions-of-one-pass analysis engine. An
// analyzer observes (classification, event) pairs, can absorb another
// instance of its own type, and produces its result once the stream is
// exhausted. N analyzers answer N questions in ONE classification pass
// (RunAll), and shard-parallel runs over a store (the evstore
// executor) run a Fresh instance per shard and Merge.
//
// Contract:
//
//   - Observe is called for every tallied event. For withdrawals the
//     Result is the zero value; analyzers must branch on e.Withdraw,
//     not on the Result.
//   - Merge(other) absorbs an accumulator of the same concrete type;
//     implementations type-assert and may panic on a mismatch (it is a
//     programming error, never a data condition). After the merge,
//     other must not be used again: a merge into an empty accumulator
//     may take over other's storage instead of copying it.
//   - Merge must be commutative and associative for any split of the
//     event stream at (session, prefix)-stream-respecting boundaries:
//     running Fresh analyzers over the shards and merging yields a
//     state with results identical to one sequential pass. Shard
//     boundaries that cut through a stream change classification
//     itself (a fresh classifier re-Firsts the stream), so no analyzer
//     can repair that; the engines only ever shard per collector.
//   - Finish computes the result; it may sort internal state, so call
//     it once, after all Observe, Merge and Restore calls.
//   - Snapshot appends a serialized encoding of the accumulator state
//     to dst; Restore folds a snapshot taken by the same concrete type
//     with the same configuration into the receiver (analyzers with
//     constructor parameters encode only state, not configuration).
//     On a Fresh receiver, Restore reproduces the snapshotted state:
//     Restore(Snapshot(s)) followed by Finish yields results identical
//     to Finish on s. On any other receiver, Restore equals Merge of a
//     Fresh instance restored from the same bytes, so one accumulator
//     restores any number of shard or partition snapshots in any order
//     with no temporary per snapshot. A Restore that errors leaves the
//     receiver unchanged. Together these make accumulator state
//     persistable (the evstore snapshot sidecars) and mergeable across
//     process boundaries. (Classifier.Restore is not part of this
//     contract: a classifier's state does not merge, and its Restore
//     still replaces it.)
type Analyzer interface {
	Observe(res Result, e Event)
	Merge(other Analyzer)
	Finish() any
	Fresh() Analyzer
	Snapshot(dst []byte) []byte
	Restore(src []byte) error
}

// RunAll drives one classifier over the events and fans every tallied
// (result, event) pair out to all analyzers — N questions, one pass,
// one classifier state map. Events outside inWindow (nil = everything)
// still feed classifier state, matching the warm-up convention of the
// day datasets; only in-window events reach the analyzers.
func RunAll(events iter.Seq[Event], inWindow func(Event) bool, analyzers ...Analyzer) {
	cl := New()
	for e := range events {
		res, _ := cl.Observe(e)
		if inWindow != nil && !inWindow(e) {
			continue
		}
		for _, a := range analyzers {
			a.Observe(res, e)
		}
	}
}

// FreshAll returns a Fresh instance of each analyzer, in order — the
// per-shard accumulator set of the parallel engines.
func FreshAll(analyzers []Analyzer) []Analyzer {
	fresh := make([]Analyzer, len(analyzers))
	for i, a := range analyzers {
		fresh[i] = a.Fresh()
	}
	return fresh
}

// MergeAll merges each shard accumulator into its prototype, pairwise
// by position. The caller serializes concurrent MergeAll calls.
func MergeAll(into, from []Analyzer) {
	for i, a := range into {
		a.Merge(from[i])
	}
}

// CountsAnalyzer accumulates the Table 2 type counts — the accumulator
// the parallel engines merge per shard.
type CountsAnalyzer struct {
	Counts Counts
}

// Observe tallies one classified event.
func (a *CountsAnalyzer) Observe(res Result, e Event) {
	if e.Withdraw {
		a.Counts.Withdrawals++
		return
	}
	a.Counts.Add(res)
}

// Merge absorbs another CountsAnalyzer.
func (a *CountsAnalyzer) Merge(other Analyzer) {
	a.Counts.Merge(other.(*CountsAnalyzer).Counts)
}

// Finish returns the Counts.
func (a *CountsAnalyzer) Finish() any { return a.Counts }

// Fresh returns an empty CountsAnalyzer.
func (a *CountsAnalyzer) Fresh() Analyzer { return &CountsAnalyzer{} }
