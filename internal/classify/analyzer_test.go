package classify

import (
	"net/netip"
	"testing"
	"time"
)

// analyzerEvents is a small stream with classification state churn:
// two sessions, announcements, a duplicate, and a withdrawal.
func analyzerEvents() []Event {
	t0 := time.Date(2020, 3, 15, 12, 0, 0, 0, time.UTC)
	p := netip.MustParsePrefix("84.205.64.0/24")
	a1 := netip.MustParseAddr("10.0.0.1")
	a2 := netip.MustParseAddr("10.0.0.2")
	return []Event{
		{Time: t0, Collector: "rrc00", PeerAddr: a1, Prefix: p},
		{Time: t0.Add(time.Minute), Collector: "rrc00", PeerAddr: a1, Prefix: p},
		{Time: t0.Add(2 * time.Minute), Collector: "rrc01", PeerAddr: a2, Prefix: p},
		{Time: t0.Add(3 * time.Minute), Collector: "rrc00", PeerAddr: a1, Prefix: p, Withdraw: true},
		{Time: t0.Add(4 * time.Minute), Collector: "rrc00", PeerAddr: a1, Prefix: p},
	}
}

// TestRunAllMatchesSingleClassifier pins the dispatcher to the manual
// classify loop: same classifier state, same tallies, any number of
// analyzers fed from one pass.
func TestRunAllMatchesSingleClassifier(t *testing.T) {
	evs := analyzerEvents()

	want := Counts{}
	cl := New()
	for _, e := range evs {
		res, ok := cl.Observe(e)
		if !ok {
			want.Withdrawals++
			continue
		}
		want.Add(res)
	}

	a1, a2 := &CountsAnalyzer{}, &CountsAnalyzer{}
	RunAll(func(yield func(Event) bool) {
		for _, e := range evs {
			if !yield(e) {
				return
			}
		}
	}, nil, a1, a2)
	if a1.Counts != want || a2.Counts != want {
		t.Errorf("RunAll counts %+v / %+v != reference %+v", a1.Counts, a2.Counts, want)
	}
	if got := a1.Finish().(Counts); got != want {
		t.Errorf("Finish = %+v, want %+v", got, want)
	}
}

// TestRunAllWindow checks that out-of-window events feed classifier
// state but are not tallied (the warm-up convention).
func TestRunAllWindow(t *testing.T) {
	evs := analyzerEvents()
	cut := evs[1].Time // first event is warm-up only
	inWindow := func(e Event) bool { return !e.Time.Before(cut) }

	a := &CountsAnalyzer{}
	RunAll(func(yield func(Event) bool) {
		for _, e := range evs {
			if !yield(e) {
				return
			}
		}
	}, inWindow, a)

	// The second event is a duplicate of the warmed-up first: state from
	// outside the window must make it an nn, not a First pc/pn.
	if got := a.Counts.Of(NN); got != 1 {
		t.Errorf("nn = %d, want 1 (warm-up state lost?)", got)
	}
	if got := a.Counts.Announcements() + a.Counts.Withdrawals; got != 4 {
		t.Errorf("tallied %d events, want 4 in-window", got)
	}
}

// TestCountsAnalyzerMergeFresh pins the merge law for the built-in
// accumulator: observing a split stream and merging equals one pass,
// including empty and single-event shards, in either merge order.
func TestCountsAnalyzerMergeFresh(t *testing.T) {
	evs := analyzerEvents()
	whole := &CountsAnalyzer{}
	cl := New()
	for _, e := range evs {
		res, _ := cl.Observe(e)
		whole.Observe(res, e)
	}

	// Shard per collector (session-respecting), plus an empty shard.
	shards := map[string]*CountsAnalyzer{}
	cls := map[string]*Classifier{}
	for _, e := range evs {
		if shards[e.Collector] == nil {
			shards[e.Collector] = whole.Fresh().(*CountsAnalyzer)
			cls[e.Collector] = New()
		}
		res, _ := cls[e.Collector].Observe(e)
		shards[e.Collector].Observe(res, e)
	}
	for _, order := range [][]string{{"rrc00", "rrc01", "empty"}, {"empty", "rrc01", "rrc00"}} {
		merged := whole.Fresh().(*CountsAnalyzer)
		for _, name := range order {
			sh, ok := shards[name]
			if !ok {
				sh = whole.Fresh().(*CountsAnalyzer) // empty shard
			} else {
				cp := *sh
				sh = &cp
			}
			merged.Merge(sh)
		}
		if merged.Counts != whole.Counts {
			t.Errorf("merge order %v: %+v != %+v", order, merged.Counts, whole.Counts)
		}
	}
}

// TestFreshAllMergeAll checks the helper pair used by the parallel
// engines.
func TestFreshAllMergeAll(t *testing.T) {
	proto := []Analyzer{&CountsAnalyzer{}, &CountsAnalyzer{}}
	locals := FreshAll(proto)
	if len(locals) != 2 {
		t.Fatalf("FreshAll returned %d analyzers", len(locals))
	}
	locals[0].Observe(Result{Type: PC}, Event{})
	locals[1].Observe(Result{Type: NN}, Event{})
	MergeAll(proto, locals)
	if got := proto[0].(*CountsAnalyzer).Counts.Of(PC); got != 1 {
		t.Errorf("proto[0] pc = %d", got)
	}
	if got := proto[1].(*CountsAnalyzer).Counts.Of(NN); got != 1 {
		t.Errorf("proto[1] nn = %d", got)
	}
	if proto[0].(*CountsAnalyzer).Counts.Of(NN) != 0 {
		t.Error("cross-slot merge leaked")
	}
}
