package analysis

import (
	"math/rand"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"repro/internal/beacon"
	"repro/internal/bgp"
	"repro/internal/classify"
	"repro/internal/stream"
	"repro/internal/workload"
)

// mergeLawFixture builds the shard inputs for the merge-law property:
// the beacon day's per-(collector, peer) session sources — any grouping
// of whole sources is a session-respecting split — plus one hand-made
// single-event source (its own session) and the analyzer prototypes
// parameterized from the materialized data.
func mergeLawFixture(t testing.TB) (sources []stream.EventSource, protos []Analyzer) {
	t.Helper()
	cfg := workload.DefaultBeaconConfig(time.Date(2020, 3, 15, 0, 0, 0, 0, time.UTC))
	cfg.Collectors = 3
	cfg.PeersPerCollector = 4
	_, sources = workload.BeaconSources(cfg)

	// A one-event session of its own: the "single-event shard" case.
	solo := classify.Event{
		Time:      cfg.Day.Add(5 * time.Hour),
		Collector: "solo",
		PeerAS:    64999,
		PeerAddr:  netip.MustParseAddr("10.99.99.99"),
		Prefix:    netip.MustParsePrefix("198.51.100.0/24"),
		ASPath:    bgp.NewASPath(64999, 12654),
		Communities: bgp.Communities{
			bgp.NewCommunity(3356, 2100), bgp.NewCommunity(3356, 1001),
		},
	}
	sources = append(sources, stream.FromSlice([]classify.Event{solo}))

	// Parameterize the route-specific analyzers off a real tagged route.
	events := stream.Collect(stream.Concat(sources...))
	var route *classify.Event
	for i := range events {
		e := &events[i]
		if !e.Withdraw && len(e.Communities) > 0 && beacon.IsBeaconPrefix(e.Prefix) {
			route = e
			break
		}
	}
	if route == nil {
		t.Fatal("no tagged beacon announcement in fixture")
	}
	protos = []Analyzer{
		NewTable1(),
		NewCounts(),
		NewSessionMix(route.Collector, route.Prefix),
		NewCumulative(route.Session(), route.Prefix, route.ASPath.String()),
		NewRevealed(cfg.Schedule),
		NewPeerBehavior(),
		NewIngress(),
		NewGeoBreakdown(route.Session(), route.Prefix.String(), route.ASPath.String()),
	}
	return sources, protos
}

// TestAnalyzerMergeLaws is the engine's core property: for EVERY
// analyzer, splitting the event stream at arbitrary session-respecting
// boundaries, running a Fresh instance per shard, and merging (in any
// order) yields results identical to one sequential pass — including
// empty shards and a single-event shard.
func TestAnalyzerMergeLaws(t *testing.T) {
	sources, protos := mergeLawFixture(t)
	inWindow := func(e classify.Event) bool { return true }

	// Sequential reference: one pass over everything.
	want := make([]any, len(protos))
	seq := classify.FreshAll(protos)
	RunAll(stream.Concat(sources...), inWindow, seq...)
	for i, a := range seq {
		want[i] = a.Finish()
	}

	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 8; trial++ {
		// Deal whole sources into nshards groups; several stay empty on
		// some trials (nshards can exceed the source count), and the solo
		// source regularly lands alone — the single-event shard.
		nshards := 1 + rng.Intn(len(sources)+3)
		groups := make([][]stream.EventSource, nshards)
		for _, src := range sources {
			g := rng.Intn(nshards)
			groups[g] = append(groups[g], src)
		}

		shardAccs := make([][]Analyzer, nshards)
		for g, group := range groups {
			shardAccs[g] = classify.FreshAll(protos)
			RunAll(stream.Concat(group...), inWindow, shardAccs[g]...)
		}

		// Merge in a random order: Merge must be commutative.
		merged := classify.FreshAll(protos)
		for _, g := range rng.Perm(nshards) {
			classify.MergeAll(merged, shardAccs[g])
		}
		for i, a := range merged {
			got := a.Finish()
			if !reflect.DeepEqual(got, want[i]) {
				t.Errorf("trial %d (%d shards): analyzer %T diverged:\n got %+v\nwant %+v",
					trial, nshards, protos[i], got, want[i])
			}
		}
	}
}

// TestRunAllAloneMatchesOnePass pins the one-pass claim the study
// commands rely on: every analyzer run alone through RunAll returns
// exactly what it returns when it shares one RunAll pass with all the
// others.
func TestRunAllAloneMatchesOnePass(t *testing.T) {
	sources, protos := mergeLawFixture(t)
	together := classify.FreshAll(protos)
	RunAll(stream.Concat(sources...), nil, together...)
	for i, proto := range protos {
		alone := proto.Fresh()
		RunAll(stream.Concat(sources...), nil, alone)
		if got, want := alone.Finish(), together[i].Finish(); !reflect.DeepEqual(got, want) {
			t.Errorf("%T alone diverged from the shared pass:\n got %+v\nwant %+v", proto, got, want)
		}
	}
}

// TestFigureSeriesParallelDeterminism pins the pooled figure series to
// their sequential rows: identical output for any worker count.
func TestFigureSeriesParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("generates several full synthetic days; skipped in -short mode")
	}
	seqF2 := Figure2SeriesWorkers(2018, 2020, 1)
	for _, workers := range []int{2, 4, 0} {
		if got := Figure2SeriesWorkers(2018, 2020, workers); !reflect.DeepEqual(got, seqF2) {
			t.Errorf("Figure2Series workers=%d diverged from sequential", workers)
		}
	}
	seqF6 := Figure6SeriesWorkers(2019, 2020, 1)
	if got := Figure6SeriesWorkers(2019, 2020, 4); !reflect.DeepEqual(got, seqF6) {
		t.Error("Figure6Series parallel diverged from sequential")
	}
	seqQ := Figure2SeriesQuarterlyWorkers(2020, 2020, 1)
	if got := Figure2SeriesQuarterlyWorkers(2020, 2020, 3); !reflect.DeepEqual(got, seqQ) {
		t.Error("Figure2SeriesQuarterly parallel diverged from sequential")
	}
}
