package stream_test

import (
	"math/rand"
	"net/netip"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/classify"
	"repro/internal/stream"
)

var ts0 = time.Date(2020, 3, 15, 0, 0, 0, 0, time.UTC)

func mkEvents(collector string, times ...int) []classify.Event {
	out := make([]classify.Event, len(times))
	for i, s := range times {
		out[i] = classify.Event{
			Time:      ts0.Add(time.Duration(s) * time.Second),
			Collector: collector,
			PeerAddr:  netip.MustParseAddr("10.0.0.1"),
			Prefix:    netip.MustParsePrefix("84.205.64.0/24"),
		}
	}
	return out
}

func TestFromSliceCollectRoundTrip(t *testing.T) {
	evs := mkEvents("rrc00", 1, 2, 3)
	got := stream.Collect(stream.FromSlice(evs))
	if !reflect.DeepEqual(got, evs) {
		t.Errorf("round trip mismatch: %v vs %v", got, evs)
	}
	if out := stream.Collect(stream.Empty()); len(out) != 0 {
		t.Errorf("empty source collected %d events", len(out))
	}
	if n := stream.Count(stream.FromSlice(evs)); n != 3 {
		t.Errorf("Count = %d", n)
	}
}

func TestFilterAndWindow(t *testing.T) {
	evs := mkEvents("rrc00", 0, 10, 20, 30)
	odd := stream.Collect(stream.Filter(stream.FromSlice(evs), func(e classify.Event) bool {
		return e.Time.Second()%20 == 10
	}))
	if len(odd) != 2 || odd[0].Time.Second() != 10 || odd[1].Time.Second() != 30 {
		t.Errorf("filter: %v", odd)
	}
	// Window is [from, to).
	win := stream.Collect(stream.Window(stream.FromSlice(evs), ts0.Add(10*time.Second), ts0.Add(30*time.Second)))
	if len(win) != 2 {
		t.Fatalf("window kept %d events", len(win))
	}
	if win[0].Time.Second() != 10 || win[1].Time.Second() != 20 {
		t.Errorf("window boundaries: %v", win)
	}
}

func TestConcatOrderAndEarlyExit(t *testing.T) {
	a := mkEvents("rrc00", 5, 6)
	b := mkEvents("rrc01", 1, 2)
	got := stream.Collect(stream.Concat(stream.FromSlice(a), stream.FromSlice(b)))
	if len(got) != 4 || got[0].Collector != "rrc00" || got[3].Collector != "rrc01" {
		t.Errorf("concat order: %v", got)
	}
	// Early exit must not touch the second source.
	touchedB := false
	src := stream.Concat(stream.FromSlice(a), func(yield func(classify.Event) bool) {
		touchedB = true
	})
	for range src {
		break
	}
	if touchedB {
		t.Error("early exit leaked into the second source")
	}
}

func TestTee(t *testing.T) {
	evs := mkEvents("rrc00", 1, 2, 3)
	seen := 0
	got := stream.Collect(stream.Tee(stream.FromSlice(evs), func(classify.Event) { seen++ }))
	if !reflect.DeepEqual(got, evs) {
		t.Errorf("Tee altered the stream: %v", got)
	}
	if seen != 3 {
		t.Errorf("Tee observed %d of 3 events", seen)
	}
	// fn sees events even when the consumer stops early, but only the
	// ones that flowed.
	seen = 0
	for range stream.Tee(stream.FromSlice(evs), func(classify.Event) { seen++ }) {
		break
	}
	if seen != 1 {
		t.Errorf("Tee observed %d events after early exit", seen)
	}
}

// mergeEvents is the materialized reference merge: the time-sorted
// slices concatenated in input order, then stable-sorted by time.
func mergeEvents(slices ...[]classify.Event) []classify.Event {
	var out []classify.Event
	for _, s := range slices {
		out = append(out, s...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Time.Before(out[j].Time) })
	return out
}

// TestMergeMatchesMergeEvents is the streaming/slice equivalence property:
// on random seeded inputs, stream.Merge must produce byte-identical output
// to the materialized reference mergeEvents.
func TestMergeMatchesMergeEvents(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nstreams := rng.Intn(8)
		slices := make([][]classify.Event, nstreams)
		sources := make([]stream.EventSource, nstreams)
		for i := range slices {
			n := rng.Intn(60)
			times := make([]int, n)
			for j := range times {
				times[j] = rng.Intn(40) // dense: plenty of cross-stream ties
			}
			sort.Ints(times)
			slices[i] = mkEvents("c"+string(rune('0'+i)), times...)
			sources[i] = stream.FromSlice(slices[i])
		}
		want := mergeEvents(slices...)
		got := stream.Collect(stream.Merge(sources...))
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: merge mismatch (%d vs %d events)", seed, len(got), len(want))
		}
	}
}

func TestMergeStableTies(t *testing.T) {
	a := stream.FromSlice(mkEvents("rrc00", 5))
	b := stream.FromSlice(mkEvents("rrc01", 5))
	got := stream.Collect(stream.Merge(a, b))
	if got[0].Collector != "rrc00" || got[1].Collector != "rrc01" {
		t.Errorf("tie order: %s, %s (want input-source order)", got[0].Collector, got[1].Collector)
	}
	got = stream.Collect(stream.Merge(b, a))
	if got[0].Collector != "rrc01" {
		t.Errorf("tie order after swap: %s", got[0].Collector)
	}
}

func TestMergeEdgeCases(t *testing.T) {
	if out := stream.Collect(stream.Merge()); len(out) != 0 {
		t.Error("no sources should merge to empty")
	}
	if out := stream.Collect(stream.Merge(stream.Empty(), stream.Empty())); len(out) != 0 {
		t.Error("empty sources should merge to empty")
	}
	single := mkEvents("rrc00", 1, 2, 3)
	if out := stream.Collect(stream.Merge(stream.FromSlice(single))); len(out) != 3 {
		t.Errorf("single source: %d", len(out))
	}
	// Early exit mid-merge must terminate cleanly and release the pulls.
	n := 0
	for range stream.Merge(stream.FromSlice(mkEvents("a", 1, 3, 5)), stream.FromSlice(mkEvents("b", 2, 4, 6))) {
		n++
		if n == 3 {
			break
		}
	}
	if n != 3 {
		t.Errorf("early exit consumed %d", n)
	}
}
