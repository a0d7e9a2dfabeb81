package workload

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/classify"
	"repro/internal/stream"
)

func tinyDayConfig() DayConfig {
	cfg := DefaultDayConfig(day)
	cfg.Collectors = 2
	cfg.PeersPerCollector = 4
	cfg.PrefixesV4 = 40
	cfg.PrefixesV6 = 4
	return cfg
}

// TestDaySourcesPerSession checks every source yields only its own
// session's events, time-sorted — the contract Concat consumers rely on.
func TestDaySourcesPerSession(t *testing.T) {
	cfg := tinyDayConfig()
	peers, sources := DaySources(cfg)
	total := 0
	for i, src := range sources {
		var prev time.Time
		for e := range src {
			total++
			if e.Collector != peers[i].Collector || e.PeerAddr != peers[i].Addr {
				t.Fatalf("source %d leaked event for %s/%v", i, e.Collector, e.PeerAddr)
			}
			if e.Time.Before(prev) {
				t.Fatalf("source %d out of order", i)
			}
			prev = e.Time
		}
	}
	if total == 0 {
		t.Fatal("no events generated")
	}
}

// TestDaySourcesReplayable: ranging a source twice yields identical events.
func TestDaySourcesReplayable(t *testing.T) {
	cfg := tinyDayConfig()
	_, sources := DaySources(cfg)
	first := stream.Collect(sources[0])
	second := stream.Collect(sources[0])
	if !reflect.DeepEqual(first, second) {
		t.Fatal("replaying a source produced different events")
	}
}

// TestConcatClassifyMatchesMerge: classification over the unmerged
// session-by-session stream must match classification over the globally
// time-ordered merge — streams are independent per (session, prefix).
func TestConcatClassifyMatchesMerge(t *testing.T) {
	cfg := tinyDayConfig()
	want := classifyAll(dayEvents(cfg), cfg.InWindow)
	_, sources := DaySources(cfg)
	got := classifyAll(stream.Collect(stream.Concat(sources...)), cfg.InWindow)
	if got != want {
		t.Fatalf("concat classify %+v != merged classify %+v", got, want)
	}
}

// TestMultiDaySourceEquivalence: the streamed multi-day concatenation
// must classify identically to feeding each day's materialized events
// through one long-lived classifier, and must drop later days' warm-up
// announcements (their streams carry state over from the previous day).
func TestMultiDaySourceEquivalence(t *testing.T) {
	cfg := tinyDayConfig()
	const days = 3
	cl := classify.New()
	var want classify.Counts
	for d, dayCfg := range MultiDayConfigs(cfg, days) {
		for _, src := range func() []stream.EventSource { _, s := DaySources(dayCfg); return s }() {
			for e := range src {
				if d > 0 && e.Time.Before(dayCfg.Day) {
					continue
				}
				res, ok := cl.Observe(e)
				if !ok {
					want.Withdrawals++
					continue
				}
				want.Add(res)
			}
		}
	}
	got := classifyAll(stream.Collect(MultiDaySource(cfg, days)), nil)
	if got != want {
		t.Fatalf("multi-day stream %+v != per-day reference %+v", got, want)
	}
	// No event of a later day may predate that day's midnight.
	cfgs := MultiDayConfigs(cfg, days)
	for e := range MultiDaySource(cfg, days) {
		if e.Time.Before(cfgs[0].Day.Add(-time.Hour)) {
			t.Fatalf("event at %v before the range", e.Time)
		}
	}
	day1Warmups := 0
	for e := range MultiDaySource(cfg, days) {
		if !e.Time.Before(cfgs[0].Day.Add(23*time.Hour)) && e.Time.Before(cfgs[1].Day) {
			day1Warmups++
		}
	}
	// The last hour of day 0 contains only day-0 traffic, never day-1
	// warm-ups; the generator keeps ordinary events there too, so just
	// assert day-1's warm-up window [day1-1h, day1) carries no First-free
	// duplicates by comparing against the single-day source.
	_, day0Sources := DaySources(cfgs[0])
	day0Last := 0
	for e := range stream.Concat(day0Sources...) {
		if !e.Time.Before(cfgs[0].Day.Add(23*time.Hour)) && e.Time.Before(cfgs[1].Day) {
			day0Last++
		}
	}
	if day1Warmups != day0Last {
		t.Errorf("day-1 warm-ups leaked into the stream: %d extra events", day1Warmups-day0Last)
	}
	// Days must cover consecutive dates with the seed held constant, so
	// stream visibility (and thus carried-over state) is identical across
	// days — the invariant behind dropping later days' warm-ups.
	if cfgs[1].Seed != cfgs[0].Seed || !cfgs[1].Day.Equal(cfgs[0].Day.Add(24*time.Hour)) {
		t.Errorf("bad day derivation: %+v", cfgs[1])
	}
}
