package main

import (
	"bytes"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/evstore"
	"repro/internal/workload"
)

// TestQueryCountsWindowClassifiesAll pins the query's window convention:
// -from/-to choose which events are counted, every earlier event still
// classifies, so the report over a store equals the direct pass over
// the generated days with the same counting window. A scan that drops
// the warm-up before -from classifies each stream's first windowed
// announcement with no predecessor and fails this.
func TestQueryCountsWindowClassifiesAll(t *testing.T) {
	cfg := workload.DefaultDayConfig(time.Date(2020, 3, 15, 0, 0, 0, 0, time.UTC))
	cfg.Collectors = 2
	cfg.PeersPerCollector = 3
	cfg.PrefixesV4 = 40
	cfg.PrefixesV6 = 8
	const days = 2
	dir := t.TempDir()
	if _, err := evstore.Ingest(dir, workload.MultiDaySource(cfg, days)); err != nil {
		t.Fatal(err)
	}

	t1 := analysis.NewTable1()
	counts := analysis.NewCounts()
	peers := analysis.NewPeerBehavior()
	analysis.RunAll(workload.MultiDaySource(cfg, days), cfg.MultiDayInWindow(days), t1, counts, peers)
	var want bytes.Buffer
	printReport(&want, t1.Table1(), counts.Counts, peers.Inferences())

	from, to := cfg.MultiDayWindow(days)
	var got bytes.Buffer
	err := runQuery([]string{"-store", dir,
		"-from", from.Format(time.RFC3339), "-to", to.Format(time.RFC3339)}, &got)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(got.String(), want.String()) {
		t.Errorf("query report differs from the direct pass\n--- query:\n%s\n--- direct:\n%s", got.String(), want.String())
	}
	if !strings.Contains(got.String(), "shard-parallel scan: 2 shards") {
		t.Errorf("query report lacks the shard table:\n%s", got.String())
	}
}

// TestParseASNs keeps -peeras and -routeservers strict: an empty list
// is no filter, but an empty token is an error, not a dropped one.
func TestParseASNs(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []uint32
		ok   bool
	}{
		{"", nil, true},
		{"1", []uint32{1}, true},
		{"1, 2", []uint32{1, 2}, true},
		{",", nil, false},
		{"1,,2", nil, false},
		{"20001,", nil, false},
		{"x", nil, false},
	} {
		got, err := parseASNs(tc.in)
		if (err == nil) != tc.ok || !slices.Equal(got, tc.want) {
			t.Errorf("parseASNs(%q) = %v, %v; want %v, ok %v", tc.in, got, err, tc.want, tc.ok)
		}
	}
}
