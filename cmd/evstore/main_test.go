package main

import (
	"bytes"
	"fmt"
	"os"
	"regexp"
	"slices"
	"strconv"
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

// TestDumpStatsColumns pins the byte budget dump -stats prints: one row
// per column whose stored and raw bytes add up, with the head of every
// block, to the partitions' block payloads, the codec mix of its
// chunks, and partition and sidecar bytes per event that are the files'
// sizes over the events.
func TestDumpStatsColumns(t *testing.T) {
	cfg := workload.DefaultDayConfig(time.Date(2020, 3, 15, 0, 0, 0, 0, time.UTC))
	cfg.Collectors = 2
	cfg.PeersPerCollector = 3
	cfg.PrefixesV4 = 40
	cfg.PrefixesV6 = 8
	dir := t.TempDir()
	if _, err := evstore.Ingest(dir, workload.MultiDaySource(cfg, 1)); err != nil {
		t.Fatal(err)
	}
	if err := runSnap([]string{"-store", dir}); err != nil {
		t.Fatal(err)
	}
	infos, err := evstore.Stat(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := printColumnStat(&out, infos); err != nil {
		t.Fatal(err)
	}

	events, partBytes, sideBytes, stored, raw := 0, int64(0), int64(0), int64(0), int64(0)
	for _, info := range infos {
		events += info.Events
		partBytes += info.SizeBytes
		stored += info.StoredBytes
		raw += info.RawBytes
		fi, err := os.Stat(evstore.SnapshotPath(info.Path))
		if err != nil {
			t.Fatal(err)
		}
		sideBytes += fi.Size()
	}
	// Table cells are separated by two or more spaces; a column name
	// holds single ones.
	colStored, colRaw, rows := int64(0), int64(0), 0
	cells := regexp.MustCompile(`\s{2,}`)
	for _, line := range strings.Split(out.String(), "\n") {
		f := cells.Split(strings.TrimSpace(line), -1)
		if len(f) != 6 || f[0] == "column" || strings.HasPrefix(f[0], "-") {
			continue
		}
		s, err1 := strconv.ParseInt(f[1], 10, 64)
		r, err2 := strconv.ParseInt(f[2], 10, 64)
		if err1 != nil || err2 != nil || !strings.Contains(f[5], "raw ") && !strings.Contains(f[5], "lz ") {
			t.Errorf("column row %q: want stored and raw bytes and a codec mix", line)
		}
		colStored += s
		colRaw += r
		rows++
	}
	// What the columns do not hold is the block heads, the same bytes
	// stored and raw.
	if rows != 10 || colStored >= stored || stored-colStored != raw-colRaw {
		t.Errorf("%d column rows, %d stored / %d raw bytes; the blocks hold %d / %d:\n%s", rows, colStored, colRaw, stored, raw, out.String())
	}
	want := fmt.Sprintf("bytes per event: partitions %.2f, sidecars %.2f (%d events)",
		float64(partBytes)/float64(events), float64(sideBytes)/float64(events), events)
	if !strings.Contains(out.String(), want) {
		t.Errorf("output lacks %q:\n%s", want, out.String())
	}
}
