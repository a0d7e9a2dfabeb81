package pipeline_test

import (
	"os"
	"testing"
	"time"

	"repro/internal/classify"
	"repro/internal/collector"
	"repro/internal/pipeline"
	"repro/internal/stream"
	"repro/internal/workload"
)

// TestMRTSourceDrivesClassification is the end-to-end streaming path: a
// generated day is archived per collector (never materialized as one
// slice), read back lazily through the normalizer, and classified — and
// the counts must match classifying the generated day directly.
func TestMRTSourceDrivesClassification(t *testing.T) {
	day := time.Date(2020, 3, 15, 0, 0, 0, 0, time.UTC)
	cfg := workload.DefaultDayConfig(day)
	cfg.Collectors = 2
	cfg.PeersPerCollector = 5
	cfg.PrefixesV4 = 60
	cfg.PrefixesV6 = 6

	dir, err := os.MkdirTemp("", "pipeline-source-")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// Producer side: archives written straight from per-session sources.
	peers, sources := workload.DaySources(cfg)
	files, err := collector.WriteSourcesDir(peers, sources, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != cfg.Collectors {
		t.Fatalf("wrote %d archives, want %d", len(files), cfg.Collectors)
	}

	// Reference: the generated day in global time order.
	var want classify.CountsAnalyzer
	classify.RunAll(stream.Merge(sources...), cfg.InWindow, &want)

	// Consumer side: archives → normalizer → classifier, one record at a
	// time. Route-server fixup must undo the collector's ASN trimming so
	// the round trip is lossless.
	norm := pipeline.NewNormalizer(nil)
	norm.RouteServers = workload.RouteServerASNs(peers)
	var srcErr error
	names, archSources, err := pipeline.DirSources(norm, dir, &srcErr)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != cfg.Collectors {
		t.Fatalf("found %d archives, want %d", len(names), cfg.Collectors)
	}
	var got classify.CountsAnalyzer
	classify.RunAll(stream.Concat(archSources...), cfg.InWindow, &got)
	if srcErr != nil {
		t.Fatal(srcErr)
	}
	if got.Counts != want.Counts {
		t.Fatalf("archive-backed counts %+v != generated counts %+v", got.Counts, want.Counts)
	}
}

func TestFileSourceReportsErrors(t *testing.T) {
	norm := pipeline.NewNormalizer(nil)
	var srcErr error
	src := pipeline.FileSource(norm, "rrc00", "/nonexistent/archive.mrt", &srcErr)
	if n := stream.Count(src); n != 0 {
		t.Fatalf("yielded %d events from a missing file", n)
	}
	if srcErr == nil {
		t.Fatal("missing file did not surface an error")
	}
}

func TestCollectorName(t *testing.T) {
	for in, want := range map[string]string{
		"/tmp/x/rrc00.updates.mrt": "rrc00",
		"route-views2.mrt":         "route-views2",
		"plain":                    "plain",
	} {
		if got := pipeline.CollectorName(in); got != want {
			t.Errorf("CollectorName(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestSourceEarlyExit ensures breaking out of an archive-backed source
// does not report an error and stops cleanly mid-file.
func TestSourceEarlyExit(t *testing.T) {
	day := time.Date(2020, 3, 15, 0, 0, 0, 0, time.UTC)
	cfg := workload.DefaultDayConfig(day)
	cfg.Collectors = 1
	cfg.PeersPerCollector = 3
	cfg.PrefixesV4 = 30
	cfg.PrefixesV6 = 0

	dir, err := os.MkdirTemp("", "pipeline-early-")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	peers, sources := workload.DaySources(cfg)
	if _, err := collector.WriteSourcesDir(peers, sources, dir); err != nil {
		t.Fatal(err)
	}

	norm := pipeline.NewNormalizer(nil)
	var srcErr error
	_, archSources, err := pipeline.DirSources(norm, dir, &srcErr)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for range stream.Concat(archSources...) {
		n++
		if n == 5 {
			break
		}
	}
	if n != 5 {
		t.Fatalf("consumed %d events", n)
	}
	if srcErr != nil {
		t.Fatalf("early exit surfaced error: %v", srcErr)
	}
}
