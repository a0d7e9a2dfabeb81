package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/classify"
	"repro/internal/evstore"
	"repro/internal/ingest"
	"repro/internal/stream"
	"repro/internal/workload"
)

// sealEvents is the live seal threshold of the benchmark store: the
// partition size bgpcollect-style ingest produces, ~200 partitions for
// the two generated days. Every committed number before this benchmark
// used one partition per collector-day, where a sub-day window
// degenerates into a full residual scan.
const sealEvents = 2048

// dataset is the generated two-day event set, materialised once per run.
type dataset struct {
	cfg        workload.DayConfig
	collectors []string                    // sorted
	events     map[string][]classify.Event // per collector, time-ordered
	peerAS     []uint32                    // every peer AS in the store
	total      int
	from, to   time.Time // the two generated days, [from, to)
	generateS  float64
}

// all returns every event, collector by collector.
func (d *dataset) all() stream.EventSource {
	return func(yield func(classify.Event) bool) {
		for _, c := range d.collectors {
			for _, e := range d.events[c] {
				if !yield(e) {
					return
				}
			}
		}
	}
}

// generate materialises workload.DaySources over two consecutive days.
// Each collector's sessions are merged into one time-ordered feed, the
// order a live collector would deliver them in. quick shrinks the
// topology for self-tests; it is never used for reported numbers.
func generate(seed int64, quick bool) *dataset {
	start := time.Now()
	base := workload.DefaultDayConfig(time.Date(2020, 3, 15, 0, 0, 0, 0, time.UTC))
	base.Seed = seed
	if quick {
		base.Collectors, base.PeersPerCollector = 4, 4
		base.PrefixesV4, base.PrefixesV6 = 160, 16
	}
	const days = 2
	d := &dataset{cfg: base, events: make(map[string][]classify.Event)}
	d.from, d.to = base.MultiDayWindow(days)
	seenAS := make(map[uint32]bool)
	for _, cfg := range workload.MultiDayConfigs(base, days) {
		peers, sources := workload.DaySources(cfg)
		for i, src := range sources {
			p := peers[i]
			if !seenAS[p.AS] {
				seenAS[p.AS] = true
				d.peerAS = append(d.peerAS, p.AS)
			}
			for e := range src {
				d.events[p.Collector] = append(d.events[p.Collector], e)
				d.total++
			}
		}
	}
	for c, evs := range d.events {
		d.collectors = append(d.collectors, c)
		sort.SliceStable(evs, func(i, j int) bool { return evs[i].Time.Before(evs[j].Time) })
	}
	sort.Strings(d.collectors)
	sort.Slice(d.peerAS, func(i, j int) bool { return d.peerAS[i] < d.peerAS[j] })
	d.generateS = time.Since(start).Seconds()
	return d
}

var quietLogger = slog.New(slog.NewTextHandler(io.Discard, nil))

// buildStore fills dir through the live ingest plane: one unpaced
// replay feed per collector, block backpressure, event-count seals.
func buildStore(ctx context.Context, dir string, d *dataset) error {
	p, err := ingest.NewPlane(ctx, ingest.Config{
		Dir:    dir,
		Seal:   evstore.SealPolicy{MaxEvents: sealEvents},
		Logger: quietLogger,
	})
	if err != nil {
		return err
	}
	var handles []*ingest.FeedHandle
	for _, c := range d.collectors {
		evs := d.events[c]
		feed := ingest.ReplaySource(c, 0, func() stream.EventSource { return stream.FromSlice(evs) })
		h, err := p.Attach(feed, ingest.FeedOptions{OneShot: true})
		if err != nil {
			p.Drain(0)
			return err
		}
		handles = append(handles, h)
	}
	// Drain cancels running feeds, so wait for each to finish first.
	for _, h := range handles {
		<-h.Done()
	}
	st, err := p.Drain(0)
	if err != nil {
		return err
	}
	if int(st.Events) != d.total || st.Sheds != 0 {
		return fmt.Errorf("bench: plane accepted %d of %d events (%d shed)", st.Events, d.total, st.Sheds)
	}
	return nil
}

// storeSize is the store's on-disk footprint.
type storeSize struct {
	partitions     int
	partitionBytes int64
	sidecarBytes   int64
}

func (s storeSize) bytesPerEvent(events int) float64 {
	return float64(s.partitionBytes+s.sidecarBytes) / float64(events)
}

func measureStore(dir string) (storeSize, error) {
	var s storeSize
	entries, err := os.ReadDir(dir)
	if err != nil {
		return s, err
	}
	for _, e := range entries {
		fi, err := e.Info()
		if err != nil {
			return s, err
		}
		switch {
		case strings.HasSuffix(e.Name(), evstore.SnapshotExtension):
			s.sidecarBytes += fi.Size()
		case strings.HasSuffix(e.Name(), evstore.Extension):
			s.partitions++
			s.partitionBytes += fi.Size()
		}
	}
	return s, nil
}

// linkStore makes dst a copy of the store in src by hard-linking its
// partitions and sidecars. Both kinds of file are immutable (written to
// a temporary name and linked or renamed into place), so a linked copy
// stays pristine while src keeps growing.
func linkStore(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, evstore.Extension) && !strings.HasSuffix(name, evstore.SnapshotExtension) {
			continue
		}
		if err := os.Link(filepath.Join(src, name), filepath.Join(dst, name)); err != nil {
			return err
		}
	}
	return nil
}
