package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/classify"
	"repro/internal/evstore"
	"repro/internal/lz"
	"repro/internal/serve"
	"repro/internal/stream"
)

// The direct-call pass measures single layers from outside, through
// their public functions, on a linked copy of the benchmark store and
// on specs drawn from the workload's own request stream. Timers inside
// the program are a later change (ROADMAP item 5(a)).

// layerPass holds what the direct calls need.
type layerPass struct {
	ctx      context.Context
	workload string
	seed     int64
	d        *dataset
	store    string        // linked copy with sidecars; the pass appends to it last
	scratch  string        // parent for the pass's own stores
	warm     *serve.Server // a server whose references are already computed
	specs    int           // specs sampled from the request stream
	// codecBudget is how long each lz direction is timed for.
	codecBudget time.Duration
	out         map[string]float64
}

func medianDuration(d []time.Duration) time.Duration {
	if len(d) == 0 {
		return 0
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d[(len(d)-1)/2]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// analyzerFor returns a fresh registry analyzer for a spec's kind.
func analyzerFor(spec serve.QuerySpec) (evstore.NamedAnalyzer, error) {
	want := map[string]string{
		serve.KindTable1:  "table1",
		serve.KindTable2:  "counts",
		serve.KindPeers:   "peers",
		serve.KindIngress: "ingress",
		serve.KindFigure6: "revealed:",
		serve.KindFigure3: "sessionmix:",
	}[spec.Kind]
	for _, na := range serve.DefaultRegistry() {
		if want != "" && (na.Key == want || (strings.HasSuffix(want, ":") && strings.HasPrefix(na.Key, want))) {
			return evstore.NamedAnalyzer{Key: na.Key, Proto: na.Proto.Fresh()}, nil
		}
	}
	return evstore.NamedAnalyzer{}, fmt.Errorf("bench: no registry analyzer for kind %q", spec.Kind)
}

// run executes every direct-call measurement.
func (p *layerPass) run() error {
	p.out = make(map[string]float64)
	steps := []func() error{
		p.answerHit, p.queries, p.sidecars, p.fullScan, p.codec,
		p.classifyEvents, p.writers, p.refresh,
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return err
		}
		if err := p.ctx.Err(); err != nil {
			return err
		}
	}
	return nil
}

// sampleSpecs draws the pass's specs from the workload's request stream.
func (p *layerPass) sampleSpecs() []serve.QuerySpec {
	wl := p.workload
	if wl == wlChurn {
		wl = wlHot // the pristine copy has no growing collector
	}
	gen := newGenerator(wl, "layers", p.seed, p.d)
	specs := make([]serve.QuerySpec, p.specs)
	for i := range specs {
		specs[i] = gen.Next().spec
	}
	return specs
}

// answerHit times Server.Answer on a cached key: the engine's share of
// a hot request. handler_self - answer_hit is parse + encode + write.
func (p *layerPass) answerHit() error {
	spec := serve.QuerySpec{Kind: serve.KindTable2}
	if _, err := p.warm.Answer(p.ctx, spec); err != nil {
		return err
	}
	const n = 20000
	start := time.Now()
	for i := 0; i < n; i++ {
		ans, err := p.warm.Answer(p.ctx, spec)
		if err != nil {
			return err
		}
		if ans.Source != "cache" {
			return fmt.Errorf("bench: answer_hit: %q answer on a warm key", ans.Source)
		}
	}
	p.out["serve.answer_hit_us"] = us(time.Since(start)) / n
	return nil
}

// queries runs the sampled specs straight at the store: windowed specs
// through SnapshotIndex.Query (the planner window isolates), filtered
// specs through ScanParallel (the scan filter isolates). The counts are
// functions of the store and the specs alone and repeat exactly.
func (p *layerPass) queries() error {
	ix, _, err := evstore.OpenSnapshotIndex(p.ctx, p.store, serve.DefaultRegistry())
	if err != nil {
		return err
	}
	infos, err := evstore.Stat(p.store)
	if err != nil {
		return err
	}
	storeBlocks := 0
	for _, pi := range infos {
		storeBlocks += len(pi.Blocks)
	}
	var qTimes, sTimes []time.Duration
	var plan evstore.PlanStats
	var qScan, sScan evstore.ScanStats
	for _, spec := range p.sampleSpecs() {
		if len(spec.PeerAS) > 0 || spec.PrefixRange.IsValid() {
			q := evstore.Query{Collectors: spec.Collectors, PeerAS: spec.PeerAS, PrefixRange: spec.PrefixRange}
			start := time.Now()
			ps, err := evstore.ScanParallel(p.ctx, p.store, q, spec.Window, 0, &classify.CountsAnalyzer{})
			if err != nil {
				return err
			}
			sTimes = append(sTimes, time.Since(start))
			sScan.Add(ps.Total)
			continue
		}
		na, err := analyzerFor(spec)
		if err != nil {
			return err
		}
		start := time.Now()
		ss, err := ix.Query(p.ctx, evstore.Query{Window: spec.Window, Collectors: spec.Collectors}, 0, na)
		if err != nil {
			return err
		}
		qTimes = append(qTimes, time.Since(start))
		plan.Merged += ss.Plan.Merged
		plan.Jumped += ss.Plan.Jumped
		plan.Scanned += ss.Plan.Scanned
		qScan.Add(ss.Scan)
	}
	nq, ns := float64(len(qTimes)), float64(len(sTimes))
	p.out["evstore.query_ms"] = ms(medianDuration(qTimes))
	p.out["evstore.query_merged_per_req"] = ratio(float64(plan.Merged), nq)
	p.out["evstore.query_jumped_per_req"] = ratio(float64(plan.Jumped), nq)
	p.out["evstore.query_scanned_per_req"] = ratio(float64(plan.Scanned), nq)
	p.out["evstore.query_blocks_decoded_per_req"] = ratio(float64(qScan.BlocksDecoded), nq)
	p.out["evstore.query_bytes_read_per_req"] = ratio(float64(qScan.BytesRead), nq)
	p.out["evstore.scanparallel_ms"] = ms(medianDuration(sTimes))
	p.out["evstore.scan_blocks_decoded_per_req"] = ratio(float64(sScan.BlocksDecoded), ns)
	p.out["evstore.scan_pruned_ratio"] = 0
	if ns > 0 {
		p.out["evstore.scan_pruned_ratio"] = 1 - float64(sScan.BlocksDecoded)/(ns*float64(storeBlocks))
	}
	return nil
}

// sidecars times what a jumped or merged partition costs the planner:
// restoring the classifier end state, and restoring plus merging each
// registry analyzer's state.
func (p *layerPass) sidecars() error {
	m, err := evstore.LoadManifest(p.store)
	if err != nil {
		return err
	}
	parts := m.Partitions
	if len(parts) > 64 {
		parts = parts[:64]
	}
	registry := serve.DefaultRegistry()
	acc := make([]classify.Analyzer, len(registry))
	for i, na := range registry {
		acc[i] = na.Proto.Fresh()
	}
	var restore, restoreMerge time.Duration
	var classifierBytes, states int
	for _, ref := range parts {
		snap, err := evstore.ReadSnapshot(ref.Path)
		if err != nil {
			return err
		}
		classifierBytes += len(snap.Classifier)
		cl := classify.New()
		start := time.Now()
		if err := cl.Restore(snap.Classifier); err != nil {
			return err
		}
		restore += time.Since(start)
		for i, na := range registry {
			state, ok := snap.States[na.Key]
			if !ok {
				return fmt.Errorf("bench: sidecar of %s lacks %q", ref.Path, na.Key)
			}
			start := time.Now()
			fresh := na.Proto.Fresh()
			if err := fresh.Restore(state); err != nil {
				return err
			}
			acc[i].Merge(fresh)
			restoreMerge += time.Since(start)
			states++
		}
	}
	n := float64(len(parts))
	p.out["classify.restore_us_per_sidecar"] = us(restore) / n
	p.out["classify.snapshot_bytes_per_sidecar"] = float64(classifierBytes) / n
	p.out["analysis.restore_merge_us_per_state"] = us(restoreMerge) / float64(states)
	return nil
}

// fullScan is the single-threaded baseline of the scan path.
func (p *layerPass) fullScan() error {
	start := time.Now()
	st, err := evstore.ScanAnalyze(p.ctx, p.store, evstore.Query{}, evstore.TimeRange{}, &classify.CountsAnalyzer{})
	if err != nil {
		return err
	}
	p.out["evstore.scan_events_per_s"] = float64(st.Events) / time.Since(start).Seconds()
	return nil
}

// codec measures lz on real block bytes: the largest partition of the
// first collector written with the raw codec, as bench_test.go's
// lzCorpus does.
func (p *layerPass) codec() error {
	dir := filepath.Join(p.scratch, "lz")
	w, err := evstore.Open(dir)
	if err != nil {
		return err
	}
	w.Codec = evstore.CodecRaw
	if err := w.Ingest(stream.FromSlice(p.d.events[p.d.collectors[0]])); err != nil {
		return err
	}
	if err := w.Close(); err != nil {
		return err
	}
	names, err := filepath.Glob(filepath.Join(dir, "*"+evstore.Extension))
	if err != nil {
		return err
	}
	var corpus []byte
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			return err
		}
		if len(data) > len(corpus) {
			corpus = data
		}
	}
	if len(corpus) == 0 {
		return fmt.Errorf("bench: empty lz corpus")
	}
	var enc lz.Encoder
	comp := enc.Compress(nil, corpus)
	dst := make([]byte, len(corpus))
	mbPerS := func(op func() error) (float64, error) {
		start, n := time.Now(), 0
		for time.Since(start) < p.codecBudget {
			if err := op(); err != nil {
				return 0, err
			}
			n++
		}
		return float64(n) * float64(len(corpus)) / 1e6 / time.Since(start).Seconds(), nil
	}
	if p.out["lz.compress_mb_s"], err = mbPerS(func() error { comp = enc.Compress(comp[:0], corpus); return nil }); err != nil {
		return err
	}
	if p.out["lz.decompress_mb_s"], err = mbPerS(func() error { return lz.Decompress(dst, comp) }); err != nil {
		return err
	}
	p.out["lz.ratio"] = float64(len(comp)) / float64(len(corpus))
	return nil
}

// classifyEvents times the classifier alone and the classifier plus the
// registry's analyzers over the materialised events.
func (p *layerPass) classifyEvents() error {
	cl := classify.New()
	start := time.Now()
	for e := range p.d.all() {
		cl.Observe(e)
	}
	p.out["classify.observe_ns_per_event"] = float64(time.Since(start)) / float64(p.d.total)

	var analyzers []classify.Analyzer
	for _, na := range serve.DefaultRegistry() {
		analyzers = append(analyzers, na.Proto.Fresh())
	}
	start = time.Now()
	classify.RunAll(p.d.all(), nil, analyzers...)
	p.out["analysis.runall_ns_per_event"] = float64(time.Since(start)) / float64(p.d.total)
	return nil
}

// writers rebuilds the store two ways to split set-up time: one bare
// evstore.Writer with the benchmark's seal policy (the plane's rate
// minus this is its queue and supervisor cost), then BuildSnapshots
// over the sidecar-less result.
func (p *layerPass) writers() error {
	dir := filepath.Join(p.scratch, "writer")
	w, err := evstore.Open(dir)
	if err != nil {
		return err
	}
	w.Seal = evstore.SealPolicy{MaxEvents: sealEvents}
	start := time.Now()
	if err := w.Ingest(p.d.all()); err != nil {
		return err
	}
	if err := w.Close(); err != nil {
		return err
	}
	p.out["evstore.writer_events_per_s"] = float64(p.d.total) / time.Since(start).Seconds()

	start = time.Now()
	if _, err := evstore.BuildSnapshots(p.ctx, dir, serve.DefaultRegistry()); err != nil {
		return err
	}
	p.out["evstore.build_snapshots_s"] = time.Since(start).Seconds()
	return nil
}

// refresh times what every churn seal costs the daemon: Refresh after
// one new partition, and the manifest load its watcher polls 4x/s.
// It appends to the pass's store, so it runs last.
func (p *layerPass) refresh() error {
	ix, _, err := evstore.OpenSnapshotIndex(p.ctx, p.store, serve.DefaultRegistry())
	if err != nil {
		return err
	}
	feed := newChurnFeed(p.seed, nil)
	var refreshes, loads []time.Duration
	for round := 0; round < 5; round++ {
		w, err := evstore.Open(p.store)
		if err != nil {
			return err
		}
		now := time.Now()
		for i := 0; i < sealEvents; i++ {
			if err := w.Append(feed.event(now)); err != nil {
				return err
			}
		}
		if err := w.Close(); err != nil {
			return err
		}
		start := time.Now()
		bs, err := ix.Refresh(p.ctx)
		if err != nil {
			return err
		}
		refreshes = append(refreshes, time.Since(start))
		if bs.Built != 1 {
			return fmt.Errorf("bench: refresh built %d sidecars after one new partition", bs.Built)
		}
		start = time.Now()
		if _, err := evstore.LoadManifest(p.store); err != nil {
			return err
		}
		loads = append(loads, time.Since(start))
	}
	p.out["evstore.refresh_ms"] = ms(medianDuration(refreshes))
	p.out["evstore.load_manifest_ms"] = ms(medianDuration(loads))
	return nil
}
