// Command evstore manages the columnar event store: ingest normalized
// update streams once, then answer windowed/filtered analyses off
// predicate-pushdown scans without re-parsing MRT archives or
// regenerating synthetic days.
//
// Usage:
//
//	evstore ingest -store DIR [-in MRTDIR | -year 2020 -days N] [-block N] [-codec lz]
//	evstore stat   -store DIR [-blocks] [-sample N]
//	evstore query  -store DIR [-from T] [-to T] [-collectors a,b]
//	               [-peeras 1,2] [-prefix P] [-count-only]
//	               [-analyze] [-workers N]
//	evstore recode -store DIR [-codec lz]
//	evstore shard  -store DIR -n N -out OUTDIR
//
// recode rewrites an existing store's partitions block-by-block into
// the target codec (never in place — temp file + atomic rename), the
// migration path between the raw and lz codecs in either direction: a
// block lz would not shrink stays raw, and a partition with no block to
// change is left alone, so a repeated recode is a no-op. Block
// summaries, footers, and event payloads are preserved bit-for-bit and
// valid snapshot sidecars are refreshed alongside, so recoding never
// forces a snapshot rebuild. recode and snap run one shard (collector)
// per worker on GOMAXPROCS workers and report how many.
//
// shard splits (or rebalances) a store into N shard stores under
// OUTDIR/shard-000 … shard-NNN by consistent hashing over collector
// names, the layout `commservd -shard` daemons serve from: each
// collector's whole timeline lands on one shard, so a coordinator
// merging shard answers is bit-identical to a single node over the
// union store. Partitions are hard-linked when OUTDIR is on the same
// filesystem; snapshot sidecars ride along and stay valid.
//
// ingest consumes MRT archives (through the §4 normalizer) or lazily
// generated synthetic days in constant memory. stat prints the
// partition/block layout. query scans with pushdown and prints the
// Table 1 overview plus Table 2 type shares of the selected events;
// times are RFC 3339 ("2020-03-15T00:00:00Z"). With -analyze the
// analyses additionally include the §7 peer-behaviour inference and
// run shard-parallel (one shard per collector, -workers pool, default
// GOMAXPROCS), reporting per-shard pushdown and merge stats; results
// are bit-identical to the sequential scan.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/classify"
	"repro/internal/evstore"
	"repro/internal/pipeline"
	"repro/internal/serve"
	"repro/internal/stream"
	"repro/internal/textplot"
	"repro/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "ingest":
		err = runIngest(os.Args[2:])
	case "stat":
		err = runStat(os.Args[2:])
	case "query":
		err = runQuery(os.Args[2:])
	case "snap":
		err = runSnap(os.Args[2:])
	case "recode":
		err = runRecode(os.Args[2:])
	case "shard":
		err = runShard(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "evstore %s: %v\n", os.Args[1], err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: evstore {ingest|stat|query|snap|recode|shard} -store DIR [flags]")
	os.Exit(2)
}

// runShard splits a store into N shard stores for a commservd
// cluster.
func runShard(args []string) error {
	fs := flag.NewFlagSet("shard", flag.ExitOnError)
	store := fs.String("store", "", "source store directory")
	n := fs.Int("n", 0, "number of shards")
	out := fs.String("out", "", "output directory (shard-000 … created inside)")
	fs.Parse(args)
	if *store == "" || *out == "" || *n < 1 {
		return fmt.Errorf("need -store DIR, -n N (>= 1), and -out OUTDIR")
	}
	start := time.Now()
	st, err := evstore.SplitStore(*store, *n, *out)
	if err != nil {
		return err
	}
	fmt.Printf("split %s into %d shards under %s in %v\n", *store, *n, *out, time.Since(start).Round(time.Millisecond))
	fmt.Printf("%d partitions + %d sidecars placed (%d linked, %d copied, %s)\n",
		st.Partitions, st.Sidecars, st.Linked, st.Copied, byteSize(st.Bytes))
	var rows [][]string
	for _, sh := range st.Shards {
		rows = append(rows, []string{
			filepath.Base(sh.Dir), strconv.Itoa(sh.Collectors),
			strconv.Itoa(sh.Partitions), byteSize(sh.Bytes),
		})
	}
	fmt.Print(textplot.Table([]string{"shard", "collectors", "partitions", "bytes"}, rows))
	fmt.Printf("\nserve each shard:  commservd -shard -store %s -addr :880N\n", filepath.Join(*out, "shard-00N"))
	fmt.Printf("coordinate:        commservd -coordinator -shards http://h0:8800,http://h1:8801,...\n")
	return nil
}

// runRecode migrates a store's partitions (and their snapshot
// sidecars) to the target block codec.
func runRecode(args []string) error {
	fs := flag.NewFlagSet("recode", flag.ExitOnError)
	store := fs.String("store", "", "store directory")
	codec := fs.String("codec", evstore.DefaultCodec.String(), "target block codec (raw, lz)")
	fs.Parse(args)
	if *store == "" {
		return fmt.Errorf("-store is required")
	}
	c, err := evstore.ParseCodec(*codec)
	if err != nil {
		return err
	}
	start := time.Now()
	rs, err := evstore.Recode(context.Background(), *store, c)
	if err != nil {
		return err
	}
	fmt.Printf("recoded %d/%d partitions to %s (%d blocks, %d skipped as current) on %d workers in %v\n",
		rs.Recoded, rs.Partitions, c, rs.Blocks, rs.Skipped, rs.Workers, time.Since(start).Round(time.Millisecond))
	fmt.Printf("%s -> %s on disk (%.2fx), %d sidecars refreshed\n",
		byteSize(rs.BytesIn), byteSize(rs.BytesOut), float64(rs.BytesOut)/float64(max64(rs.BytesIn, 1)), rs.Sidecars)
	return nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// runSnap builds or inspects the snapshot sidecars the serving daemon
// (cmd/commservd) answers from: per sealed partition, the serialized
// accumulator state of every registered analyzer, one result code per
// event, and the classifier end state. Building is incremental —
// partitions with up-to-date sidecars are not decoded.
func runSnap(args []string) error {
	fs := flag.NewFlagSet("snap", flag.ExitOnError)
	store := fs.String("store", "", "store directory")
	stat := fs.Bool("stat", false, "list sidecar coverage instead of building")
	fs.Parse(args)
	if *store == "" {
		return fmt.Errorf("-store is required")
	}
	if *stat {
		return snapStat(*store)
	}
	bs, err := evstore.BuildSnapshots(context.Background(), *store, serve.DefaultRegistry())
	if err != nil {
		return err
	}
	fmt.Printf("snapshots: %d partitions, %d built, %d reused (%d events decoded, %d sidecars read, %d restores) on %d workers in %v\n",
		bs.Partitions, bs.Built, bs.Reused, bs.Events, bs.SidecarsRead, bs.Restores, bs.Workers, bs.Elapsed.Round(time.Millisecond))
	return nil
}

// snapStat prints each partition's sidecar state.
func snapStat(store string) error {
	m, err := evstore.LoadManifest(store)
	if err != nil {
		return err
	}
	if len(m.Partitions) == 0 {
		return fmt.Errorf("no partitions in %s", store)
	}
	var rows [][]string
	covered := 0
	for _, p := range m.Partitions {
		snap, err := evstore.ReadSnapshot(p.Path)
		switch {
		case err != nil:
			rows = append(rows, []string{filepath.Base(p.Path), "-", "-", "-", "-", "missing"})
		case snap.Size != p.Size:
			rows = append(rows, []string{filepath.Base(p.Path), "-", "-", "-", "-", "stale"})
		default:
			covered++
			keys := make([]string, 0, len(snap.States))
			for k := range snap.States {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			rows = append(rows, []string{
				filepath.Base(p.Path),
				strconv.Itoa(snap.Events),
				byteSize(int64(len(snap.Classifier))),
				byteSize(int64(len(snap.Results))),
				strconv.Itoa(len(snap.States)),
				strings.Join(keys, ","),
			})
		}
	}
	fmt.Printf("%d/%d partitions snapshotted\n", covered, len(m.Partitions))
	fmt.Print(textplot.Table([]string{"partition", "events", "classifier", "results", "states", "keys"}, rows))
	return nil
}

func runIngest(args []string) error {
	fs := flag.NewFlagSet("ingest", flag.ExitOnError)
	store := fs.String("store", "", "store directory (created if missing)")
	in := fs.String("in", "", "directory of *.mrt archives; empty generates synthetic days")
	year := fs.Int("year", 2020, "year for the synthetic dataset")
	days := fs.Int("days", 1, "number of consecutive synthetic days")
	block := fs.Int("block", evstore.DefaultBlockEvents, "events per block")
	codec := fs.String("codec", evstore.DefaultCodec.String(), "block codec (raw, lz)")
	fs.Parse(args)
	if *store == "" {
		return fmt.Errorf("-store is required")
	}
	c, err := evstore.ParseCodec(*codec)
	if err != nil {
		return err
	}

	w, err := evstore.Open(*store)
	if err != nil {
		return err
	}
	w.BlockEvents = *block
	w.Codec = c

	var src stream.EventSource
	srcCheck := func() error { return nil }
	if *in == "" {
		src = workload.MultiDaySource(workload.HistoricalDayConfig(*year), *days)
	} else {
		var err error
		src, _, srcCheck, err = pipeline.ArchiveSource(*in, nil)
		if err != nil {
			return err
		}
	}
	// Tee a progress counter onto the stream: ingest is one pass, so
	// this is the only place the event count can be observed live.
	n := 0
	start := time.Now()
	src = stream.Tee(src, func(classify.Event) {
		n++
		if n%500000 == 0 {
			fmt.Fprintf(os.Stderr, "ingested %d events...\n", n)
		}
	})
	// Abort on any failure: sealing a partial ingest would leave a
	// valid-looking but incomplete store for later runs to trust.
	if err := w.Ingest(src); err != nil {
		w.Abort()
		return err
	}
	if err := srcCheck(); err != nil {
		w.Abort()
		return err
	}
	if err := w.Close(); err != nil {
		w.Abort()
		return err
	}
	st := w.Stats()
	fmt.Printf("ingested %d events into %d partitions (%d blocks, %s on disk) in %v\n",
		st.Events, st.Partitions, st.Blocks, byteSize(st.Bytes), time.Since(start).Round(time.Millisecond))
	fmt.Printf("peak open partitions: %d\n", st.PeakActive)
	return nil
}

func runStat(args []string) error {
	fs := flag.NewFlagSet("stat", flag.ExitOnError)
	store := fs.String("store", "", "store directory")
	blocks := fs.Bool("blocks", false, "also list per-block stats")
	sample := fs.Int("sample", 0, "print the first N events of the store")
	fs.Parse(args)
	if *store == "" {
		return fmt.Errorf("-store is required")
	}
	infos, err := evstore.Stat(*store)
	if err != nil {
		return err
	}
	printStoreStat(os.Stdout, infos, *blocks)
	if *sample > 0 {
		fmt.Printf("\nfirst %d events:\n", *sample)
		var scanErr error
		// Take stops the scan after N events: only the first block(s)
		// of the first partition are ever decoded.
		for e := range stream.Take(evstore.Scan(*store, evstore.Query{}, &scanErr), *sample) {
			fmt.Println(evstore.FormatEvent(e))
		}
		if scanErr != nil {
			return scanErr
		}
	}
	return nil
}

// printStoreStat renders partition (and optionally block) tables; it is
// shared with cmd/mrtdump via copy of formatting conventions only.
func printStoreStat(w *os.File, infos []evstore.PartitionInfo, blocks bool) {
	var rows [][]string
	events, bytes, nblocks := 0, int64(0), 0
	stored, raw := int64(0), int64(0)
	for _, info := range infos {
		events += info.Events
		bytes += info.SizeBytes
		nblocks += len(info.Blocks)
		stored += info.StoredBytes
		raw += info.RawBytes
		ratio := "-"
		if info.RawBytes > 0 {
			ratio = fmt.Sprintf("%.1f%%", 100*float64(info.StoredBytes)/float64(info.RawBytes))
		}
		rows = append(rows, []string{
			info.Collector,
			info.Day.Format("2006-01-02"),
			strconv.Itoa(info.Seq),
			strconv.Itoa(len(info.Blocks)),
			strconv.Itoa(info.Events),
			strconv.Itoa(len(info.PeerAS)),
			byteSize(info.SizeBytes),
			info.Codec,
			ratio,
			info.TimeMin.Format("15:04:05"),
			info.TimeMax.Format("15:04:05"),
		})
	}
	fmt.Fprintf(w, "%d partitions, %d blocks, %d events, %s\n", len(infos), nblocks, events, byteSize(bytes))
	if raw > 0 {
		fmt.Fprintf(w, "block payloads: %s stored / %s raw (%.1f%% of raw)\n",
			byteSize(stored), byteSize(raw), 100*float64(stored)/float64(raw))
	}
	fmt.Fprint(w, textplot.Table(
		[]string{"collector", "day", "seq", "blocks", "events", "peers", "size", "codec", "ratio", "first", "last"}, rows))
	if blocks {
		for _, info := range infos {
			fmt.Fprintf(w, "\n%s:\n", info.Path)
			var brows [][]string
			for i, b := range info.Blocks {
				brows = append(brows, []string{
					strconv.Itoa(i),
					strconv.Itoa(b.Events),
					byteSize(int64(b.Compressed)),
					byteSize(int64(b.Uncompressed)),
					strconv.Itoa(len(b.PeerAS)),
					byteSize(int64(b.FilterBytes)),
					b.TimeMin.Format("15:04:05"),
					b.TimeMax.Format("15:04:05"),
				})
			}
			fmt.Fprint(w, textplot.Table(
				[]string{"block", "events", "compressed", "raw", "peers", "filter", "first", "last"}, brows))
		}
	}
}

func runQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	store := fs.String("store", "", "store directory")
	from := fs.String("from", "", "window start (RFC 3339, inclusive)")
	to := fs.String("to", "", "window end (RFC 3339, exclusive)")
	collectors := fs.String("collectors", "", "comma-separated collector names")
	peerAS := fs.String("peeras", "", "comma-separated peer ASNs")
	prefix := fs.String("prefix", "", "address block (events whose prefix lies within it)")
	countOnly := fs.Bool("count-only", false, "print only the matching event count and scan stats")
	analyze := fs.Bool("analyze", false, "run the analyses shard-parallel (adds the §7 peer inference and per-shard stats)")
	workers := fs.Int("workers", 0, "worker pool size for -analyze (0 = GOMAXPROCS)")
	fs.Parse(args)
	if *store == "" {
		return fmt.Errorf("-store is required")
	}
	q, err := buildQuery(*from, *to, *collectors, *peerAS, *prefix)
	if err != nil {
		return err
	}
	if *analyze {
		return runAnalyze(*store, q, *workers)
	}

	var scanErr error
	var st evstore.ScanStats
	src := evstore.ScanWithStats(*store, q, &scanErr, &st)
	start := time.Now()
	if *countOnly {
		n := stream.Count(src)
		if scanErr != nil {
			return scanErr
		}
		fmt.Printf("%d events in %v\n", n, time.Since(start).Round(time.Millisecond))
		printScanStats(st)
		return nil
	}
	t1, counts := analysis.Report(src, nil)
	if scanErr != nil {
		return scanErr
	}
	elapsed := time.Since(start).Round(time.Millisecond)

	fmt.Println("Table 1 — selection overview:")
	fmt.Print(textplot.Table([]string{"metric", "value"}, [][]string{
		{"IPv4 prefixes", strconv.Itoa(t1.PrefixesV4)},
		{"IPv6 prefixes", strconv.Itoa(t1.PrefixesV6)},
		{"ASes", strconv.Itoa(t1.ASes)},
		{"Sessions", strconv.Itoa(t1.Sessions)},
		{"Peers", strconv.Itoa(t1.Peers)},
		{"Announcements", strconv.Itoa(t1.Announcements)},
		{"Withdrawals", strconv.Itoa(t1.Withdrawals)},
	}))
	fmt.Println("\nTable 2 — announcement types:")
	var rows [][]string
	for _, ty := range classify.Types() {
		rows = append(rows, []string{
			ty.String(),
			strconv.Itoa(counts.Of(ty)),
			fmt.Sprintf("%.1f%%", 100*counts.Share(ty)),
		})
	}
	fmt.Print(textplot.Table([]string{"type", "count", "share"}, rows))
	fmt.Printf("\nscan took %v\n", elapsed)
	printScanStats(st)
	return nil
}

// runAnalyze answers the query with the analyzer engine: Table 1,
// Table 2, and the §7 peer-behaviour inference accumulate in ONE
// shard-parallel pass (evstore.ScanParallel), and the per-shard
// pushdown/merge stats show where the scan spent its effort.
func runAnalyze(store string, q evstore.Query, workers int) error {
	t1a := analysis.NewTable1()
	counter := analysis.NewCounts()
	peers := analysis.NewPeerBehavior()
	ps, err := evstore.ScanParallel(context.Background(), store, q, evstore.TimeRange{}, workers, t1a, counter, peers)
	if err != nil {
		return err
	}
	t1, counts := t1a.Table1(), counter.Counts

	fmt.Println("Table 1 — selection overview:")
	fmt.Print(textplot.Table([]string{"metric", "value"}, [][]string{
		{"IPv4 prefixes", strconv.Itoa(t1.PrefixesV4)},
		{"IPv6 prefixes", strconv.Itoa(t1.PrefixesV6)},
		{"ASes", strconv.Itoa(t1.ASes)},
		{"Sessions", strconv.Itoa(t1.Sessions)},
		{"Peers", strconv.Itoa(t1.Peers)},
		{"Announcements", strconv.Itoa(t1.Announcements)},
		{"Withdrawals", strconv.Itoa(t1.Withdrawals)},
	}))
	fmt.Println("\nTable 2 — announcement types:")
	var rows [][]string
	for _, ty := range classify.Types() {
		rows = append(rows, []string{
			ty.String(),
			strconv.Itoa(counts.Of(ty)),
			fmt.Sprintf("%.1f%%", 100*counts.Share(ty)),
		})
	}
	fmt.Print(textplot.Table([]string{"type", "count", "share"}, rows))

	byBehavior := map[analysis.PeerBehavior]int{}
	for _, inf := range peers.Inferences() {
		byBehavior[inf.Behavior]++
	}
	fmt.Printf("\npeer behavior (§7): %d propagate, %d clean-egress, %d quiet\n",
		byBehavior[analysis.BehaviorPropagates], byBehavior[analysis.BehaviorCleansEgress],
		byBehavior[analysis.BehaviorQuiet])

	fmt.Printf("\nshard-parallel scan: %d shards on %d workers in %v (%d analyzer merges, %v merging)\n",
		len(ps.Shards), ps.Workers, ps.Elapsed.Round(time.Millisecond),
		ps.Merges, ps.MergeElapsed.Round(time.Microsecond))
	var srows [][]string
	for _, ss := range ps.Shards {
		name := ss.Collector
		if name == "" {
			name = "(unnamed)"
		}
		srows = append(srows, []string{
			name,
			fmt.Sprintf("%d/%d", ss.Scan.PartitionsPruned, ss.Scan.Partitions),
			fmt.Sprintf("%d/%d", ss.Scan.BlocksPruned, ss.Scan.Blocks),
			strconv.Itoa(ss.Scan.BlocksDecoded),
			byteSize(ss.Scan.BytesDecompressed),
			strconv.Itoa(ss.Scan.Events),
			ss.Elapsed.Round(time.Microsecond).String(),
		})
	}
	fmt.Print(textplot.Table(
		[]string{"shard", "parts pruned", "blocks pruned", "decoded", "inflated", "events", "time"}, srows))
	printScanStats(ps.Total)
	return nil
}

func printScanStats(st evstore.ScanStats) {
	fmt.Printf("pushdown: %d/%d partitions pruned, %d/%d blocks pruned, %s read -> %s decompressed\n",
		st.PartitionsPruned, st.Partitions, st.BlocksPruned, st.Blocks,
		byteSize(st.BytesRead), byteSize(st.BytesDecompressed))
	for c, pc := range st.PerCodec {
		if pc.Blocks == 0 {
			continue
		}
		fmt.Printf("  %-7s %d blocks, %s read, %s decompressed\n",
			evstore.Codec(c), pc.Blocks, byteSize(pc.BytesRead), byteSize(pc.BytesDecompressed))
	}
}

func buildQuery(from, to, collectors, peerAS, prefix string) (evstore.Query, error) {
	var q evstore.Query
	var err error
	if from != "" {
		if q.Window.From, err = time.Parse(time.RFC3339, from); err != nil {
			return q, fmt.Errorf("-from: %w", err)
		}
	}
	if to != "" {
		if q.Window.To, err = time.Parse(time.RFC3339, to); err != nil {
			return q, fmt.Errorf("-to: %w", err)
		}
	}
	if collectors != "" {
		q.Collectors = strings.Split(collectors, ",")
	}
	if peerAS != "" {
		for _, tok := range strings.Split(peerAS, ",") {
			as, err := strconv.ParseUint(strings.TrimSpace(tok), 10, 32)
			if err != nil {
				return q, fmt.Errorf("-peeras %q: %w", tok, err)
			}
			q.PeerAS = append(q.PeerAS, uint32(as))
		}
	}
	if prefix != "" {
		if q.PrefixRange, err = parsePrefix(prefix); err != nil {
			return q, fmt.Errorf("-prefix: %w", err)
		}
	}
	return q, nil
}

func parsePrefix(s string) (netip.Prefix, error) {
	return netip.ParsePrefix(s)
}

func byteSize(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%dB", n)
}
