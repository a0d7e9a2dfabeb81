// Command evstore manages the columnar event store: ingest normalized
// update streams once, then answer windowed/filtered analyses off
// predicate-pushdown scans without re-parsing MRT archives or
// regenerating synthetic days. It also writes and reads the archives a
// store is ingested from.
//
// Usage:
//
//	evstore gen    -out DIR [-kind day|beacon] [-year 2020] [-scale 1.0] [-seed N]
//	evstore ingest -store DIR [-in MRTDIR [-routeservers AS1,AS2] | -year 2020 -days N]
//	               [-block N] [-codec lz]
//	evstore query  -store DIR [-from T] [-to T] [-collectors a,b]
//	               [-peeras 1,2] [-prefix P]
//	evstore dump   [-stats] PATH...
//	evstore snap   -store DIR [-stat]
//	evstore recode -store DIR [-codec lz]
//	evstore shard  -store DIR -n N -out OUTDIR
//
// gen writes per-collector MRT update archives of a synthetic day (or
// beacon day) for ingest -in. ingest consumes MRT archives (through the
// §4 normalizer) or lazily generated synthetic days in constant memory;
// for synthetic days it prints the counting window as query flags.
//
// query prints the Table 1 overview, the Table 2 type shares, and the §7
// peer-behaviour inference of the selected events from one
// shard-parallel pass (one shard per collector, GOMAXPROCS workers),
// then the per-shard pushdown. Times are RFC 3339
// ("2020-03-15T00:00:00Z"). -from/-to select which events are counted,
// not which are classified: every announcement is compared with the
// previous one of its (session, prefix) even when that one lies before
// -from, so a query answers exactly what commservd's /v1 answers.
//
// dump prints MRT archives, partitions and whole stores as bgpdump-like
// lines, or with -stats as record counts, partition/block tables and
// the per-column byte budget.
//
// recode rewrites an existing store's partitions chunk by chunk into
// the target codec (never in place — temp file + atomic rename), the
// migration path between the raw and lz codecs in either direction: a
// chunk lz would shrink by less than 1/16 stays raw, and a partition
// with no chunk to change is left alone, so a repeated recode is a
// no-op. Block summaries, raw chunks and their CRCs are preserved
// bit-for-bit and valid snapshot sidecars are refreshed alongside, so
// recoding never forces a snapshot rebuild. recode and snap run one
// shard (collector) per worker on GOMAXPROCS workers and report how
// many.
//
// shard splits (or rebalances) a store into N shard stores under
// OUTDIR/shard-000 … shard-NNN by consistent hashing over collector
// names, the layout `commservd -shard` daemons serve from: each
// collector's whole timeline lands on one shard, so a coordinator
// merging shard answers is bit-identical to a single node over the
// union store. Partitions are hard-linked when OUTDIR is on the same
// filesystem; snapshot sidecars ride along and stay valid.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/classify"
	"repro/internal/evstore"
	"repro/internal/pipeline"
	"repro/internal/serve"
	"repro/internal/stream"
	"repro/internal/textplot"
	"repro/internal/workload"
)

func main() {
	cmds := map[string]func([]string) error{
		"gen": runGen, "ingest": runIngest, "dump": runDump,
		"snap": runSnap, "recode": runRecode, "shard": runShard,
		"query": func(args []string) error { return runQuery(args, os.Stdout) },
	}
	if len(os.Args) < 2 || cmds[os.Args[1]] == nil {
		fmt.Fprintln(os.Stderr, "usage: evstore {gen|ingest|query|dump|snap|recode|shard} [flags]")
		os.Exit(2)
	}
	if err := cmds[os.Args[1]](os.Args[2:]); err != nil {
		fmt.Fprintf(os.Stderr, "evstore %s: %v\n", os.Args[1], err)
		os.Exit(1)
	}
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
// sidecars) to the target chunk codec.
func runRecode(args []string) error {
	fs := flag.NewFlagSet("recode", flag.ExitOnError)
	store := fs.String("store", "", "store directory")
	codec := fs.String("codec", evstore.DefaultCodec.String(), "target chunk codec (raw, lz)")
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
		byteSize(rs.BytesIn), byteSize(rs.BytesOut), float64(rs.BytesOut)/float64(max(rs.BytesIn, 1)), rs.Sidecars)
	return nil
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
			rows = append(rows, []string{
				filepath.Base(p.Path),
				strconv.Itoa(snap.Events),
				byteSize(int64(len(snap.Classifier))),
				byteSize(int64(len(snap.Results))),
				strconv.Itoa(len(snap.States)),
				strings.Join(slices.Sorted(maps.Keys(snap.States)), ","),
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
	rsList := fs.String("routeservers", "", "comma-separated route-server peer ASNs (for -in)")
	year := fs.Int("year", 2020, "year for the synthetic dataset")
	days := fs.Int("days", 1, "number of consecutive synthetic days")
	block := fs.Int("block", evstore.DefaultBlockEvents, "events per block")
	codec := fs.String("codec", evstore.DefaultCodec.String(), "chunk codec (raw, lz)")
	fs.Parse(args)
	if *store == "" {
		return fmt.Errorf("-store is required")
	}
	c, err := evstore.ParseCodec(*codec)
	if err != nil {
		return err
	}

	var src stream.EventSource
	var norm *pipeline.Normalizer
	srcCheck := func() error { return nil }
	cfg := workload.HistoricalDayConfig(*year)
	if *in == "" {
		src = workload.MultiDaySource(cfg, *days)
	} else {
		asns, err := parseASNs(*rsList)
		if err != nil {
			return fmt.Errorf("-routeservers: %w", err)
		}
		routeServers := map[uint32]bool{}
		for _, as := range asns {
			routeServers[as] = true
		}
		if src, norm, srcCheck, err = pipeline.ArchiveSource(*in, routeServers); err != nil {
			return err
		}
	}

	w, err := evstore.Open(*store)
	if err != nil {
		return err
	}
	w.BlockEvents = *block
	w.Codec = c
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
	err = w.Ingest(src)
	if err == nil {
		err = srcCheck()
	}
	if err == nil {
		err = w.Close()
	}
	if err != nil {
		w.Abort()
		return err
	}
	st := w.Stats()
	fmt.Printf("ingested %d events into %d partitions (%d blocks, %s on disk) in %v\n",
		st.Events, st.Partitions, st.Blocks, byteSize(st.Bytes), time.Since(start).Round(time.Millisecond))
	fmt.Printf("peak open partitions: %d\n", st.PeakActive)
	if norm != nil {
		fmt.Printf("normalizer: %+v\n", norm.Stats)
	} else {
		// Synthetic days carry a warm-up before the first day: the
		// paper's numbers count only the days themselves.
		from, to := cfg.MultiDayWindow(*days)
		fmt.Printf("counting window: -from %s -to %s\n", from.Format(time.RFC3339), to.Format(time.RFC3339))
	}
	return nil
}

// printStoreStat renders the partition and block tables of dump -stats.
func printStoreStat(w io.Writer, infos []evstore.PartitionInfo) {
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
