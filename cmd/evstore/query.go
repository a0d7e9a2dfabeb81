package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/netip"
	"strconv"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/classify"
	"repro/internal/evstore"
	"repro/internal/textplot"
)

// runQuery answers Table 1, Table 2 and the §7 peer inference over the
// selected events in one shard-parallel pass. The window is a tally
// window, not a scan filter: the classifier replays each stream from its
// start so the first announcement inside the window is compared with its
// predecessor before the window, the convention SnapshotIndex.Query
// documents and commservd's /v1 serves.
func runQuery(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	store := fs.String("store", "", "store directory")
	from := fs.String("from", "", "window start (RFC 3339, inclusive)")
	to := fs.String("to", "", "window end (RFC 3339, exclusive)")
	collectors := fs.String("collectors", "", "comma-separated collector names")
	peerAS := fs.String("peeras", "", "comma-separated peer ASNs")
	prefix := fs.String("prefix", "", "address block (events whose prefix lies within it)")
	fs.Parse(args)
	if *store == "" {
		return fmt.Errorf("-store is required")
	}
	q, err := buildQuery(*from, *to, *collectors, *peerAS, *prefix)
	if err != nil {
		return err
	}
	t1a := analysis.NewTable1()
	counter := analysis.NewCounts()
	peers := analysis.NewPeerBehavior()
	scan := q
	scan.Window = evstore.TimeRange{}
	ps, err := evstore.ScanParallel(context.Background(), *store, scan, q.Window, 0, t1a, counter, peers)
	if err != nil {
		return err
	}
	printReport(w, t1a.Table1(), counter.Counts, peers.Inferences())
	printParallelStats(w, ps)
	return nil
}

// printReport renders the paper's Table 1 and Table 2 and the §7
// per-session behaviour inference.
func printReport(w io.Writer, t1 analysis.Table1, counts classify.Counts, infs []analysis.PeerInference) {
	fmt.Fprintln(w, "Table 1 — dataset overview:")
	fmt.Fprint(w, textplot.Table([]string{"metric", "value"}, [][]string{
		{"IPv4 prefixes", strconv.Itoa(t1.PrefixesV4)},
		{"IPv6 prefixes", strconv.Itoa(t1.PrefixesV6)},
		{"ASes", strconv.Itoa(t1.ASes)},
		{"Sessions", strconv.Itoa(t1.Sessions)},
		{"Peers", strconv.Itoa(t1.Peers)},
		{"Announcements", strconv.Itoa(t1.Announcements)},
		{"  w/ communities", strconv.Itoa(t1.WithCommunities)},
		{"  uniq. 16-bit comms", strconv.Itoa(t1.UniqueCommunities)},
		{"  uniq. AS paths", strconv.Itoa(t1.UniqueASPaths)},
		{"Withdrawals", strconv.Itoa(t1.Withdrawals)},
	}))

	fmt.Fprintln(w, "\nTable 2 — announcement types (paper: pc 33.7 pn 15.1 nc 24.5 nn 25.7 xc 0.3 xn 0.7):")
	var rows [][]string
	for _, ty := range classify.Types() {
		rows = append(rows, []string{
			ty.String(),
			strconv.Itoa(counts.Of(ty)),
			fmt.Sprintf("%.1f%%", 100*counts.Share(ty)),
		})
	}
	fmt.Fprint(w, textplot.Table([]string{"type", "count", "share"}, rows))
	fmt.Fprintf(w, "\nno-path-change (nc+nn) share: %.1f%% (paper: ~50%%)\n", 100*counts.NoPathChangeShare())

	byBehavior := map[analysis.PeerBehavior]int{}
	for _, inf := range infs {
		byBehavior[inf.Behavior]++
	}
	fmt.Fprintf(w, "\nPeer behavior inference (§7, %d sessions from the same pass):\n", len(infs))
	rows = nil
	for _, b := range []analysis.PeerBehavior{analysis.BehaviorPropagates, analysis.BehaviorCleansEgress, analysis.BehaviorQuiet} {
		share := float64(byBehavior[b]) / float64(max(len(infs), 1))
		rows = append(rows, []string{b.String(), strconv.Itoa(byBehavior[b]), fmt.Sprintf("%.1f%%", 100*share)})
	}
	fmt.Fprint(w, textplot.Table([]string{"behavior", "sessions", "share"}, rows))
}

// printParallelStats shows where the scan spent its effort: per-shard
// pushdown and timing, then the summed pushdown.
func printParallelStats(w io.Writer, ps evstore.ParallelStats) {
	fmt.Fprintf(w, "\nshard-parallel scan: %d shards on %d workers in %v (%d analyzer merges, %v merging)\n",
		len(ps.Shards), ps.Workers, ps.Elapsed.Round(time.Millisecond),
		ps.Merges, ps.MergeElapsed.Round(time.Microsecond))
	var rows [][]string
	for _, ss := range ps.Shards {
		name := ss.Collector
		if name == "" {
			name = "(unnamed)"
		}
		rows = append(rows, []string{
			name,
			fmt.Sprintf("%d/%d", ss.Scan.PartitionsPruned, ss.Scan.Partitions),
			fmt.Sprintf("%d/%d", ss.Scan.BlocksPruned, ss.Scan.Blocks),
			strconv.Itoa(ss.Scan.BlocksDecoded),
			byteSize(ss.Scan.BytesDecompressed),
			strconv.Itoa(ss.Scan.Events),
			ss.Elapsed.Round(time.Microsecond).String(),
		})
	}
	fmt.Fprint(w, textplot.Table(
		[]string{"shard", "parts pruned", "blocks pruned", "decoded", "inflated", "events", "time"}, rows))
	st := ps.Total
	fmt.Fprintf(w, "pushdown: %d/%d partitions pruned, %d/%d blocks pruned, %s read -> %s decompressed\n",
		st.PartitionsPruned, st.Partitions, st.BlocksPruned, st.Blocks,
		byteSize(st.BytesRead), byteSize(st.BytesDecompressed))
	// Blocks are attributed to their footer codec, bytes to the codec of
	// each chunk a decode opened.
	for c, pc := range st.PerCodec {
		if pc.Blocks == 0 && pc.BytesRead == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-7s %d blocks; chunks opened: %s stored, %s raw\n",
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
	if q.PeerAS, err = parseASNs(peerAS); err != nil {
		return q, fmt.Errorf("-peeras: %w", err)
	}
	if prefix != "" {
		if q.PrefixRange, err = netip.ParsePrefix(prefix); err != nil {
			return q, fmt.Errorf("-prefix: %w", err)
		}
	}
	return q, nil
}

// parseASNs parses a comma-separated ASN list (-peeras, -routeservers);
// the empty list is nil.
func parseASNs(list string) ([]uint32, error) {
	if list == "" {
		return nil, nil
	}
	var out []uint32
	for _, tok := range strings.Split(list, ",") {
		as, err := strconv.ParseUint(strings.TrimSpace(tok), 10, 32)
		if err != nil {
			return nil, fmt.Errorf("bad ASN %q: %w", tok, err)
		}
		out = append(out, uint32(as))
	}
	return out, nil
}
