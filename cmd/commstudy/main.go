// Command commstudy runs the paper's studies that are not windowed
// store queries: the §6 beacon analyses on a synthetic d_beacon day, the
// same methodology on the protocol-level simulator, a matrix of
// simulator scenarios, and the §3 vendor lab experiments.
//
// Usage:
//
//	commstudy beacon    [-year 2020] [-sessions N] [-longitudinal]
//	commstudy simbeacon [-vendor cisco-ios-12.4] [-beacons 1] [-stubs 8] [-no-geo] [-store DIR]
//	commstudy sweep     [-hours 24] [-parallel N] [-seq] [-store DIR] [-check]
//	commstudy lab       [-exp N] [-vendor name] [-v]
//
// beacon reproduces §6 on the statistical generator: per-session type
// mixes (Figure 3), community exploration and duplicate bursts on single
// paths (Figures 4/5), and the revealed-community attribution (Figure
// 6), with -longitudinal the yearly ratio series.
//
// simbeacon runs the §6 methodology on a synthetic Internet topology
// with geo-tagging transit ASes, a RIPE-schedule beacon origin and a
// route collector. Every update comes from the BGP implementation, so
// the community-exploration and revealed-information numbers emerge
// from protocol mechanics, not from a statistical generator.
//
// sweep runs topology shape × community-hygiene policy × vendor profile
// × timers × workload scenarios in parallel, one single-threaded engine
// per scenario, and prints what each scenario's collector would report
// in Table 2 terms. -check verifies that the streaming capture, the
// materialized trace, a store round trip and a sharded-parallel scan
// classify every scenario identically.
//
// lab fails the Y1–Y2 link of the Figure 1 topology for each experiment
// (Exp1–Exp4) and router profile and prints the induced messages.
//
// simbeacon and sweep take -store DIR to ingest what they simulated (a
// sweep scenario is its own collector) for evstore query and commservd.
package main

import (
	"fmt"
	"io"
	"os"
	"strconv"

	"repro/internal/classify"
	"repro/internal/evstore"
	"repro/internal/router"
	"repro/internal/stream"
	"repro/internal/textplot"
)

func main() {
	cmds := map[string]func([]string) error{
		"beacon":    func(args []string) error { return runBeacon(os.Stdout, args) },
		"simbeacon": func(args []string) error { return runSimBeacon(os.Stdout, args) },
		"sweep":     runSweep,
		"lab":       runLab,
	}
	if len(os.Args) < 2 || cmds[os.Args[1]] == nil {
		fmt.Fprintln(os.Stderr, "usage: commstudy {beacon|simbeacon|sweep|lab} [flags]")
		os.Exit(2)
	}
	if err := cmds[os.Args[1]](os.Args[2:]); err != nil {
		fmt.Fprintf(os.Stderr, "commstudy %s: %v\n", os.Args[1], err)
		os.Exit(1)
	}
}

// vendorByName returns the router behaviour profile called name.
func vendorByName(name string) (router.Behavior, error) {
	for _, b := range router.AllBehaviors() {
		if b.Name == name {
			return b, nil
		}
	}
	return router.Behavior{}, fmt.Errorf("unknown vendor %q", name)
}

// printTypeShares prints the Table 2 count and share of every
// announcement type.
func printTypeShares(w io.Writer, counts classify.Counts) {
	var rows [][]string
	for _, ty := range classify.Types() {
		rows = append(rows, []string{ty.String(), strconv.Itoa(counts.Of(ty)),
			fmt.Sprintf("%.1f%%", 100*counts.Share(ty))})
	}
	fmt.Fprint(w, textplot.Table([]string{"type", "count", "share"}, rows))
}

// ingestAll ingests the sources into the store at dir as one ingest,
// so a failure leaves none of them behind, and writes the writer stats
// to w.
func ingestAll(w io.Writer, dir string, srcs ...stream.EventSource) error {
	st, err := evstore.Ingest(dir, stream.Concat(srcs...))
	if err != nil {
		return fmt.Errorf("store ingest: %w", err)
	}
	fmt.Fprintf(w, "ingested into %s: %d events, %d blocks, %d partitions, %d bytes\n",
		dir, st.Events, st.Blocks, st.Partitions, st.Bytes)
	return nil
}
