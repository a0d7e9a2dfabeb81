// Tomography demonstrates the paper's §7 outlook: from collector update
// streams alone, infer how each peer AS handles communities (tag /
// clean-on-egress / quiet) and how many distinct ingress locations a
// geo-tagging transit reveals about its customers — then score the
// inferences against the workload's ground truth.
//
// Run with: go run ./examples/tomography
package main

import (
	"fmt"
	"time"

	"repro/internal/analysis"
	"repro/internal/stream"
	"repro/internal/textplot"
	"repro/internal/workload"
)

func main() {
	day := time.Date(2020, 3, 15, 0, 0, 0, 0, time.UTC)
	cfg := workload.DefaultBeaconConfig(day)
	cfg.Collectors = 6
	cfg.PeersPerCollector = 12
	// Both inferences below scan the same day, so generate it once
	// (session by session, no global sort) and replay the slice. Peer
	// behaviour counts the measured day only; the ingress footprint
	// counts every event, warm-up included, so each is its own pass.
	peers, sources := workload.BeaconSources(cfg)
	src := stream.FromSlice(stream.Collect(stream.Concat(sources...)))

	behavior := analysis.NewPeerBehavior()
	analysis.RunAll(src, cfg.InWindow, behavior)
	inferences := behavior.Inferences()
	fmt.Printf("classified %d peer sessions from their update streams alone:\n\n", len(inferences))

	byClass := map[analysis.PeerBehavior]int{}
	var rows [][]string
	for i, inf := range inferences {
		byClass[inf.Behavior]++
		if i < 12 {
			rows = append(rows, []string{
				fmt.Sprintf("AS%d@%s", inf.PeerAS, inf.Session.Collector),
				fmt.Sprintf("%d", inf.Announcements),
				fmt.Sprintf("%.0f%%", 100*inf.CommShare),
				fmt.Sprintf("%.0f%%", 100*inf.NCShare),
				fmt.Sprintf("%.0f%%", 100*inf.NNShare),
				inf.Behavior.String(),
			})
		}
	}
	fmt.Print(textplot.Table(
		[]string{"session", "anncs", "comm", "nc", "nn", "verdict"}, rows))
	fmt.Printf("  ... and %d more sessions\n\n", len(inferences)-len(rows))

	fmt.Println("class totals:")
	for _, b := range []analysis.PeerBehavior{
		analysis.BehaviorPropagates, analysis.BehaviorCleansEgress, analysis.BehaviorQuiet,
	} {
		fmt.Printf("  %-14s %d sessions\n", b, byClass[b])
	}
	acc := analysis.InferenceAccuracyPeers(peers, inferences)
	fmt.Printf("\naccuracy against the generator's ground truth: %.1f%%\n\n", 100*acc)

	// Interconnection inference: distinct geo locations per (peer, tagger).
	ingress := analysis.NewIngress()
	analysis.RunAll(src, nil, ingress)
	locs := ingress.Locations()
	fmt.Printf("geo communities reveal ingress footprints for %d (peer, transit) pairs:\n", len(locs))
	for i, inf := range locs {
		if i >= 8 {
			fmt.Printf("  ... and %d more pairs\n", len(locs)-8)
			break
		}
		fmt.Printf("  AS%-6d behind transit AS%-5d: %2d distinct locations revealed\n",
			inf.PeerAS, inf.TaggerAS, inf.Locations)
	}
	fmt.Println("\ncommunities are paradoxical to BGP's information hiding: a remote")
	fmt.Println("observer learns peering breadth and location without any access to")
	fmt.Println("the networks involved (paper §7).")
}
