package main

import (
	"flag"
	"fmt"
	"strconv"

	"repro/internal/labexp"
	"repro/internal/router"
	"repro/internal/textplot"
)

// runLab runs the §3 laboratory experiments on the simulated Figure 1
// topology across the modelled router implementations and prints the
// observed message matrix.
func runLab(args []string) error {
	fs := flag.NewFlagSet("lab", flag.ExitOnError)
	expFlag := fs.Int("exp", 0, "run a single experiment (1-4); 0 runs all")
	vendorFlag := fs.String("vendor", "", "run a single vendor profile (e.g. junos-12.1)")
	verbose := fs.Bool("v", false, "print per-message transcripts")
	fs.Parse(args)

	experiments := []labexp.Experiment{labexp.Exp1, labexp.Exp2, labexp.Exp3, labexp.Exp4}
	if *expFlag != 0 {
		if *expFlag < 1 || *expFlag > 4 {
			return fmt.Errorf("-exp must be 1-4")
		}
		experiments = []labexp.Experiment{labexp.Experiment(*expFlag)}
	}
	vendors := router.AllBehaviors()
	if *vendorFlag != "" {
		b, err := vendorByName(*vendorFlag)
		if err != nil {
			return err
		}
		vendors = []router.Behavior{b}
	}

	var rows [][]string
	for _, e := range experiments {
		for _, b := range vendors {
			res, err := labexp.Run(e, b)
			if err != nil {
				return err
			}
			rows = append(rows, []string{
				e.String(), b.Name,
				strconv.Itoa(len(res.Y1toX1)),
				strconv.Itoa(len(res.X1toC1)),
			})
			if *verbose {
				fmt.Printf("--- %v / %s\n", e, b.Name)
				for _, m := range res.Y1toX1 {
					fmt.Printf("  Y1→X1 %s %v\n", m.Time.Format("15:04:05.000"), m.Update)
				}
				for _, m := range res.X1toC1 {
					fmt.Printf("  X1→C1 %s %v\n", m.Time.Format("15:04:05.000"), m.Update)
				}
			}
		}
	}
	fmt.Println("Messages induced by failing the Y1–Y2 link (cf. paper §3):")
	fmt.Print(textplot.Table(
		[]string{"experiment", "vendor", "updates Y1→X1", "updates X1→C1"}, rows))
	fmt.Println("\nExpected: Junos suppresses the Exp1 and Exp3 duplicates; all")
	fmt.Println("vendors propagate the Exp2 community-only (nc) update; ingress")
	fmt.Println("cleaning (Exp4) silences the collector link for every vendor.")
	return nil
}
