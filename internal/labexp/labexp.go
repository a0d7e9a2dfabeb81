// Package labexp runs the paper's controlled laboratory experiments
// (§3, Exp1–Exp4) on the simulated Figure 1 topology and summarizes the
// messages observed on the Y1→X1 link and at the collector C1.
package labexp

import (
	"fmt"
	"time"

	"repro/internal/router"
	"repro/internal/topo"
)

// Experiment identifies one of the paper's four lab scenarios.
type Experiment int

// The four experiments of §3.
const (
	Exp1 Experiment = iota + 1 // no communities: duplicate from next-hop change
	Exp2                       // geo tags, no filtering: nc propagates to collector
	Exp3                       // geo tags, X1 cleans on egress: nn duplicate at collector
	Exp4                       // geo tags, X1 cleans on ingress: spurious update suppressed
)

// String names the experiment as in the paper.
func (e Experiment) String() string { return fmt.Sprintf("Exp%d", int(e)) }

// Config returns the lab policy configuration for the experiment.
func (e Experiment) Config(b router.Behavior) topo.LabConfig {
	cfg := topo.LabConfig{Behavior: b}
	switch e {
	case Exp1:
	case Exp2:
		cfg.GeoTags = true
	case Exp3:
		cfg.GeoTags = true
		cfg.X1CleanEgress = true
	case Exp4:
		cfg.GeoTags = true
		cfg.X1CleanIngress = true
	default:
		panic(fmt.Sprintf("labexp: unknown experiment %d", int(e)))
	}
	return cfg
}

// Result summarizes one run: the messages captured on the two observation
// points the paper instruments (between X1 and Y1, and at the collector).
type Result struct {
	Experiment Experiment
	Behavior   router.Behavior

	// Y1toX1 are updates Y1 sent to X1 after the link event.
	Y1toX1 []router.TracedMessage
	// X1toC1 are updates X1 sent to the collector after the link event.
	X1toC1 []router.TracedMessage
}

// Run executes one experiment with one vendor profile: build the converged
// topology, fail Y1–Y2, and capture the induced messages. Only the two
// observation points the paper instruments are recorded — the builder's
// full-trace buffer is replaced by filtered sinks, so nothing else is
// retained.
func Run(e Experiment, b router.Behavior) (Result, error) {
	start := time.Date(2020, 3, 15, 0, 0, 0, 0, time.UTC)
	lab, err := topo.BuildLab(start, e.Config(b))
	if err != nil {
		return Result{}, fmt.Errorf("labexp: build: %w", err)
	}
	link := func(from, to string, buf *router.TraceBuffer) router.Sink {
		return router.FilterSink(func(m router.TracedMessage) bool {
			return m.From == from && m.To == to
		}, buf)
	}
	y1x1, x1c1 := router.NewTraceBuffer(), router.NewTraceBuffer()
	lab.Net.SetSink(router.MultiSink(link("Y1", "X1", y1x1), link("X1", "C1", x1c1)))
	if err := lab.FailY1Y2(); err != nil {
		return Result{}, fmt.Errorf("labexp: fail link: %w", err)
	}
	return Result{
		Experiment: e,
		Behavior:   b,
		Y1toX1:     y1x1.Messages(),
		X1toC1:     x1c1.Messages(),
	}, nil
}
