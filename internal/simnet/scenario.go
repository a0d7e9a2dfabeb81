package simnet

import (
	"fmt"
	"net/netip"
	"time"

	"repro/internal/beacon"
	"repro/internal/bgp"
	"repro/internal/classify"
	"repro/internal/dampening"
	"repro/internal/router"
	"repro/internal/topo"
)

// TopologyKind selects the scenario's network shape.
type TopologyKind int

// The four shapes of the matrix.
const (
	// TopoLine is a transit chain with the collector at the tail.
	TopoLine TopologyKind = iota
	// TopoStar is hub-and-spoke; every collector path crosses the hub.
	TopoStar
	// TopoLab is the paper's Figure 1 laboratory topology.
	TopoLab
	// TopoInternet is the tiered synthetic Internet of topo.BuildInternet.
	TopoInternet
)

// String names the shape.
func (k TopologyKind) String() string {
	switch k {
	case TopoLine:
		return "line"
	case TopoStar:
		return "star"
	case TopoLab:
		return "lab"
	case TopoInternet:
		return "internet"
	}
	return fmt.Sprintf("topology(%d)", int(k))
}

// PolicyMode selects the per-AS community hygiene installed across the
// topology — the experimental variable of the paper.
type PolicyMode int

// Hygiene modes, from most leaky to most conservative.
const (
	// PolicyPropagate: no tagging, no cleaning; communities (there are
	// none to create) propagate transparently.
	PolicyPropagate PolicyMode = iota
	// PolicyTagOnly: transit ASes tag on ingress, nobody cleans — the
	// paper's default Internet (Exp2).
	PolicyTagOnly
	// PolicyCleanEgress: tagging plus cleaning on the collector-facing
	// egress (Exp3): nc churn becomes nn duplicates.
	PolicyCleanEgress
	// PolicyCleanIngress: tagging plus cleaning on transit ingress
	// (Exp4): the spurious-update cascade stops at the source.
	PolicyCleanIngress
	// PolicyMixed: tagging with a mixed peer population — some
	// transparent, some egress-cleaning, some ingress-cleaning — the
	// vendor-diverse Internet the measurement sections observe.
	PolicyMixed
)

// String names the mode.
func (m PolicyMode) String() string {
	switch m {
	case PolicyPropagate:
		return "propagate"
	case PolicyTagOnly:
		return "tag-only"
	case PolicyCleanEgress:
		return "clean-egress"
	case PolicyCleanIngress:
		return "clean-ingress"
	case PolicyMixed:
		return "mixed"
	}
	return fmt.Sprintf("policy(%d)", int(m))
}

// WorkloadKind selects what drives the simulated day.
type WorkloadKind int

// Workloads.
const (
	// WorkBeacon announces/withdraws beacon prefixes on the RIPE
	// schedule — the controlled stimulus of §6.
	WorkBeacon WorkloadKind = iota
	// WorkChurn is steady-state background churn: periodic link flaps
	// (path exploration) interleaved with attribute-only re-originations
	// (community churn), the uncontrolled traffic of §5.
	WorkChurn
)

// String names the workload.
func (w WorkloadKind) String() string {
	switch w {
	case WorkBeacon:
		return "beacon"
	case WorkChurn:
		return "churn"
	}
	return fmt.Sprintf("workload(%d)", int(w))
}

// Scenario is one cell of the sweep matrix: a topology context, a
// hygiene policy, a vendor profile, timer settings, and a workload. Each
// scenario runs on its own single-threaded engine and shares nothing, so
// scenarios execute embarrassingly parallel.
type Scenario struct {
	// Name labels the scenario; it becomes Event.Collector on every
	// captured event, so each scenario ingests as its own collector-day.
	Name string

	Topology TopologyKind
	// Size scales the topology: chain length for line, leaves for star,
	// stub count for internet; ignored for lab. Zero picks a default.
	Size int

	Policy PolicyMode
	// Vendor is the behavior profile installed on every router.
	Vendor router.Behavior

	// MRAI rate-limits collector-peer advertisements toward the
	// collector (zero: off). Dampening enables flap dampening on the
	// collector's ingress (nil: off).
	MRAI      time.Duration
	Dampening *dampening.Config

	Workload WorkloadKind
	// Hours is the simulated duration (default 24 — one collector day).
	Hours int
	// Beacons is how many beacon prefixes WorkBeacon cycles (default 1).
	Beacons int
	// ChurnPeriod spaces WorkChurn's events (default 15 minutes).
	ChurnPeriod time.Duration

	// Start is the midnight-UTC day start; Seed feeds topology jitter.
	Start time.Time
	Seed  int64
}

// WithDefaults returns the scenario with zero fields filled in —
// notably Name, so callers that key on scenario identity (feed labels,
// result maps) see the same derived name the runner will use.
func (s Scenario) WithDefaults() Scenario { return s.withDefaults() }

// withDefaults fills zero fields.
func (s Scenario) withDefaults() Scenario {
	if s.Hours <= 0 {
		s.Hours = 24
	}
	if s.Beacons <= 0 {
		s.Beacons = 1
	}
	if s.ChurnPeriod <= 0 {
		s.ChurnPeriod = 15 * time.Minute
	}
	if s.Start.IsZero() {
		s.Start = time.Date(2020, 3, 15, 0, 0, 0, 0, time.UTC)
	}
	if s.Name == "" {
		s.Name = fmt.Sprintf("%s-%s-%s-%s", s.Topology, s.Policy, s.Vendor.Name, s.Workload)
	}
	return s
}

// testbed is a built topology reduced to what the workloads and capture
// need: the network, the origin, the collector feed identity, and the
// flappable links.
type testbed struct {
	net       *router.Network
	origin    *router.Router
	collector string
	peerAS    map[string]uint32
	peerAddr  map[string]netip.Addr
	flaps     [][2]string
}

// build constructs the scenario's topology, converged and untraced.
func (s Scenario) build() (*testbed, error) {
	switch s.Topology {
	case TopoLine:
		size := s.Size
		if size <= 0 {
			size = 6
		}
		cfg := topo.LineConfig{
			Seed: s.Seed, Behavior: s.Vendor, ASes: size,
			Tagging:      s.Policy != PolicyPropagate,
			CleanEgress:  s.Policy == PolicyCleanEgress || s.Policy == PolicyMixed,
			CleanIngress: s.Policy == PolicyCleanIngress,
			MRAI:         s.MRAI, Dampening: s.Dampening,
		}
		inet, err := topo.BuildLine(s.Start, cfg)
		if err != nil {
			return nil, err
		}
		return testbedFromInternet(inet), nil
	case TopoStar:
		size := s.Size
		if size <= 0 {
			size = 8
		}
		cfg := topo.StarConfig{
			Seed: s.Seed, Behavior: s.Vendor, Leaves: size,
			CollectorPeers: size - 2,
			Tagging:        s.Policy != PolicyPropagate,
			MRAI:           s.MRAI, Dampening: s.Dampening,
		}
		switch s.Policy {
		case PolicyCleanEgress:
			cfg.CleanEgressPeers = 1
		case PolicyCleanIngress:
			cfg.CleanIngressPeers = 1
		case PolicyMixed:
			cfg.CleanEgressPeers = 3
			cfg.CleanIngressPeers = 2
		}
		inet, err := topo.BuildStar(s.Start, cfg)
		if err != nil {
			return nil, err
		}
		return testbedFromInternet(inet), nil
	case TopoLab:
		cfg := topo.LabConfig{
			Behavior:       s.Vendor,
			GeoTags:        s.Policy != PolicyPropagate,
			X1CleanEgress:  s.Policy == PolicyCleanEgress || s.Policy == PolicyMixed,
			X1CleanIngress: s.Policy == PolicyCleanIngress,
		}
		lab, err := topo.BuildLab(s.Start, cfg)
		if err != nil {
			return nil, err
		}
		collector, peerAS, peerAddr := lab.CollectorFeedIdentity()
		return &testbed{
			net:       lab.Net,
			origin:    lab.Z1,
			collector: collector,
			peerAS:    peerAS,
			peerAddr:  peerAddr,
			// Y1–Y2 is the link every lab experiment flaps; Y2 stays
			// reachable through the Y mesh.
			flaps: [][2]string{{"Y1", "Y2"}},
		}, nil
	case TopoInternet:
		cfg := topo.DefaultInternetConfig(s.Vendor)
		cfg.Seed = s.Seed + 42
		if s.Size > 0 {
			cfg.Stubs = s.Size
		}
		cfg.GeoTagging = s.Policy != PolicyPropagate
		cfg.CleanEgressPeers = 0
		cfg.CleanIngressPeers = 0
		switch s.Policy {
		case PolicyCleanEgress:
			cfg.CleanEgressPeers = 1
		case PolicyCleanIngress:
			cfg.CleanIngressPeers = 1
		case PolicyMixed:
			cfg.CleanEgressPeers = 3
			cfg.CleanIngressPeers = 2
		}
		cfg.MRAI = s.MRAI
		cfg.Dampening = s.Dampening
		inet, err := topo.BuildInternet(s.Start, cfg)
		if err != nil {
			return nil, err
		}
		return testbedFromInternet(inet), nil
	}
	return nil, fmt.Errorf("simnet: unknown topology %v", s.Topology)
}

func testbedFromInternet(inet *topo.Internet) *testbed {
	return &testbed{
		net:       inet.Net,
		origin:    inet.Origin,
		collector: inet.Collector.Name,
		peerAS:    inet.PeerAS,
		peerAddr:  inet.PeerAddr,
		flaps:     inet.FlapLinks,
	}
}

// drive runs the scenario's workload against a built testbed. The
// installed sink observes everything the collector hears. check (may
// be nil) runs between workload steps; a non-nil return aborts the
// run — how Drive propagates sink errors and context cancellation out
// of an otherwise run-to-completion engine.
func (s Scenario) drive(tb *testbed, check func() error) error {
	if check == nil {
		check = func() error { return nil }
	}
	n := tb.net
	end := s.Start.Add(time.Duration(s.Hours) * time.Hour)
	switch s.Workload {
	case WorkBeacon:
		for _, ev := range beacon.RIPE.EventsBetween(s.Start, end) {
			if err := check(); err != nil {
				return err
			}
			n.Engine.RunUntil(ev.At)
			for i := 0; i < s.Beacons; i++ {
				if ev.Withdraw {
					tb.origin.WithdrawOriginated(beacon.PrefixN(i))
				} else {
					tb.origin.Originate(beacon.PrefixN(i), nil)
				}
			}
		}
	case WorkChurn:
		// Steady state: the origin holds its prefix up the whole run
		// while the network around it churns. Every period, cycle
		// through (1) a link flap — down, reconverge, back up — and
		// (2)–(3) attribute-only re-originations with a rotating
		// community, the origin-side community churn of §5.
		p := beacon.PrefixN(0)
		tb.origin.Originate(p, bgp.Communities{bgp.NewCommunity(uint16(tb.origin.AS), 1)})
		if _, err := n.Run(); err != nil {
			return err
		}
		step := 0
		for t := s.Start.Add(s.ChurnPeriod); t.Before(end); t = t.Add(s.ChurnPeriod) {
			if err := check(); err != nil {
				return err
			}
			n.Engine.RunUntil(t)
			if len(tb.flaps) > 0 && step%3 == 0 {
				link := tb.flaps[(step/3)%len(tb.flaps)]
				if err := n.SetSession(link[0], link[1], false); err != nil {
					return err
				}
				if _, err := n.Run(); err != nil {
					return err
				}
				n.Engine.RunUntil(n.Engine.Now().Add(time.Minute))
				if err := n.SetSession(link[0], link[1], true); err != nil {
					return err
				}
			} else {
				val := uint16(1 + step%8)
				tb.origin.Originate(p, bgp.Communities{bgp.NewCommunity(uint16(tb.origin.AS), val)})
			}
			if _, err := n.Run(); err != nil {
				return err
			}
			step++
		}
	default:
		return fmt.Errorf("simnet: unknown workload %v", s.Workload)
	}
	n.Engine.RunUntil(end)
	_, err := n.Run()
	return err
}

// Result is one executed scenario: its capture (feeds, identity) and the
// streaming classification of the collector's merged view.
type Result struct {
	Scenario Scenario
	// Capture holds the per-(collector, peer) feeds; nil when Err is set.
	Capture *Capture
	// Counts is the Table 2 type counts of the merged feed.
	Counts classify.Counts
	// Messages is the raw collector-bound message count.
	Messages int
	// Elapsed is the wall-clock run time of this scenario.
	Elapsed time.Duration
	// Err records a failed run; the sweep keeps going.
	Err error
}

// Run executes one scenario through the streaming capture path.
func Run(s Scenario) (*Result, error) { return RunObserved(s, nil) }

// RunObserved is Run with an extra message sink installed alongside the
// capture — every delivered message network-wide reaches extra, which is
// how the equivalence tests materialize a legacy full trace next to the
// streaming capture.
func RunObserved(s Scenario, extra router.Sink) (*Result, error) {
	s = s.withDefaults()
	started := time.Now()
	tb, err := s.build()
	if err != nil {
		return nil, fmt.Errorf("simnet: %s: build: %w", s.Name, err)
	}
	capture := NewCapture(tb.collector, s.Name, tb.peerAS, tb.peerAddr)
	// Replace the builders' compatibility TraceBuffer: scenario runs
	// retain the collector feed only.
	tb.net.SetSink(router.MultiSink(capture, extra))
	if err := s.drive(tb, nil); err != nil {
		return nil, fmt.Errorf("simnet: %s: %w", s.Name, err)
	}
	elapsed := time.Since(started) // engine time only: classification is a consumer
	var counts classify.CountsAnalyzer
	classify.RunAll(capture.Source(), nil, &counts)
	res := &Result{
		Scenario: s,
		Capture:  capture,
		Counts:   counts.Counts,
		Messages: capture.Messages(),
		Elapsed:  elapsed,
	}
	return res, nil
}
