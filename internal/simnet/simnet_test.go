package simnet

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"repro/internal/classify"
	"repro/internal/evstore"
	"repro/internal/router"
	"repro/internal/stream"
	"repro/internal/topo"
)

var testStart = time.Date(2020, 3, 15, 0, 0, 0, 0, time.UTC)

// testMatrix is the default matrix at a test-friendly duration.
func testMatrix() []Scenario { return DefaultMatrix(testStart, 6) }

func TestCaptureObservesOnlyCollectorFeed(t *testing.T) {
	lab, err := topo.BuildLab(testStart, topo.LabConfig{Behavior: router.CiscoIOS, GeoTags: true})
	if err != nil {
		t.Fatal(err)
	}
	collector, peerAS, peerAddr := lab.CollectorFeedIdentity()
	cap := NewCapture(collector, "lab-day", peerAS, peerAddr)
	full := router.NewTraceBuffer()
	lab.Net.SetSink(router.MultiSink(cap, full))
	if err := lab.FailY1Y2(); err != nil {
		t.Fatal(err)
	}
	if cap.Messages() == 0 {
		t.Fatal("capture saw nothing after the link event")
	}
	collectorBound := 0
	for _, m := range full.Messages() {
		if m.To == collector {
			collectorBound++
		}
	}
	if cap.Messages() != collectorBound {
		t.Errorf("capture recorded %d messages, full trace shows %d collector-bound",
			cap.Messages(), collectorBound)
	}
	if cap.Messages() >= len(full.Messages()) {
		t.Errorf("capture (%d) should hold fewer messages than the full trace (%d)",
			cap.Messages(), len(full.Messages()))
	}
	peers, sources := cap.Sources()
	if len(peers) != len(sources) || len(peers) == 0 {
		t.Fatalf("Sources() = %d peers, %d sources", len(peers), len(sources))
	}
	for i, p := range peers {
		if p.Collector != "lab-day" {
			t.Errorf("peer %d collector = %q, want label", i, p.Collector)
		}
		if p.AS == 0 || !p.Addr.IsValid() {
			t.Errorf("peer %d identity not resolved: %+v", i, p)
		}
	}
	for e := range cap.Source() {
		if e.Collector != "lab-day" {
			t.Fatalf("event collector = %q", e.Collector)
		}
	}
}

func TestCaptureEventsDoNotAliasRouterState(t *testing.T) {
	// Captured events must be decoupled from the updates the routers
	// own: the traced *bgp.Update attrs alias the senders' Adj-RIB-Out
	// (the Canonical aliasing hazard), so scribbling on them must not
	// reach the capture's feeds.
	buf := router.NewTraceBuffer()
	res, err := RunObserved(Scenario{Topology: TopoLab, Policy: PolicyTagOnly,
		Vendor: router.CiscoIOS, Workload: WorkChurn, Hours: 2, Start: testStart}, buf)
	if err != nil {
		t.Fatal(err)
	}
	var mutated bool
	for _, m := range buf.Messages() {
		for i := range m.Update.Attrs.Communities {
			m.Update.Attrs.Communities[i] = 0xFFFFFFFF
			mutated = true
		}
		m.Update.Attrs.ASPath = m.Update.Attrs.ASPath.Prepend(65535, 3)
	}
	if !mutated {
		t.Fatal("no community-carrying messages traced")
	}
	for e := range res.Capture.Source() {
		if e.Communities.Contains(0xFFFFFFFF) || e.ASPath.Contains(65535) {
			t.Fatal("captured event aliases router-owned update attrs")
		}
	}
	if again := countTypes(res.Capture.Source(), nil); again != res.Counts {
		t.Error("capture counts changed after router-side mutation")
	}
}

// legacyCounts reproduces the pre-streaming analysis flow verbatim:
// materialize the full network trace, filter to the collector, convert,
// and classify in one pass — independently of the Capture code path.
func legacyCounts(msgs []router.TracedMessage, collectorRouter, label string, tb *Capture) classify.Counts {
	var evs []classify.Event
	for _, m := range msgs {
		if m.To != collectorRouter {
			continue
		}
		for _, prefix := range m.Update.AllWithdrawn() {
			evs = append(evs, classify.Event{
				Time: m.Time, Collector: label,
				PeerAS: tb.peerAS[m.From], PeerAddr: tb.peerAddr[m.From],
				Prefix: prefix, Withdraw: true,
			})
		}
		for _, prefix := range m.Update.Announced() {
			evs = append(evs, classify.Event{
				Time: m.Time, Collector: label,
				PeerAS: tb.peerAS[m.From], PeerAddr: tb.peerAddr[m.From],
				Prefix:      prefix,
				ASPath:      m.Update.Attrs.ASPath,
				Communities: m.Update.Attrs.Communities.Canonical(),
				HasMED:      m.Update.Attrs.HasMED,
				MED:         m.Update.Attrs.MED,
			})
		}
	}
	return countTypes(slices.Values(evs), nil)
}

// countTypes classifies src in one pass and returns the Table 2 counts of
// its in-window events (nil counts every event).
func countTypes(src stream.EventSource, inWindow func(classify.Event) bool) classify.Counts {
	var counts classify.CountsAnalyzer
	classify.RunAll(src, inWindow, &counts)
	return counts.Counts
}

func TestStreamingMatchesMaterializedTrace(t *testing.T) {
	// Property: for every matrix scenario, the streaming capture path
	// classifies identically to the legacy full-trace-then-filter path
	// run side by side on the same engine.
	for _, s := range testMatrix() {
		s := s
		t.Run(s.withDefaults().Name, func(t *testing.T) {
			buf := router.NewTraceBuffer()
			res, err := RunObserved(s, buf)
			if err != nil {
				t.Fatal(err)
			}
			legacy := legacyCounts(buf.Messages(), res.Capture.collector, s.withDefaults().Name, res.Capture)
			if legacy != res.Counts {
				t.Errorf("streaming counts %+v != legacy materialized counts %+v", res.Counts, legacy)
			}
			// The replay bridge normalizes the materialized trace through
			// the same capture path; it must agree too.
			replayed := countTypes(res.Capture.ReplayTrace(buf.Messages()).Source(), nil)
			if replayed != res.Counts {
				t.Errorf("replayed counts %+v != streaming counts %+v", replayed, res.Counts)
			}
		})
	}
}

func TestStoreRoundTripClassifiesIdentically(t *testing.T) {
	// Property: ingesting every scenario's capture into one store (each
	// scenario is its own collector) and scanning it back per collector
	// classifies identically to the live streaming path.
	if testing.Short() {
		t.Skip("store round trip over the full matrix is not short")
	}
	results := Sweep(testMatrix(), 0)
	dir := t.TempDir()
	for _, res := range results {
		if res.Err != nil {
			t.Fatalf("%s: %v", res.Scenario.Name, res.Err)
		}
		if _, err := evstore.Ingest(dir, res.Capture.Source()); err != nil {
			t.Fatalf("%s: ingest: %v", res.Scenario.Name, err)
		}
	}
	for _, res := range results {
		var scanErr error
		src := evstore.Scan(dir, evstore.Query{Collectors: []string{res.Scenario.Name}}, &scanErr)
		got := countTypes(src, nil)
		if scanErr != nil {
			t.Fatalf("%s: scan: %v", res.Scenario.Name, scanErr)
		}
		if got != res.Counts {
			t.Errorf("%s: store round-trip counts %+v != streaming %+v",
				res.Scenario.Name, got, res.Counts)
		}
	}
}

func TestSweepParallelMatchesSequential(t *testing.T) {
	matrix := testMatrix()
	par := Sweep(matrix, 4)
	seq := SweepSequential(matrix)
	if len(par) != len(seq) {
		t.Fatalf("result lengths differ: %d vs %d", len(par), len(seq))
	}
	for i := range par {
		if par[i].Err != nil || seq[i].Err != nil {
			t.Fatalf("scenario %d errored: par=%v seq=%v", i, par[i].Err, seq[i].Err)
		}
		if par[i].Counts != seq[i].Counts {
			t.Errorf("%s: parallel counts %+v != sequential %+v",
				par[i].Scenario.Name, par[i].Counts, seq[i].Counts)
		}
		if par[i].Messages != seq[i].Messages {
			t.Errorf("%s: parallel messages %d != sequential %d",
				par[i].Scenario.Name, par[i].Messages, seq[i].Messages)
		}
	}
}

func TestDefaultMatrixIsDiverse(t *testing.T) {
	matrix := DefaultMatrix(testStart, 0)
	if len(matrix) < 8 {
		t.Fatalf("matrix has %d scenarios, want >= 8", len(matrix))
	}
	names := make(map[string]bool)
	topos := make(map[TopologyKind]bool)
	policies := make(map[PolicyMode]bool)
	workloads := make(map[WorkloadKind]bool)
	vendors := make(map[string]bool)
	for _, s := range matrix {
		s = s.withDefaults()
		if names[s.Name] {
			t.Errorf("duplicate scenario name %q", s.Name)
		}
		names[s.Name] = true
		topos[s.Topology] = true
		policies[s.Policy] = true
		workloads[s.Workload] = true
		vendors[s.Vendor.Name] = true
	}
	if len(topos) < 4 || len(policies) < 4 || len(workloads) < 2 || len(vendors) < 3 {
		t.Errorf("matrix not diverse enough: %d topologies, %d policies, %d workloads, %d vendors",
			len(topos), len(policies), len(workloads), len(vendors))
	}
}

func TestScenarioDeterminism(t *testing.T) {
	// Two runs of the same scenario produce byte-identical feeds.
	s := Scenario{Topology: TopoInternet, Policy: PolicyMixed,
		Vendor: router.CiscoIOS, Workload: WorkChurn, Hours: 3, Start: testStart}
	a, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	ea, eb := stream.Collect(a.Capture.Source()), stream.Collect(b.Capture.Source())
	if len(ea) != len(eb) {
		t.Fatalf("runs differ in length: %d vs %d", len(ea), len(eb))
	}
	for i := range ea {
		if !ea[i].Time.Equal(eb[i].Time) || ea[i].Prefix != eb[i].Prefix ||
			ea[i].Withdraw != eb[i].Withdraw ||
			!ea[i].ASPath.Equal(eb[i].ASPath) ||
			!ea[i].Communities.Equal(eb[i].Communities) {
			t.Fatalf("event %d differs between runs:\n%+v\n%+v", i, ea[i], eb[i])
		}
	}
}

// TestDriveMatchesCapture pins the live-driver contract: Drive streams
// exactly the events a Capture of the same scenario materializes —
// same count, same classification — so a paced live feed and the
// batch capture are the same workload.
func TestDriveMatchesCapture(t *testing.T) {
	s := Scenario{Topology: TopoStar, Policy: PolicyTagOnly, Vendor: router.CiscoIOS,
		Workload: WorkBeacon, Start: testStart, Hours: 6}
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	var streamed []classify.Event
	n, err := Drive(context.Background(), s, func(e classify.Event) error {
		streamed = append(streamed, e)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != len(streamed) || n != res.Capture.Events() {
		t.Fatalf("Drive emitted %d events (collected %d), capture saw %d",
			n, len(streamed), res.Capture.Events())
	}
	if n == 0 {
		t.Fatal("scenario produced no events")
	}
	got := countTypes(stream.FromSlice(streamed), nil)
	if got != res.Counts {
		t.Fatalf("Drive classification %+v != capture %+v", got, res.Counts)
	}
}

// TestDriveResumesDeterministically pins the skip-N restart contract a
// supervisor relies on: aborting a drive mid-run and re-driving the
// same scenario while skipping the already-emitted prefix reproduces
// the uninterrupted sequence exactly.
func TestDriveResumesDeterministically(t *testing.T) {
	s := Scenario{Topology: TopoLab, Policy: PolicyTagOnly, Vendor: router.CiscoIOS,
		Workload: WorkChurn, Start: testStart, Hours: 6}
	var full []classify.Event
	if _, err := Drive(context.Background(), s, func(e classify.Event) error {
		full = append(full, e)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(full) < 10 {
		t.Fatalf("scenario too small for a resume test: %d events", len(full))
	}

	stopAfter := len(full) / 2
	var first []classify.Event
	errStop := errors.New("killed")
	_, err := Drive(context.Background(), s, func(e classify.Event) error {
		if len(first) >= stopAfter {
			return errStop
		}
		first = append(first, e)
		return nil
	})
	if !errors.Is(err, errStop) {
		t.Fatalf("aborted drive returned %v, want errStop", err)
	}

	// Restart: re-drive, skipping what was already delivered.
	resumed := append([]classify.Event(nil), first...)
	skip := len(first)
	if _, err := Drive(context.Background(), s, func(e classify.Event) error {
		if skip > 0 {
			skip--
			return nil
		}
		resumed = append(resumed, e)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(resumed) != len(full) {
		t.Fatalf("resumed run emitted %d events, want %d", len(resumed), len(full))
	}
	for i := range full {
		if !eventsEqual(full[i], resumed[i]) {
			t.Fatalf("event %d diverged after resume:\n full:    %+v\n resumed: %+v", i, full[i], resumed[i])
		}
	}
}

// eventsEqual compares events including attribute slices.
func eventsEqual(a, b classify.Event) bool {
	if !a.Time.Equal(b.Time) || a.Collector != b.Collector || a.PeerAS != b.PeerAS ||
		a.PeerAddr != b.PeerAddr || a.Prefix != b.Prefix || a.Withdraw != b.Withdraw ||
		a.HasMED != b.HasMED || a.MED != b.MED {
		return false
	}
	if a.ASPath.String() != b.ASPath.String() {
		return false
	}
	return a.Communities.String() == b.Communities.String()
}
