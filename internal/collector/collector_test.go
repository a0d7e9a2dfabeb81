package collector

import (
	"net/netip"
	"os"
	"slices"
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/classify"
	"repro/internal/mrt"
	"repro/internal/pipeline"
	"repro/internal/registry"
	"repro/internal/stream"
	"repro/internal/workload"
)

var day = time.Date(2020, 3, 15, 0, 0, 0, 0, time.UTC)

func TestEventRecordRoundTrip(t *testing.T) {
	e := classify.Event{
		Time:        day.Add(2 * time.Hour),
		Collector:   "rrc00",
		PeerAS:      20205,
		PeerAddr:    netip.MustParseAddr("203.0.113.5"),
		Prefix:      netip.MustParsePrefix("84.205.64.0/24"),
		ASPath:      bgp.NewASPath(20205, 3356, 12654),
		Communities: bgp.Communities{bgp.NewCommunity(3356, 901)},
	}
	rec, err := EventRecord(e, nil)
	if err != nil {
		t.Fatal(err)
	}
	msg, err := rec.Decode()
	if err != nil {
		t.Fatal(err)
	}
	upd := msg.(*bgp.Update)
	if upd.NLRI[0] != e.Prefix {
		t.Errorf("prefix: %v", upd.NLRI)
	}
	if !upd.Attrs.ASPath.Equal(e.ASPath) {
		t.Errorf("path: %v", upd.Attrs.ASPath)
	}
	if !upd.Attrs.Communities.Equal(e.Communities) {
		t.Errorf("communities: %v", upd.Attrs.Communities)
	}
}

func TestEventRecordRouteServerStripsASN(t *testing.T) {
	e := classify.Event{
		Time:     day,
		PeerAS:   6695,
		PeerAddr: netip.MustParseAddr("203.0.113.9"),
		Prefix:   netip.MustParsePrefix("84.205.64.0/24"),
		ASPath:   bgp.NewASPath(6695, 3356, 12654),
	}
	rec, err := EventRecord(e, map[uint32]bool{6695: true})
	if err != nil {
		t.Fatal(err)
	}
	upd, _ := rec.Decode()
	got := upd.(*bgp.Update).Attrs.ASPath.String()
	if got != "3356 12654" {
		t.Errorf("path = %q, want route server ASN stripped", got)
	}
}

func TestEventRecordIPv6(t *testing.T) {
	e := classify.Event{
		Time:     day,
		PeerAS:   20205,
		PeerAddr: netip.MustParseAddr("2001:db8::5"),
		Prefix:   netip.MustParsePrefix("2001:7fb:ff00::/48"),
		ASPath:   bgp.NewASPath(20205, 12654),
	}
	rec, err := EventRecord(e, nil)
	if err != nil {
		t.Fatal(err)
	}
	upd, _ := rec.Decode()
	ann := upd.(*bgp.Update).Announced()
	if len(ann) != 1 || ann[0] != e.Prefix {
		t.Errorf("announced: %v", ann)
	}
	// v6 withdrawal.
	e.Withdraw = true
	rec, err = EventRecord(e, nil)
	if err != nil {
		t.Fatal(err)
	}
	upd, _ = rec.Decode()
	wd := upd.(*bgp.Update).AllWithdrawn()
	if len(wd) != 1 || wd[0] != e.Prefix {
		t.Errorf("withdrawn: %v", wd)
	}
}

// TestSourcesMRTRoundTrip is the end-to-end §4 test: generate a day,
// write MRT archives, read them back through the pipeline, and verify the
// classifier sees the same announcement mix.
func TestSourcesMRTRoundTrip(t *testing.T) {
	cfg := workload.DefaultDayConfig(day)
	cfg.Collectors = 2
	cfg.PeersPerCollector = 6
	cfg.PrefixesV4 = 80
	cfg.PrefixesV6 = 8
	peers, sources := workload.DaySources(cfg)

	dir := t.TempDir()
	files, err := WriteSourcesDir(peers, sources, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 {
		t.Fatalf("files: %v", files)
	}

	// Direct classification.
	var direct classify.CountsAnalyzer
	classify.RunAll(stream.Concat(sources...), nil, &direct)

	// Via MRT + pipeline.
	norm := pipeline.NewNormalizer(registry.Synthetic(time.Date(2009, 1, 1, 0, 0, 0, 0, time.UTC)))
	routeServers := workload.RouteServerASNs(peers)
	norm.RouteServers = routeServers
	var pipedEvents []classify.Event
	for name, path := range files {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		err = norm.ProcessReader(name, mrt.NewReader(f), func(e classify.Event) error {
			pipedEvents = append(pipedEvents, e)
			return nil
		})
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	var piped classify.CountsAnalyzer
	classify.RunAll(slices.Values(pipedEvents), nil, &piped)

	if piped.Counts != direct.Counts {
		t.Errorf("counts: piped %+v, direct %+v", piped.Counts, direct.Counts)
	}
	if norm.Stats.DroppedBogonASN != 0 || norm.Stats.DroppedBogonPrefix != 0 {
		t.Errorf("synthetic dataset should contain no bogons: %+v", norm.Stats)
	}
	// Route-server fixups happened iff the day has RS peers that
	// announced something.
	if len(routeServers) > 0 && norm.Stats.RouteServerFixups == 0 {
		t.Error("no route-server fixups recorded")
	}
}

func TestCountRecords(t *testing.T) {
	cfg := workload.DefaultBeaconConfig(day)
	cfg.Collectors = 1
	cfg.PeersPerCollector = 2
	peers, sources := workload.BeaconSources(cfg)
	dir := t.TempDir()
	files, err := WriteSourcesDir(peers, sources, dir)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, path := range files {
		n, err := CountRecords(path)
		if err != nil {
			t.Fatal(err)
		}
		total += n
	}
	if events := stream.Count(stream.Concat(sources...)); total != events {
		t.Errorf("records = %d, events = %d", total, events)
	}
}
