// Package topo builds the network topologies used by the experiments: the
// paper's Figure 1 laboratory topology and synthetic Internet-like AS
// graphs for the measurement workloads.
package topo

import (
	"net/netip"
	"time"

	"repro/internal/bgp"
	"repro/internal/router"
)

// Lab AS numbers for the Figure 1 topology.
const (
	ASX uint32 = 65100 // transit between Y and the collector
	ASY uint32 = 65200 // three-router AS that may geo-tag
	ASZ uint32 = 65300 // origin AS
	ASC uint32 = 65400 // route collector
)

// Lab community values Y2/Y3 attach on ingress in Exp2–Exp4 (the paper's
// Y:300 and Y:400 geo tags).
var (
	TagY300 = bgp.NewCommunity(uint16(ASY), 300)
	TagY400 = bgp.NewCommunity(uint16(ASY), 400)
)

// LabConfig selects the policy variations distinguishing Exp1–Exp4.
type LabConfig struct {
	// Behavior is the vendor profile installed on every router, as the
	// paper configures all routers with one software image per run.
	Behavior router.Behavior
	// GeoTags makes Y2 add Y:300 and Y3 add Y:400 on ingress from Z.
	GeoTags bool
	// X1CleanEgress strips all communities on X1's export to the collector.
	X1CleanEgress bool
	// X1CleanIngress strips all communities on X1's import from Y1.
	X1CleanIngress bool
}

// Lab is the constructed Figure 1 network.
type Lab struct {
	Net                    *router.Network
	C1, X1, Y1, Y2, Y3, Z1 *router.Router
	// Prefix is the beacon-style prefix Z1 originates.
	Prefix netip.Prefix
}

// BuildLab constructs the Figure 1 topology:
//
//	C1 — X1 — Y1 — {Y2, Y3} — Z1   (Y1,Y2,Y3 form an iBGP full mesh)
//
// and lets Z1 originate the test prefix. The returned network has already
// converged with an empty trace.
func BuildLab(start time.Time, cfg LabConfig) (*Lab, error) {
	n := router.NewNetwork(start)
	// The lab is tiny and its experiments inspect individual messages, so
	// the full-trace sink is the right default here.
	n.EnableTrace()
	lab := &Lab{
		Net:    n,
		Prefix: netip.MustParsePrefix("84.205.64.0/24"),
	}
	id := func(a, b byte) netip.Addr { return netip.AddrFrom4([4]byte{10, 255, a, b}) }
	lab.C1 = n.AddRouter("C1", ASC, id(4, 1), cfg.Behavior)
	lab.X1 = n.AddRouter("X1", ASX, id(1, 1), cfg.Behavior)
	lab.Y1 = n.AddRouter("Y1", ASY, id(2, 1), cfg.Behavior)
	lab.Y2 = n.AddRouter("Y2", ASY, id(2, 2), cfg.Behavior)
	lab.Y3 = n.AddRouter("Y3", ASY, id(2, 3), cfg.Behavior)
	lab.Z1 = n.AddRouter("Z1", ASZ, id(3, 1), cfg.Behavior)

	addr := func(s string) netip.Addr { return netip.MustParseAddr(s) }

	// X1 — C1 (eBGP to the collector).
	var x1Export router.Policy
	if cfg.X1CleanEgress {
		x1Export = router.Policy{router.StripAllCommunities()}
	}
	n.Connect(lab.X1, lab.C1, router.SessionConfig{
		AAddr: addr("10.0.41.1"), BAddr: addr("10.0.41.4"),
		AExport: x1Export,
	})

	// Y1 — X1 (eBGP).
	var x1Import router.Policy
	if cfg.X1CleanIngress {
		x1Import = router.Policy{router.StripAllCommunities()}
	}
	n.Connect(lab.Y1, lab.X1, router.SessionConfig{
		AAddr: addr("10.0.12.2"), BAddr: addr("10.0.12.1"),
		BImport: x1Import,
	})

	// iBGP full mesh inside Y.
	n.Connect(lab.Y1, lab.Y2, router.SessionConfig{
		AAddr: addr("10.1.12.1"), BAddr: addr("10.1.12.2"),
	})
	n.Connect(lab.Y1, lab.Y3, router.SessionConfig{
		AAddr: addr("10.1.13.1"), BAddr: addr("10.1.13.3"),
	})
	n.Connect(lab.Y2, lab.Y3, router.SessionConfig{
		AAddr: addr("10.1.23.2"), BAddr: addr("10.1.23.3"),
	})

	// Y2 — Z1 and Y3 — Z1 (eBGP), with optional ingress geo-tagging.
	var y2Import, y3Import router.Policy
	if cfg.GeoTags {
		y2Import = router.Policy{router.AddCommunity(TagY300)}
		y3Import = router.Policy{router.AddCommunity(TagY400)}
	}
	n.Connect(lab.Y2, lab.Z1, router.SessionConfig{
		AAddr: addr("10.0.23.2"), BAddr: addr("10.0.23.1"),
		AImport: y2Import,
	})
	n.Connect(lab.Y3, lab.Z1, router.SessionConfig{
		AAddr: addr("10.0.33.3"), BAddr: addr("10.0.33.1"),
		AImport: y3Import,
	})

	lab.Z1.Originate(lab.Prefix, nil)
	if _, err := n.Run(); err != nil {
		return nil, err
	}
	n.ClearTrace()
	return lab, nil
}

// CollectorFeedIdentity describes C1's single collector feed — the
// session X1 announces over — in the map shape the capture sinks and MRT
// archivers expect.
func (l *Lab) CollectorFeedIdentity() (collectorRouter string, peerAS map[string]uint32, peerAddr map[string]netip.Addr) {
	return "C1",
		map[string]uint32{"X1": ASX},
		map[string]netip.Addr{"X1": netip.MustParseAddr("10.0.41.1")}
}

// FailY1Y2 disables the Y1–Y2 link, the event every lab experiment uses to
// induce updates, and runs the network to quiescence.
func (l *Lab) FailY1Y2() error {
	if err := l.Net.SetSession("Y1", "Y2", false); err != nil {
		return err
	}
	_, err := l.Net.Run()
	return err
}
