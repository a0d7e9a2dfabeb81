package analysis

import (
	"testing"

	"repro/internal/beacon"
	"repro/internal/classify"
	"repro/internal/workload"
)

// geoBreakdownOf scans the day for the route's announcements.
func geoBreakdownOf(ds *genDay, session classify.SessionKey, prefix, pathStr string) GeoBreakdown {
	a := NewGeoBreakdown(session, prefix, pathStr)
	RunAll(ds.source(), nil, a)
	return a.Breakdown()
}

func TestGeoBreakdownFor(t *testing.T) {
	ds := beaconDay(smallBeaconCfg())
	session, backup := findStream(t, ds, workload.PeerTransparent, true)
	prefix := beacon.RIPEBeacons()[0].Prefix
	gb := geoBreakdownOf(ds, session, prefix.String(), backup)
	// The generator always attaches a city community, usually a country,
	// sometimes a region (mirroring the §6 observation of 9 cities, two
	// countries, two regions on a single route).
	if gb.Cities == 0 {
		t.Errorf("no city communities on an exploration path: %+v", gb)
	}
	if gb.Cities < gb.Regions {
		t.Errorf("cities should dominate regions: %+v", gb)
	}
	if gb.Other != 0 {
		t.Errorf("unexpected non-geo communities: %+v", gb)
	}
}

func TestGeoBreakdownEmptyForUnknownRoute(t *testing.T) {
	ds := beaconDay(smallBeaconCfg())
	gb := geoBreakdownOf(ds, classify.SessionKey{Collector: "nope"}, "0.0.0.0/0", "1 2 3")
	if gb != (GeoBreakdown{}) {
		t.Errorf("unknown route: %+v", gb)
	}
}
