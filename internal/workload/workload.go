// Package workload synthesizes the datasets the paper draws from the
// RouteViews and RIPE RIS archives (§4): a full-day update stream
// (d_mar20), quarterly days across 2010–2020 (d_hist), and the beacon
// subset (d_beacon). Real archives are not redistributable at this scale,
// so the generator reproduces the *mechanisms* the paper identifies —
// community geo-tagging, missing ingress filtering, egress cleaning, and
// path exploration — so that the announcement-type mix, its longitudinal
// stability, and the beacon phase structure match the paper's shapes.
package workload

import (
	"math"
	"math/rand"
	"net/netip"
	"sort"
	"time"

	"repro/internal/bgp"
	"repro/internal/classify"
)

// PeerKind is a collector peer's community hygiene, the behavioural axis
// §3 and §6 identify.
type PeerKind int

// Peer kinds.
const (
	// PeerTransparent neither adds nor removes communities; upstream geo
	// tags pass through and produce nc announcements.
	PeerTransparent PeerKind = iota
	// PeerCleansEgress strips communities toward the collector but not on
	// ingress, so internal community churn surfaces as nn duplicates
	// (Exp3; the AS 20811 case of Figure 5).
	PeerCleansEgress
	// PeerCleansIngress strips communities on ingress, suppressing both
	// the nc churn and the nn duplicates (Exp4).
	PeerCleansIngress
)

// Peer is one collector peer session in the synthetic topology.
type Peer struct {
	AS        uint32
	Addr      netip.Addr
	Collector string
	Kind      PeerKind
	// TaggedUpstream marks sessions whose transit path crosses a
	// geo-tagging AS (the AS3356 role in §6).
	TaggedUpstream bool
	// UpstreamAS is the first transit hop, which owns the geo communities.
	UpstreamAS uint32
	// RouteServer marks IXP route-server peers that omit their own ASN
	// from announcements (§4); the MRT writer drops it on export and the
	// pipeline re-inserts it.
	RouteServer bool
}

// inDay is the single definition of the counting-window convention:
// [day, day+24h), half-open. The config InWindow predicates share it so
// no two analyses can disagree on the boundary.
func inDay(day time.Time, e classify.Event) bool {
	return !e.Time.Before(day) && e.Time.Before(day.Add(24*time.Hour))
}

// RouteServerASNs returns the ASNs of peers flagged as IXP route servers,
// the set the pipeline needs for its §4 AS-path fixup.
func RouteServerASNs(peers []Peer) map[uint32]bool {
	out := make(map[uint32]bool)
	for _, p := range peers {
		if p.RouteServer {
			out[p.AS] = true
		}
	}
	return out
}

// streamRNG derives a deterministic per-stream RNG so generation order
// never affects results.
func streamRNG(seed int64, parts ...uint64) *rand.Rand {
	h := uint64(seed) ^ 0x9E3779B97F4A7C15
	for _, p := range parts {
		h ^= p
		h *= 0xBF58476D1CE4E5B9
		h ^= h >> 27
		h *= 0x94D049BB133111EB
		h ^= h >> 31
	}
	return rand.New(rand.NewSource(int64(h)))
}

// poisson draws a Poisson variate via inversion (mean below ~30).
func poisson(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	l := math.Exp(-mean)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 1000 {
			return k
		}
	}
}

// geoCommunitySet builds a plausible geolocation community attribute from
// a tagging AS: a city code, usually a country code, sometimes a region
// code (§6 observes 9 cities, two countries, two regions across one
// route's exploration).
func geoCommunitySet(rng *rand.Rand, tagger uint32, loc int) bgp.Communities {
	city := bgp.NewCommunity(uint16(tagger), uint16(2000+loc))
	set := bgp.Communities{city}
	if rng.Float64() < 0.8 {
		set = append(set, bgp.NewCommunity(uint16(tagger), uint16(1000+loc/8)))
	}
	if rng.Float64() < 0.4 {
		set = append(set, bgp.NewCommunity(uint16(tagger), uint16(100+loc/32)))
	}
	return set.Canonical()
}

// sortEvents orders events chronologically with a stable tie-break so
// generation is reproducible.
func sortEvents(evs []classify.Event) {
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Time.Before(evs[j].Time) })
}

// buildPeers synthesizes ncollectors × peersPer sessions with a kind mix.
// transparentFrac + cleanEgressFrac + cleanIngressFrac should be ≤ 1; the
// remainder is assigned PeerTransparent.
func buildPeers(seed int64, ncollectors, peersPer int, cleanEgressFrac, cleanIngressFrac, taggedFrac float64) []Peer {
	var peers []Peer
	transitASes := []uint32{3356, 174, 1299, 2914, 6939, 3257, 6453, 1273, 5511, 3491}
	for c := 0; c < ncollectors; c++ {
		for i := 0; i < peersPer; i++ {
			rng := streamRNG(seed, uint64(c)<<32|uint64(i), 0xC011EC70)
			asn := uint32(20000 + c*1000 + i)
			addr := netip.AddrFrom4([4]byte{100, 64 + byte(c), byte(i >> 8), byte(i)})
			kind := PeerTransparent
			switch r := rng.Float64(); {
			case r < cleanEgressFrac:
				kind = PeerCleansEgress
			case r < cleanEgressFrac+cleanIngressFrac:
				kind = PeerCleansIngress
			}
			peers = append(peers, Peer{
				AS:             asn,
				Addr:           addr,
				Collector:      collectorName(c),
				Kind:           kind,
				TaggedUpstream: rng.Float64() < taggedFrac,
				UpstreamAS:     transitASes[rng.Intn(len(transitASes))],
				RouteServer:    rng.Float64() < 0.08,
			})
		}
	}
	return peers
}

func collectorName(i int) string {
	if i < 15 {
		return rrcName(i)
	}
	return routeViewsName(i - 15)
}

func rrcName(i int) string {
	return "rrc" + twoDigits(i)
}

func routeViewsName(i int) string {
	return "route-views" + twoDigits(i)
}

func twoDigits(i int) string {
	return string([]byte{'0' + byte(i/10%10), '0' + byte(i%10)})
}
