package workload

import (
	"time"

	"repro/internal/beacon"
	"repro/internal/classify"
	"repro/internal/stream"
)

// DaySources returns the day's peer sessions plus one lazily generated,
// time-sorted event source per (collector, peer) session. Nothing is
// generated until a source is ranged, and each source's working set is
// just that session's events, so consumers that walk sessions one at a
// time (stream.Concat, per-collector fan-out) never hold the whole day.
// Sources are replayable: ranging one again regenerates deterministically.
//
// stream.Merge(sources...) yields the day globally time-ordered, with
// cross-session ties in session order; stream.Concat(sources...)
// preserves only per-session order, which is all classification and the
// per-session analyses need.
func DaySources(cfg DayConfig) ([]Peer, []stream.EventSource) {
	peers := buildPeers(cfg.Seed, cfg.Collectors, cfg.PeersPerCollector,
		cfg.CleanEgressFrac, cfg.CleanIngressFrac, cfg.TaggedFrac)
	prefixes := dayPrefixes(cfg)
	menu := cfg.normalizedMenu()
	sources := make([]stream.EventSource, len(peers))
	for i := range peers {
		peer, peerIdx := peers[i], i
		sources[i] = func(yield func(classify.Event) bool) {
			for _, e := range dayPeerEvents(cfg, peer, peerIdx, prefixes, menu) {
				if !yield(e) {
					return
				}
			}
		}
	}
	return peers, sources
}

// BeaconSources is DaySources for the beacon dataset: one lazily generated
// source per (collector, peer) session covering all beacon prefixes.
func BeaconSources(cfg BeaconConfig) ([]Peer, []stream.EventSource) {
	peers := buildPeers(cfg.Seed, cfg.Collectors, cfg.PeersPerCollector,
		cfg.CleanEgressFrac, cfg.CleanIngressFrac, cfg.TaggedFrac)
	beacons := beacon.RIPEBeacons()
	schedule := cfg.Schedule.EventsBetween(cfg.Day, cfg.Day.Add(24*time.Hour))
	sources := make([]stream.EventSource, len(peers))
	for i := range peers {
		peer, peerIdx := peers[i], i
		sources[i] = func(yield func(classify.Event) bool) {
			for _, e := range beaconPeerEvents(cfg, peer, peerIdx, beacons, schedule) {
				if !yield(e) {
					return
				}
			}
		}
	}
	return peers, sources
}

// MultiDayConfigs derives n consecutive day configurations from base:
// day k starts k*24h after base.Day. The seed is deliberately kept
// constant so the peer fabric AND the per-stream visibility draws are
// identical across days — every (session, prefix) stream present on day
// k was present on day k-1, which is the invariant that lets
// MultiDaySource drop later days' warm-up announcements: carried-over
// classifier state replaces them. (Varying the seed per day would
// re-roll peer kinds and stream visibility, creating day-k streams with
// no prior state whose first announcements would be misclassified.)
func MultiDayConfigs(base DayConfig, days int) []DayConfig {
	cfgs := make([]DayConfig, 0, days)
	for d := 0; d < days; d++ {
		cfg := base
		cfg.Day = base.Day.Add(time.Duration(d) * 24 * time.Hour)
		cfgs = append(cfgs, cfg)
	}
	return cfgs
}

// MultiDaySource streams n consecutive generated days back to back,
// session by session within each day. Day k+1 is not generated until day
// k has been fully consumed, so the peak working set is one session-day —
// multi-day ranges that could never be materialized stream in constant
// memory. Only the first day keeps its pre-day warm-up announcements
// (they seed classifier state); later days' warm-ups are dropped, since
// their streams carry state over from the previous day and the warm-ups
// would otherwise be counted as in-window traffic. The result preserves
// per-session order within each day, which classification requires; it
// is not globally time-ordered.
func MultiDaySource(base DayConfig, days int) stream.EventSource {
	cfgs := MultiDayConfigs(base, days)
	return func(yield func(classify.Event) bool) {
		for d, cfg := range cfgs {
			_, sources := DaySources(cfg)
			for _, src := range sources {
				for e := range src {
					if d > 0 && e.Time.Before(cfg.Day) {
						continue // later day's warm-up
					}
					if !yield(e) {
						return
					}
				}
			}
		}
	}
}
