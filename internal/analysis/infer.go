package analysis

import (
	"fmt"

	"repro/internal/classify"
	"repro/internal/workload"
)

// PeerBehavior is the community-handling class inferable for a collector
// peer from its update stream alone — the §7 "network tomography"
// direction: "classify per-AS community behavior, for instance those that
// tag, filter, and ignore".
type PeerBehavior int

// Inferable behaviours. Ingress cleaning and a community-free upstream are
// observationally equivalent at a collector (both yield community-free,
// duplicate-free streams), so they share BehaviorQuiet.
const (
	// BehaviorPropagates: announcements routinely carry communities and
	// community-only (nc) updates occur — the peer neither filters nor
	// originates all of them (Exp2 behaviour).
	BehaviorPropagates PeerBehavior = iota
	// BehaviorCleansEgress: announcements are community-free but the
	// stream shows the duplicate (nn) bursts egress cleaning leaves behind
	// (Exp3 behaviour, the Figure 5 peer).
	BehaviorCleansEgress
	// BehaviorQuiet: community-free and duplicate-free — ingress cleaning
	// or an untagged path (Exp4 behaviour).
	BehaviorQuiet
)

// String names the behaviour.
func (b PeerBehavior) String() string {
	switch b {
	case BehaviorPropagates:
		return "propagates"
	case BehaviorCleansEgress:
		return "cleans-egress"
	case BehaviorQuiet:
		return "quiet"
	}
	return fmt.Sprintf("behavior(%d)", int(b))
}

// PeerInference is the evidence and verdict for one session.
type PeerInference struct {
	Session       classify.SessionKey
	PeerAS        uint32
	Announcements int
	// CommShare is the fraction of announcements carrying communities.
	CommShare float64
	// NCShare / NNShare are type shares within the session.
	NCShare  float64
	NNShare  float64
	Behavior PeerBehavior
}

// Inference thresholds: communities on more than 10% of announcements
// marks a propagating peer; an nn share above 10% on a community-free
// stream marks egress cleaning.
const (
	commShareThreshold = 0.10
	nnShareThreshold   = 0.10
)

// InferenceAccuracyPeers scores inferences against ground-truth peer
// profiles, mapping ground truth to the closest observable class:
// transparent+tagged → propagates; cleans-egress+tagged → cleans-egress;
// everything else (untagged, or ingress cleaning) → quiet. It returns the
// fraction of sessions classified correctly.
func InferenceAccuracyPeers(peers []workload.Peer, inferences []PeerInference) float64 {
	truth := make(map[classify.SessionKey]PeerBehavior)
	for _, p := range peers {
		key := classify.SessionKey{Collector: p.Collector, PeerAddr: p.Addr}
		switch {
		case p.TaggedUpstream && p.Kind == workload.PeerTransparent:
			truth[key] = BehaviorPropagates
		case p.TaggedUpstream && p.Kind == workload.PeerCleansEgress:
			truth[key] = BehaviorCleansEgress
		default:
			truth[key] = BehaviorQuiet
		}
	}
	if len(inferences) == 0 {
		return 0
	}
	correct := 0
	for _, inf := range inferences {
		if want, ok := truth[inf.Session]; ok && want == inf.Behavior {
			correct++
		}
	}
	return float64(correct) / float64(len(inferences))
}

// IngressInference estimates, for one (peer AS, tagging AS) pair, how many
// distinct ingress locations the tagger's geolocation communities reveal —
// the §7 observation that updates "allow us to remotely infer the number
// of interconnections between two ASes and the location where they peer".
type IngressInference struct {
	PeerAS    uint32
	TaggerAS  uint16
	Locations int
}
