package analysis

import (
	"testing"

	"repro/internal/classify"
	"repro/internal/workload"
)

// inferPeers runs the peer-behaviour inference over the day's counting
// window.
func inferPeers(ds *genDay) []PeerInference {
	a := NewPeerBehavior()
	RunAll(ds.source(), ds.inWindow, a)
	return a.Inferences()
}

// ingressOf runs the ingress-location inference over every event of the
// day, warm-up included.
func ingressOf(ds *genDay) []IngressInference {
	a := NewIngress()
	RunAll(ds.source(), nil, a)
	return a.Locations()
}

func TestInferPeerBehaviorOnBeaconData(t *testing.T) {
	ds := beaconDay(smallBeaconCfg())
	inferences := inferPeers(ds)
	if len(inferences) == 0 {
		t.Fatal("no inferences")
	}
	// Every peer session that announced anything is covered.
	if len(inferences) != len(ds.peers) {
		t.Errorf("inferences = %d, peers = %d", len(inferences), len(ds.peers))
	}
	// The beacon workload exercises the mechanisms strongly, so inference
	// should be near-perfect.
	acc := InferenceAccuracyPeers(ds.peers, inferences)
	if acc < 0.9 {
		t.Errorf("accuracy = %.2f, want >= 0.9", acc)
	}
	// All three classes are represented.
	seen := map[PeerBehavior]int{}
	for _, inf := range inferences {
		seen[inf.Behavior]++
		if inf.Announcements == 0 {
			t.Errorf("session %v: zero announcements", inf.Session)
		}
	}
	if seen[BehaviorPropagates] == 0 || seen[BehaviorCleansEgress] == 0 || seen[BehaviorQuiet] == 0 {
		t.Errorf("class coverage: %v", seen)
	}
}

func TestInferPeerBehaviorOnDayData(t *testing.T) {
	ds := smallDay()
	inferences := inferPeers(ds)
	acc := InferenceAccuracyPeers(ds.peers, inferences)
	// The wild-style day data is noisier than the beacon view; accuracy
	// must still be well above random guessing among three classes.
	if acc < 0.7 {
		t.Errorf("accuracy = %.2f, want >= 0.7", acc)
	}
}

func TestInferPeerBehaviorEvidence(t *testing.T) {
	ds := beaconDay(smallBeaconCfg())
	for _, inf := range inferPeers(ds) {
		switch inf.Behavior {
		case BehaviorPropagates:
			if inf.CommShare <= commShareThreshold {
				t.Errorf("%v: propagates with comm share %.2f", inf.Session, inf.CommShare)
			}
		case BehaviorCleansEgress:
			if inf.CommShare > commShareThreshold || inf.NNShare <= nnShareThreshold {
				t.Errorf("%v: cleans-egress with comm %.2f nn %.2f", inf.Session, inf.CommShare, inf.NNShare)
			}
		case BehaviorQuiet:
			if inf.CommShare > commShareThreshold {
				t.Errorf("%v: quiet with comm share %.2f", inf.Session, inf.CommShare)
			}
		}
	}
}

func TestInferenceAccuracyEmpty(t *testing.T) {
	ds := smallDay()
	if InferenceAccuracyPeers(ds.peers, nil) != 0 {
		t.Error("empty inference accuracy should be 0")
	}
}

func TestInferIngressLocations(t *testing.T) {
	cfg := smallBeaconCfg()
	ds := beaconDay(cfg)
	infs := ingressOf(ds)
	if len(infs) == 0 {
		t.Fatal("no ingress inferences")
	}
	// Only transparent tagged peers leak locations; each leaks several
	// (steady + exploration pools).
	taggedTransparent := map[uint32]bool{}
	for _, p := range ds.peers {
		if p.TaggedUpstream && p.Kind == workload.PeerTransparent {
			taggedTransparent[p.AS] = true
		}
	}
	for _, inf := range infs {
		if !taggedTransparent[inf.PeerAS] {
			t.Errorf("peer AS%d leaks locations but is not transparent+tagged", inf.PeerAS)
		}
		if inf.Locations < 2 {
			t.Errorf("peer AS%d: only %d locations (exploration should reveal more)", inf.PeerAS, inf.Locations)
		}
		if inf.Locations > cfg.SteadyLocations+cfg.WithdrawLocations+cfg.AnnounceExtraLocs {
			t.Errorf("peer AS%d: %d locations exceeds the generator's pool", inf.PeerAS, inf.Locations)
		}
	}
	// Sorted output.
	for i := 1; i < len(infs); i++ {
		if infs[i].PeerAS < infs[i-1].PeerAS {
			t.Fatal("output not sorted")
		}
	}
}

func TestBehaviorString(t *testing.T) {
	if BehaviorPropagates.String() != "propagates" ||
		BehaviorCleansEgress.String() != "cleans-egress" ||
		BehaviorQuiet.String() != "quiet" {
		t.Error("behavior strings")
	}
	if PeerBehavior(9).String() != "behavior(9)" {
		t.Error("unknown behavior string")
	}
}

func TestInferenceSessionsMatchClassifierSessions(t *testing.T) {
	ds := beaconDay(smallBeaconCfg())
	infs := inferPeers(ds)
	sessions := make(map[classify.SessionKey]bool)
	for _, e := range ds.events {
		sessions[e.Session()] = true
	}
	for _, inf := range infs {
		if !sessions[inf.Session] {
			t.Errorf("inferred session %v never appeared in events", inf.Session)
		}
	}
}
