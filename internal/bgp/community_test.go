package bgp

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCommunityParts(t *testing.T) {
	c := NewCommunity(3356, 901)
	if c.ASN() != 3356 {
		t.Errorf("ASN() = %d, want 3356", c.ASN())
	}
	if c.Value() != 901 {
		t.Errorf("Value() = %d, want 901", c.Value())
	}
	if c.String() != "3356:901" {
		t.Errorf("String() = %q", c.String())
	}
}

func TestCommunityRoundTripProperty(t *testing.T) {
	f := func(asn, value uint16) bool {
		c := NewCommunity(asn, value)
		return c.ASN() == asn && c.Value() == value
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWellKnownCommunities(t *testing.T) {
	if !CommunityNoExport.WellKnown() {
		t.Error("no-export should be well-known")
	}
	if !CommunityBlackhole.WellKnown() {
		t.Error("blackhole should be well-known")
	}
	if NewCommunity(3356, 901).WellKnown() {
		t.Error("3356:901 should not be well-known")
	}
	if CommunityBlackhole.ASN() != 65535 || CommunityBlackhole.Value() != 666 {
		t.Errorf("blackhole = %d:%d, want 65535:666", CommunityBlackhole.ASN(), CommunityBlackhole.Value())
	}
}

func TestCommunitiesCanonical(t *testing.T) {
	cs := Communities{5, 3, 5, 1, 3}
	got := cs.Canonical()
	want := Communities{1, 3, 5}
	if !got.Equal(want) {
		t.Errorf("Canonical() = %v, want %v", got, want)
	}
	// Original unchanged.
	if cs[0] != 5 {
		t.Error("Canonical mutated its receiver")
	}
	if Communities(nil).Canonical() != nil {
		t.Error("Canonical(nil) should be nil")
	}
}

func TestCommunitiesCanonicalIdempotentProperty(t *testing.T) {
	f := func(vals []uint32) bool {
		cs := make(Communities, len(vals))
		for i, v := range vals {
			cs[i] = Community(v)
		}
		once := cs.Canonical()
		twice := once.Canonical()
		return once.Equal(twice)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCommunitiesCanonicalSortedUnique(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(30)
		cs := make(Communities, n)
		for i := range cs {
			cs[i] = Community(rng.Uint32() % 1000) // force duplicates
		}
		can := cs.Canonical()
		for i := 1; i < len(can); i++ {
			if can[i] <= can[i-1] {
				t.Fatalf("trial %d: canonical not strictly increasing: %v", trial, can)
			}
		}
		for _, c := range cs {
			if !can.Contains(c) {
				t.Fatalf("trial %d: canonical lost member %v", trial, c)
			}
		}
	}
}

func TestCommunitiesEqualNilEmpty(t *testing.T) {
	if !Communities(nil).Equal(Communities{}) {
		t.Error("nil and empty community sets must compare equal")
	}
	if (Communities{1}).Equal(Communities{2}) {
		t.Error("distinct sets compared equal")
	}
	if (Communities{1}).Equal(Communities{1, 2}) {
		t.Error("different-length sets compared equal")
	}
}

func TestCommunitiesWith(t *testing.T) {
	cs := Communities{NewCommunity(100, 1), NewCommunity(200, 2)}
	added := cs.With(NewCommunity(150, 5))
	if len(added) != 3 || !added.Contains(NewCommunity(150, 5)) {
		t.Errorf("With: got %v", added)
	}
	if len(cs) != 2 {
		t.Error("With mutated receiver")
	}
}

func TestCommunitiesKeyDistinguishes(t *testing.T) {
	a := Communities{NewCommunity(3356, 901)}.Canonical()
	b := Communities{NewCommunity(3356, 902)}.Canonical()
	c := Communities{NewCommunity(3356, 901), NewCommunity(3356, 2)}.Canonical()
	if a.Key() == b.Key() {
		t.Error("distinct singleton sets share a key")
	}
	if a.Key() == c.Key() {
		t.Error("subset and superset share a key")
	}
	if a.Key() != (Communities{NewCommunity(3356, 901)}).Canonical().Key() {
		t.Error("equal sets should share a key")
	}
	if Communities(nil).Key() != "" {
		t.Errorf("nil key = %q", Communities(nil).Key())
	}
}

func TestCommunitiesKeyInjectiveProperty(t *testing.T) {
	f := func(a, b []uint32) bool {
		ca := make(Communities, len(a))
		for i, v := range a {
			ca[i] = Community(v)
		}
		cb := make(Communities, len(b))
		for i, v := range b {
			cb[i] = Community(v)
		}
		ka, kb := ca.Canonical().Key(), cb.Canonical().Key()
		eq := ca.Canonical().Equal(cb.Canonical())
		return (ka == kb) == eq
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLargeCommunityString(t *testing.T) {
	lc := LargeCommunity{Global: 64512, Local1: 1, Local2: 2}
	if lc.String() != "64512:1:2" {
		t.Errorf("String() = %q", lc.String())
	}
}

func TestLargeCommunitiesCanonical(t *testing.T) {
	ls := LargeCommunities{
		{2, 0, 0}, {1, 5, 0}, {1, 2, 9}, {1, 2, 3}, {1, 2, 3},
	}
	can := ls.Canonical()
	want := LargeCommunities{{1, 2, 3}, {1, 2, 9}, {1, 5, 0}, {2, 0, 0}}
	if !can.Equal(want) {
		t.Errorf("Canonical() = %v, want %v", can, want)
	}
}

func TestLargeCommunityLessTotalOrder(t *testing.T) {
	f := func(a, b LargeCommunity) bool {
		// Exactly one of <, >, == holds.
		n := 0
		if a.Less(b) {
			n++
		}
		if b.Less(a) {
			n++
		}
		if a == b {
			n++
		}
		return n == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCommunitiesCanonicalAliasingContract(t *testing.T) {
	// Canonical documents that already-canonical input is returned as-is,
	// ALIASING the input — the result must be treated as immutable. Pin
	// the aliasing (so the doc stays honest) and that Clone decouples.
	cs := Communities{1, 3, 5}
	got := cs.Canonical()
	if &got[0] != &cs[0] {
		t.Error("Canonical on canonical input should alias (doc contract changed?)")
	}
	cl := got.Clone()
	if &cl[0] == &cs[0] {
		t.Error("Clone did not copy")
	}
	cl[0] = 99
	if cs[0] != 1 {
		t.Error("mutating the Clone reached the original")
	}
	// Non-canonical input yields a fresh slice: safe to mutate.
	messy := Communities{5, 3, 5, 1}
	fresh := messy.Canonical()
	fresh[0] = 77
	if messy[0] != 5 || messy[3] != 1 {
		t.Errorf("Canonical of messy input aliased it: %v", messy)
	}
}

func TestLargeCommunitiesCanonicalAliasingContract(t *testing.T) {
	ls := LargeCommunities{{1, 1, 1}, {2, 2, 2}}
	got := ls.Canonical()
	if &got[0] != &ls[0] {
		t.Error("Canonical on canonical input should alias, matching Communities")
	}
	messy := LargeCommunities{{2, 2, 2}, {1, 1, 1}, {2, 2, 2}}
	fresh := messy.Canonical()
	if len(fresh) != 2 || !fresh[0].Less(fresh[1]) {
		t.Errorf("Canonical(%v) = %v, want sorted unique", messy, fresh)
	}
	fresh[0] = LargeCommunity{9, 9, 9}
	if messy[1] != (LargeCommunity{1, 1, 1}) {
		t.Errorf("Canonical of messy input aliased it: %v", messy)
	}
}
