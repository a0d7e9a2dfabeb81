package bgp

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewASPath(t *testing.T) {
	p := NewASPath(20205, 3356, 174, 12654)
	if len(p) != 1 || p[0].Type != SegmentSequence {
		t.Fatalf("unexpected structure: %+v", p)
	}
	if p.String() != "20205 3356 174 12654" {
		t.Errorf("String() = %q", p.String())
	}
	if o, ok := p.Origin(); !ok || o != 12654 {
		t.Errorf("Origin() = %d, %v", o, ok)
	}
	if f, ok := p.FirstAS(); !ok || f != 20205 {
		t.Errorf("FirstAS() = %d, %v", f, ok)
	}
	if p.Length() != 4 {
		t.Errorf("Length() = %d", p.Length())
	}
}

func TestASPathEmpty(t *testing.T) {
	var p ASPath
	if _, ok := p.Origin(); ok {
		t.Error("empty path should have no origin")
	}
	if _, ok := p.FirstAS(); ok {
		t.Error("empty path should have no first AS")
	}
	if p.Length() != 0 {
		t.Error("empty path length != 0")
	}
	if NewASPath() != nil {
		t.Error("NewASPath() should be nil")
	}
}

func TestASPathPrepend(t *testing.T) {
	p := NewASPath(3356, 12654)
	q := p.Prepend(20205, 1)
	if q.String() != "20205 3356 12654" {
		t.Errorf("Prepend once: %q", q.String())
	}
	r := p.Prepend(3356, 3)
	if r.String() != "3356 3356 3356 3356 12654" {
		t.Errorf("Prepend thrice: %q", r.String())
	}
	if p.String() != "3356 12654" {
		t.Error("Prepend mutated receiver")
	}
	// Prepend onto empty path.
	var empty ASPath
	s := empty.Prepend(65000, 2)
	if s.String() != "65000 65000" {
		t.Errorf("Prepend onto empty: %q", s.String())
	}
	// Prepend onto a path starting with a set creates a new segment.
	withSet := ASPath{{Type: SegmentSet, ASNs: []uint32{1, 2}}}
	u := withSet.Prepend(9, 1)
	if len(u) != 2 || u[0].Type != SegmentSequence || u[1].Type != SegmentSet {
		t.Errorf("Prepend onto set: %+v", u)
	}
}

func TestASPathLengthWithSet(t *testing.T) {
	p := ASPath{
		{Type: SegmentSequence, ASNs: []uint32{1, 2}},
		{Type: SegmentSet, ASNs: []uint32{3, 4, 5}},
	}
	// RFC 4271: an AS_SET counts as 1.
	if p.Length() != 3 {
		t.Errorf("Length() = %d, want 3", p.Length())
	}
	if _, ok := p.Origin(); ok {
		t.Error("path ending in AS_SET has no well-defined origin")
	}
}

func TestASPathSameASSet(t *testing.T) {
	base := NewASPath(20205, 3356, 174, 12654)
	prepended := NewASPath(20205, 3356, 3356, 3356, 174, 12654)
	different := NewASPath(20205, 6939, 50304, 12654)
	if !base.SameASSet(prepended) {
		t.Error("prepending should preserve the AS set")
	}
	if base.SameASSet(different) {
		t.Error("different routes should have different AS sets")
	}
	if base.Equal(prepended) {
		t.Error("prepended path must not be Equal")
	}
	if !base.Equal(base.Clone()) {
		t.Error("clone must be Equal")
	}
}

func TestASPathContains(t *testing.T) {
	p := NewASPath(1, 2, 3)
	if !p.Contains(2) || p.Contains(9) {
		t.Error("Contains misbehaves")
	}
}

func TestASPathWireRoundTrip(t *testing.T) {
	paths := []ASPath{
		nil,
		NewASPath(65000),
		NewASPath(20205, 3356, 174, 12654),
		{{Type: SegmentSequence, ASNs: []uint32{1}}, {Type: SegmentSet, ASNs: []uint32{2, 3}}},
		NewASPath(4200000001, 65551), // requires 4-byte encoding
	}
	for _, p := range paths {
		wire, err := appendASPath(nil, p, true)
		if err != nil {
			t.Fatalf("appendASPath(%v): %v", p, err)
		}
		back, err := decodeASPath(wire, true)
		if err != nil {
			t.Fatalf("decodeASPath(%v): %v", p, err)
		}
		if !p.Equal(back) {
			t.Errorf("round trip: %v -> %v", p, back)
		}
	}
}

func TestASPathTwoByteASTrans(t *testing.T) {
	p := NewASPath(4200000001, 65000)
	wire, err := appendASPath(nil, p, false)
	if err != nil {
		t.Fatal(err)
	}
	back, err := decodeASPath(wire, false)
	if err != nil {
		t.Fatal(err)
	}
	want := NewASPath(ASTrans, 65000)
	if !back.Equal(want) {
		t.Errorf("2-byte encoding of 4-byte ASN: got %v, want %v", back, want)
	}
}

func TestASPathDecodeErrors(t *testing.T) {
	cases := [][]byte{
		{1},                // truncated header
		{9, 1, 0, 0, 0, 1}, // invalid segment type
		{2, 3, 0, 0, 0, 1}, // count says 3 ASNs, only 1 present
		{2, 1, 0, 0},       // truncated ASN
	}
	for i, b := range cases {
		if _, err := decodeASPath(b, true); err == nil {
			t.Errorf("case %d: want decode error", i)
		}
	}
}

func TestASPathRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		rng.Seed(seed)
		nseg := 1 + rng.Intn(3)
		var p ASPath
		for i := 0; i < nseg; i++ {
			typ := SegmentSequence
			if rng.Intn(4) == 0 {
				typ = SegmentSet
			}
			n := 1 + rng.Intn(6)
			asns := make([]uint32, n)
			for j := range asns {
				asns[j] = rng.Uint32()
			}
			p = append(p, ASPathSegment{Type: typ, ASNs: asns})
		}
		wire, err := appendASPath(nil, p, true)
		if err != nil {
			return false
		}
		back, err := decodeASPath(wire, true)
		if err != nil {
			return false
		}
		return p.Equal(back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestASPathFlatten(t *testing.T) {
	p := ASPath{
		{Type: SegmentSequence, ASNs: []uint32{1, 1, 2}},
		{Type: SegmentSet, ASNs: []uint32{3, 4}},
	}
	flat := p.Flatten()
	want := []uint32{1, 1, 2, 3, 4}
	if len(flat) != len(want) {
		t.Fatalf("Flatten() = %v", flat)
	}
	for i := range want {
		if flat[i] != want[i] {
			t.Fatalf("Flatten() = %v, want %v", flat, want)
		}
	}
}
