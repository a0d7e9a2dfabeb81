package bgp

import (
	"net/netip"
	"testing"
)

func TestReconcileAS4PathBasic(t *testing.T) {
	// A 4-octet origin traversed two 2-octet ASes: AS_PATH carries
	// AS_TRANS, AS4_PATH the truth for the tail.
	asPath := NewASPath(65001, 65002, ASTrans)
	as4Path := NewASPath(4200000001)
	got, err := ReconcileAS4Path(asPath, as4Path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != "65001 65002 4200000001" {
		t.Errorf("reconciled = %q", got.String())
	}
}

func TestReconcileAS4PathFullOverlap(t *testing.T) {
	asPath := NewASPath(ASTrans, ASTrans)
	as4Path := NewASPath(4200000001, 4200000002)
	got, err := ReconcileAS4Path(asPath, as4Path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != "4200000001 4200000002" {
		t.Errorf("reconciled = %q", got.String())
	}
}

func TestReconcileAS4PathEmpty(t *testing.T) {
	asPath := NewASPath(1, 2)
	got, err := ReconcileAS4Path(asPath, nil)
	if err != nil || !got.Equal(asPath) {
		t.Errorf("nil AS4_PATH should return AS_PATH: %v, %v", got, err)
	}
}

func TestReconcileAS4PathTooLong(t *testing.T) {
	asPath := NewASPath(65001)
	as4Path := NewASPath(4200000001, 4200000002)
	got, err := ReconcileAS4Path(asPath, as4Path)
	if err == nil {
		t.Error("overlong AS4_PATH must be reported")
	}
	if !got.Equal(asPath) {
		t.Errorf("overlong AS4_PATH must be ignored: %v", got)
	}
}

func TestReconcileAS4PathWithSets(t *testing.T) {
	// AS_SET counts as one element on both sides.
	asPath := ASPath{
		{Type: SegmentSequence, ASNs: []uint32{65001, 65002}},
		{Type: SegmentSet, ASNs: []uint32{ASTrans, 65003}},
	}
	as4Path := ASPath{{Type: SegmentSet, ASNs: []uint32{4200000001, 65003}}}
	got, err := ReconcileAS4Path(asPath, as4Path)
	if err != nil {
		t.Fatal(err)
	}
	want := ASPath{
		{Type: SegmentSequence, ASNs: []uint32{65001, 65002}},
		{Type: SegmentSet, ASNs: []uint32{4200000001, 65003}},
	}
	if !got.Equal(want) {
		t.Errorf("reconciled = %v, want %v", got, want)
	}
}

func TestReconcileAS4PathPartialSegment(t *testing.T) {
	// Keep cuts inside a sequence segment.
	asPath := NewASPath(65001, 65002, ASTrans, ASTrans)
	as4Path := NewASPath(4200000001, 4200000002)
	got, err := ReconcileAS4Path(asPath, as4Path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != "65001 65002 4200000001 4200000002" {
		t.Errorf("reconciled = %q", got.String())
	}
}

func TestEffectivePathEndToEnd(t *testing.T) {
	// Simulate a 2-octet session: marshal with AS_TRANS substitution and an
	// explicit AS4_PATH, decode, and reconstruct.
	truth := NewASPath(65001, 4200000001)
	attrs := PathAttrs{
		Origin:  OriginIGP,
		ASPath:  truth,
		NextHop: mustAddr(t, "10.0.0.1"),
	}
	// Attach AS4_PATH as a 2-octet-only speaker forwards it: an opaque
	// optional transitive attribute.
	as4, err := appendASPath(nil, truth, true)
	if err != nil {
		t.Fatal(err)
	}
	attrs.Unknown = append(attrs.Unknown, RawAttr{
		Flags: flagOptional | flagTransitive, Type: AttrAS4Path, Value: as4,
	})
	u := &Update{NLRI: []netip.Prefix{mustPrefix(t, "192.0.2.0/24")}, Attrs: attrs}
	wire, err := Marshal(u, MarshalOptions{FourByteAS: false})
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unmarshal(wire, MarshalOptions{FourByteAS: false})
	if err != nil {
		t.Fatal(err)
	}
	upd := back.(*Update)
	// On the wire the path shows AS_TRANS.
	if upd.Attrs.ASPath.String() != "65001 23456" {
		t.Fatalf("wire path = %q", upd.Attrs.ASPath.String())
	}
	eff, err := upd.Attrs.EffectivePath()
	if err != nil {
		t.Fatal(err)
	}
	if !eff.Equal(truth) {
		t.Errorf("effective path = %v, want %v", eff, truth)
	}
}

func TestEffectivePathWithoutAS4(t *testing.T) {
	attrs := PathAttrs{ASPath: NewASPath(1, 2)}
	eff, err := attrs.EffectivePath()
	if err != nil || !eff.Equal(attrs.ASPath) {
		t.Errorf("plain path: %v, %v", eff, err)
	}
}

func TestEffectivePathMalformedAS4(t *testing.T) {
	attrs := PathAttrs{
		ASPath:  NewASPath(1, 2),
		Unknown: []RawAttr{{Flags: 0xC0, Type: AttrAS4Path, Value: []byte{9, 9}}},
	}
	eff, err := attrs.EffectivePath()
	if err == nil {
		t.Error("malformed AS4_PATH must error")
	}
	if !eff.Equal(attrs.ASPath) {
		t.Error("malformed AS4_PATH must fall back to AS_PATH")
	}
}
