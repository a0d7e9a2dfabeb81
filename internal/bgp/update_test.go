package bgp

import (
	"bytes"
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"
)

func mustPrefix(t testing.TB, s string) netip.Prefix {
	t.Helper()
	p, err := netip.ParsePrefix(s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func mustAddr(t testing.TB, s string) netip.Addr {
	t.Helper()
	a, err := netip.ParseAddr(s)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

var opt4 = MarshalOptions{FourByteAS: true}

func roundTripUpdate(t *testing.T, u *Update) *Update {
	t.Helper()
	wire, err := Marshal(u, opt4)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	m, err := Unmarshal(wire, opt4)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	back, ok := m.(*Update)
	if !ok {
		t.Fatalf("Unmarshal returned %T", m)
	}
	return back
}

func TestUpdateRoundTripBasic(t *testing.T) {
	u := &Update{
		NLRI: []netip.Prefix{mustPrefix(t, "84.205.64.0/24")},
		Attrs: PathAttrs{
			Origin:      OriginIGP,
			ASPath:      NewASPath(20205, 3356, 174, 12654),
			NextHop:     mustAddr(t, "10.0.0.1"),
			Communities: Communities{NewCommunity(3356, 901), NewCommunity(3356, 2)},
		},
	}
	back := roundTripUpdate(t, u)
	if len(back.NLRI) != 1 || back.NLRI[0] != u.NLRI[0] {
		t.Errorf("NLRI: %v", back.NLRI)
	}
	if !back.Attrs.ASPath.Equal(u.Attrs.ASPath) {
		t.Errorf("ASPath: %v", back.Attrs.ASPath)
	}
	if back.Attrs.NextHop != u.Attrs.NextHop {
		t.Errorf("NextHop: %v", back.Attrs.NextHop)
	}
	if !back.Attrs.Communities.Equal(u.Attrs.Communities.Canonical()) {
		t.Errorf("Communities: %v", back.Attrs.Communities)
	}
}

func TestUpdateRoundTripWithdrawOnly(t *testing.T) {
	u := &Update{Withdrawn: []netip.Prefix{mustPrefix(t, "84.205.64.0/24"), mustPrefix(t, "10.0.0.0/8")}}
	back := roundTripUpdate(t, u)
	if len(back.Withdrawn) != 2 {
		t.Fatalf("Withdrawn: %v", back.Withdrawn)
	}
	if !back.IsWithdrawOnly() {
		t.Error("IsWithdrawOnly() = false")
	}
	if back.hasAttrs() {
		t.Error("withdraw-only update should carry no attributes")
	}
}

func TestUpdateRoundTripAllAttrs(t *testing.T) {
	u := &Update{
		NLRI: []netip.Prefix{mustPrefix(t, "192.0.2.0/24")},
		Attrs: PathAttrs{
			Origin:          OriginEGP,
			ASPath:          NewASPath(64512, 4200000001),
			NextHop:         mustAddr(t, "198.51.100.7"),
			MED:             50,
			HasMED:          true,
			LocalPref:       120,
			HasLocalPref:    true,
			AtomicAggregate: true,
			Aggregator:      &Aggregator{ASN: 64512, Addr: mustAddr(t, "203.0.113.1")},
			Communities:     Communities{CommunityNoExport, NewCommunity(64512, 100)},
			LargeCommunities: LargeCommunities{
				{Global: 64512, Local1: 1, Local2: 2},
			},
			Unknown: []RawAttr{{Flags: flagOptional | flagTransitive, Type: 99, Value: []byte{1, 2, 3}}},
		},
	}
	back := roundTripUpdate(t, u)
	a, b := u.Attrs, back.Attrs
	if !a.Equal(b) {
		t.Errorf("attrs not equal after round trip:\n a=%+v\n b=%+v", a, b)
	}
	if b.Origin != OriginEGP || !b.HasMED || b.MED != 50 || !b.HasLocalPref || b.LocalPref != 120 {
		t.Errorf("scalar attrs: %+v", b)
	}
	if !b.AtomicAggregate || b.Aggregator == nil || b.Aggregator.ASN != 64512 {
		t.Errorf("aggregation attrs: %+v", b)
	}
	if len(b.Unknown) != 1 || b.Unknown[0].Type != 99 || !bytes.Equal(b.Unknown[0].Value, []byte{1, 2, 3}) {
		t.Errorf("unknown attrs: %+v", b.Unknown)
	}
	if !b.Unknown[0].Transitive() {
		t.Error("unknown attr should be transitive")
	}
}

func TestUpdateRoundTripIPv6(t *testing.T) {
	u := &Update{
		Attrs: PathAttrs{
			Origin: OriginIGP,
			ASPath: NewASPath(20205, 12654),
			MPReach: &MPReach{
				AFI:     AFIIPv6,
				SAFI:    SAFIUnicast,
				NextHop: mustAddr(t, "2001:db8::1"),
				NLRI:    []netip.Prefix{mustPrefix(t, "2001:7fb:ff00::/48")},
			},
			MPUnreach: &MPUnreach{
				AFI:       AFIIPv6,
				SAFI:      SAFIUnicast,
				Withdrawn: []netip.Prefix{mustPrefix(t, "2001:7fb:fe00::/48")},
			},
		},
	}
	back := roundTripUpdate(t, u)
	if back.Attrs.MPReach == nil || back.Attrs.MPUnreach == nil {
		t.Fatalf("MP attrs lost: %+v", back.Attrs)
	}
	if back.Attrs.MPReach.NextHop != u.Attrs.MPReach.NextHop {
		t.Errorf("MP next hop: %v", back.Attrs.MPReach.NextHop)
	}
	if len(back.Announced()) != 1 || back.Announced()[0] != u.Attrs.MPReach.NLRI[0] {
		t.Errorf("Announced(): %v", back.Announced())
	}
	if len(back.AllWithdrawn()) != 1 || back.AllWithdrawn()[0] != u.Attrs.MPUnreach.Withdrawn[0] {
		t.Errorf("AllWithdrawn(): %v", back.AllWithdrawn())
	}
	if back.Attrs.NextHop.IsValid() {
		t.Error("classic NEXT_HOP should be unset on a v6-only update")
	}
}

func TestUpdateRejectsV6InClassicFields(t *testing.T) {
	u := &Update{NLRI: []netip.Prefix{mustPrefix(t, "2001:db8::/32")}}
	if _, err := Marshal(u, opt4); err == nil {
		t.Error("want error for IPv6 prefix in classic NLRI")
	}
	u = &Update{Withdrawn: []netip.Prefix{mustPrefix(t, "2001:db8::/32")}}
	if _, err := Marshal(u, opt4); err == nil {
		t.Error("want error for IPv6 prefix in classic withdrawn")
	}
}

func TestUpdateDecodeErrors(t *testing.T) {
	cases := []struct {
		name string
		body []byte
	}{
		{"short", []byte{0}},
		{"withdrawn overrun", []byte{0, 10, 0, 0}},
		{"attr overrun", []byte{0, 0, 0, 10, 0}},
		{"bad attr header", []byte{0, 0, 0, 2, 0x40, 1}},
		{"origin bad length", []byte{0, 0, 0, 5, 0x40, 1, 2, 0, 0}},
		{"origin bad value", []byte{0, 0, 0, 4, 0x40, 1, 1, 7}},
		{"duplicate attr", []byte{0, 0, 0, 8, 0x40, 1, 1, 0, 0x40, 1, 1, 0}},
		{"nexthop bad length", []byte{0, 0, 0, 5, 0x40, 3, 2, 1, 2}},
		{"med bad length", []byte{0, 0, 0, 5, 0x80, 4, 2, 1, 2}},
		{"communities not multiple of 4", []byte{0, 0, 0, 6, 0xC0, 8, 3, 1, 2, 3}},
		{"nlri overrun", []byte{0, 0, 0, 0, 32, 1, 2}},
		{"nlri bits too big", []byte{0, 0, 0, 0, 33, 1, 2, 3, 4, 5}},
	}
	for _, tc := range cases {
		if _, err := DecodeUpdate(tc.body, opt4); err == nil {
			t.Errorf("%s: want decode error", tc.name)
		}
	}
}

func TestPrefixRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	f := func(seed int64) bool {
		rng.Seed(seed)
		var addr netip.Addr
		var afi uint16
		if rng.Intn(2) == 0 {
			var b [4]byte
			rng.Read(b[:])
			addr = netip.AddrFrom4(b)
			afi = AFIIPv4
		} else {
			var b [16]byte
			rng.Read(b[:])
			addr = netip.AddrFrom16(b)
			afi = AFIIPv6
		}
		bits := rng.Intn(addr.BitLen() + 1)
		p, err := addr.Prefix(bits)
		if err != nil {
			return false
		}
		wire := AppendPrefix(nil, p)
		back, n, err := DecodePrefix(wire, afi)
		return err == nil && n == len(wire) && back == p
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPathAttrsEqualDetectsEachField(t *testing.T) {
	base := func() PathAttrs {
		return PathAttrs{
			Origin:      OriginIGP,
			ASPath:      NewASPath(1, 2, 3),
			NextHop:     netip.MustParseAddr("10.0.0.1"),
			Communities: Communities{NewCommunity(1, 1)},
		}
	}
	a := base()
	if !a.Equal(base()) {
		t.Fatal("identical attrs unequal")
	}
	mods := map[string]func(*PathAttrs){
		"origin":     func(p *PathAttrs) { p.Origin = OriginIncomplete },
		"path":       func(p *PathAttrs) { p.ASPath = NewASPath(1, 2, 4) },
		"prepend":    func(p *PathAttrs) { p.ASPath = p.ASPath.Prepend(1, 1) },
		"nexthop":    func(p *PathAttrs) { p.NextHop = netip.MustParseAddr("10.0.0.2") },
		"med":        func(p *PathAttrs) { p.HasMED = true; p.MED = 10 },
		"localpref":  func(p *PathAttrs) { p.HasLocalPref = true; p.LocalPref = 100 },
		"atomic":     func(p *PathAttrs) { p.AtomicAggregate = true },
		"aggregator": func(p *PathAttrs) { p.Aggregator = &Aggregator{ASN: 1, Addr: netip.MustParseAddr("1.1.1.1")} },
		"comm":       func(p *PathAttrs) { p.Communities = p.Communities.With(NewCommunity(9, 9)) },
		"commgone":   func(p *PathAttrs) { p.Communities = nil },
		"large":      func(p *PathAttrs) { p.LargeCommunities = LargeCommunities{{1, 2, 3}} },
		"unknown":    func(p *PathAttrs) { p.Unknown = []RawAttr{{Flags: 0xC0, Type: 77, Value: []byte{1}}} },
	}
	for name, mod := range mods {
		b := base()
		mod(&b)
		if a.Equal(b) {
			t.Errorf("%s: modified attrs still compare equal", name)
		}
	}
}

func TestPathAttrsCloneIndependent(t *testing.T) {
	a := PathAttrs{
		ASPath:           NewASPath(1, 2),
		Communities:      Communities{1, 2},
		LargeCommunities: LargeCommunities{{1, 1, 1}},
		Aggregator:       &Aggregator{ASN: 5, Addr: netip.MustParseAddr("1.2.3.4")},
		MPReach:          &MPReach{AFI: AFIIPv6, SAFI: SAFIUnicast, NextHop: netip.MustParseAddr("::1"), NLRI: []netip.Prefix{netip.MustParsePrefix("2001:db8::/32")}},
		Unknown:          []RawAttr{{Flags: 0xC0, Type: 50, Value: []byte{9}}},
	}
	b := a.Clone()
	b.ASPath[0].ASNs[0] = 99
	b.Communities[0] = 99
	b.Aggregator.ASN = 99
	b.MPReach.NLRI[0] = netip.MustParsePrefix("10.0.0.0/8")
	b.Unknown[0].Value[0] = 99
	if a.ASPath[0].ASNs[0] != 1 || a.Communities[0] != 1 || a.Aggregator.ASN != 5 ||
		a.MPReach.NLRI[0] != netip.MustParsePrefix("2001:db8::/32") || a.Unknown[0].Value[0] != 9 {
		t.Error("Clone shares storage with original")
	}
}

func TestUpdateString(t *testing.T) {
	u := &Update{
		NLRI: []netip.Prefix{mustPrefix(t, "84.205.64.0/24")},
		Attrs: PathAttrs{
			ASPath:      NewASPath(20205, 12654),
			NextHop:     mustAddr(t, "10.0.0.1"),
			Communities: Communities{NewCommunity(3356, 901)},
		},
		Withdrawn: []netip.Prefix{mustPrefix(t, "10.1.0.0/16")},
	}
	s := u.String()
	for _, want := range []string{"84.205.64.0/24", "20205 12654", "3356:901", "10.1.0.0/16", "nh=10.0.0.1"} {
		if !bytes.Contains([]byte(s), []byte(want)) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func TestUpdateLargeNLRIBlock(t *testing.T) {
	// Many prefixes in one message, still under 4096 bytes.
	u := &Update{Attrs: PathAttrs{
		Origin:  OriginIGP,
		ASPath:  NewASPath(65000),
		NextHop: mustAddr(t, "10.0.0.1"),
	}}
	for i := 0; i < 500; i++ {
		addr := netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 0})
		p, _ := addr.Prefix(24)
		u.NLRI = append(u.NLRI, p)
	}
	back := roundTripUpdate(t, u)
	if len(back.NLRI) != 500 {
		t.Errorf("NLRI count = %d", len(back.NLRI))
	}
}

func TestMessageSizeLimit(t *testing.T) {
	u := &Update{Attrs: PathAttrs{
		Origin:  OriginIGP,
		ASPath:  NewASPath(65000),
		NextHop: mustAddr(t, "10.0.0.1"),
	}}
	for i := 0; i < 2000; i++ {
		addr := netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 0})
		p, _ := addr.Prefix(24)
		u.NLRI = append(u.NLRI, p)
	}
	if _, err := Marshal(u, opt4); err == nil {
		t.Error("want error for message exceeding 4096 bytes")
	}
}
