package bgp

import (
	"net/netip"
	"reflect"
	"testing"
)

// bgpcollect sessions decode every message a peer sends with Unmarshal,
// straight off the TCP stream, so the decoder faces arbitrary bytes.
// FuzzUnmarshal pins two things. Unmarshal never panics. A message it
// accepts and Marshal can re-encode decodes again to an equal value, so
// nothing a decode lets through is lost or altered on the way back out.
func FuzzUnmarshal(f *testing.F) {
	for _, m := range fuzzSeedMessages() {
		for _, fourByte := range []bool{true, false} {
			b, err := Marshal(m, MarshalOptions{FourByteAS: fourByte})
			if err != nil {
				continue // a 4-byte ASN has no 2-byte OPEN encoding
			}
			f.Add(b, fourByte)
		}
	}
	f.Fuzz(func(t *testing.T, b []byte, fourByte bool) {
		opt := MarshalOptions{FourByteAS: fourByte}
		m, err := Unmarshal(b, opt)
		if err != nil {
			return
		}
		re, err := Marshal(m, opt)
		if err != nil {
			return
		}
		again, err := Unmarshal(re, opt)
		if err != nil {
			t.Fatalf("re-marshalled %T does not decode: %v\n in %x\nout %x", m, err, b, re)
		}
		if !reflect.DeepEqual(again, m) {
			t.Fatalf("message changed across a re-marshal:\n got %#v\nwant %#v", again, m)
		}
	})
}

// fuzzSeedMessages are the messages of the round-trip tests.
func fuzzSeedMessages() []Message {
	pfx, addr := netip.MustParsePrefix, netip.MustParseAddr
	all := &Update{
		NLRI: []netip.Prefix{pfx("192.0.2.0/24")},
		Attrs: PathAttrs{
			Origin:           OriginEGP,
			ASPath:           NewASPath(64512, 4200000001),
			NextHop:          addr("198.51.100.7"),
			MED:              50,
			HasMED:           true,
			LocalPref:        120,
			HasLocalPref:     true,
			AtomicAggregate:  true,
			Aggregator:       &Aggregator{ASN: 64512, Addr: addr("203.0.113.1")},
			Communities:      Communities{CommunityNoExport, NewCommunity(64512, 100)},
			LargeCommunities: LargeCommunities{{Global: 64512, Local1: 1, Local2: 2}},
			Unknown: []RawAttr{
				{Flags: flagOptional | flagTransitive, Type: 99, Value: []byte{1, 2, 3}},
				// RFC 4360 extended communities RT:64512:7 and SoO:3356:42,
				// carried opaque like any attribute outside the paper's types.
				{Flags: flagOptional | flagTransitive, Type: 16, Value: []byte{
					0x00, 0x02, 0xfc, 0x00, 0x00, 0x00, 0x00, 0x07,
					0x00, 0x03, 0x0d, 0x1c, 0x00, 0x00, 0x00, 0x2a,
				}},
			},
		},
	}
	return []Message{
		&Keepalive{},
		&Notification{Code: NotifCease, Subcode: 2, Data: []byte{0xAA}},
		NewOpen(4200000001, addr("10.255.0.1"), 90),
		NewOpen(65001, addr("192.0.2.1"), 180),
		&Update{
			NLRI: []netip.Prefix{pfx("84.205.64.0/24")},
			Attrs: PathAttrs{
				Origin:      OriginIGP,
				ASPath:      NewASPath(20205, 3356, 174, 12654),
				NextHop:     addr("10.0.0.1"),
				Communities: Communities{NewCommunity(3356, 901), NewCommunity(3356, 2)},
			},
		},
		&Update{Withdrawn: []netip.Prefix{pfx("84.205.64.0/24"), pfx("10.0.0.0/8")}},
		all,
		&Update{
			Attrs: PathAttrs{
				Origin: OriginIGP,
				ASPath: NewASPath(20205, 12654),
				MPReach: &MPReach{
					AFI: AFIIPv6, SAFI: SAFIUnicast,
					NextHop: addr("2001:db8::1"),
					NLRI:    []netip.Prefix{pfx("2001:7fb:ff00::/48")},
				},
				MPUnreach: &MPUnreach{
					AFI: AFIIPv6, SAFI: SAFIUnicast,
					Withdrawn: []netip.Prefix{pfx("2001:7fb:fe00::/48")},
				},
			},
		},
	}
}
