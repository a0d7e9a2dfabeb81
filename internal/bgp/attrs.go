package bgp

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"sort"
)

// Origin codes (RFC 4271 §4.3).
type Origin uint8

const (
	OriginIGP        Origin = 0
	OriginEGP        Origin = 1
	OriginIncomplete Origin = 2
)

// String renders the origin as in common looking-glass output.
func (o Origin) String() string {
	switch o {
	case OriginIGP:
		return "IGP"
	case OriginEGP:
		return "EGP"
	case OriginIncomplete:
		return "incomplete"
	}
	return fmt.Sprintf("origin(%d)", uint8(o))
}

// Path attribute type codes.
const (
	AttrOrigin           uint8 = 1
	AttrASPath           uint8 = 2
	AttrNextHop          uint8 = 3
	AttrMED              uint8 = 4
	AttrLocalPref        uint8 = 5
	AttrAtomicAggregate  uint8 = 6
	AttrAggregator       uint8 = 7
	AttrCommunities      uint8 = 8
	AttrMPReachNLRI      uint8 = 14
	AttrMPUnreachNLRI    uint8 = 15
	AttrAS4Path          uint8 = 17
	AttrAS4Aggregator    uint8 = 18
	AttrLargeCommunities uint8 = 32
)

// Attribute flag bits.
const (
	flagOptional   uint8 = 0x80
	flagTransitive uint8 = 0x40
	flagPartial    uint8 = 0x20
	flagExtLen     uint8 = 0x10
)

// Aggregator is the AGGREGATOR attribute value.
type Aggregator struct {
	ASN  uint32
	Addr netip.Addr
}

// MPReach is the MP_REACH_NLRI attribute (RFC 4760) carrying non-IPv4
// announcements together with their next hop.
type MPReach struct {
	AFI     uint16
	SAFI    uint8
	NextHop netip.Addr
	NLRI    []netip.Prefix
}

// MPUnreach is the MP_UNREACH_NLRI attribute carrying non-IPv4 withdrawals.
type MPUnreach struct {
	AFI       uint16
	SAFI      uint8
	Withdrawn []netip.Prefix
}

// RawAttr preserves an attribute this codec does not interpret. Transitive
// unknown attributes must be propagated (RFC 4271 §5); keeping them raw lets
// the router layer do so faithfully. Flags never carries the
// extended-length bit: the encoder derives that from the value's length.
type RawAttr struct {
	Flags uint8
	Type  uint8
	Value []byte
}

// Transitive reports whether the raw attribute carries the transitive bit.
func (r RawAttr) Transitive() bool { return r.Flags&flagTransitive != 0 }

// PathAttrs is the parsed path attribute set of an UPDATE. The zero value
// means "no attributes" (a pure withdrawal).
type PathAttrs struct {
	Origin  Origin
	ASPath  ASPath
	NextHop netip.Addr // IPv4 next hop; zero if unset

	MED    uint32
	HasMED bool

	LocalPref    uint32
	HasLocalPref bool

	AtomicAggregate bool
	Aggregator      *Aggregator

	Communities      Communities
	LargeCommunities LargeCommunities

	MPReach   *MPReach
	MPUnreach *MPUnreach

	// Unknown holds unrecognized attributes, decoded in ascending type
	// order, the order Marshal writes them in.
	Unknown []RawAttr
}

// Clone returns a deep copy of the attribute set.
func (a PathAttrs) Clone() PathAttrs {
	out := a
	out.ASPath = a.ASPath.Clone()
	out.Communities = a.Communities.Clone()
	out.LargeCommunities = a.LargeCommunities.Clone()
	if a.Aggregator != nil {
		agg := *a.Aggregator
		out.Aggregator = &agg
	}
	if a.MPReach != nil {
		mp := *a.MPReach
		mp.NLRI = append([]netip.Prefix(nil), a.MPReach.NLRI...)
		out.MPReach = &mp
	}
	if a.MPUnreach != nil {
		mp := *a.MPUnreach
		mp.Withdrawn = append([]netip.Prefix(nil), a.MPUnreach.Withdrawn...)
		out.MPUnreach = &mp
	}
	if a.Unknown != nil {
		out.Unknown = make([]RawAttr, len(a.Unknown))
		for i, r := range a.Unknown {
			out.Unknown[i] = RawAttr{Flags: r.Flags, Type: r.Type, Value: append([]byte(nil), r.Value...)}
		}
	}
	return out
}

// Equal reports semantic equality of the attribute sets, the comparison a
// Junos-style egress duplicate check performs: origin, path, next hop, MED,
// local-pref, aggregation, communities, and unknown transitive attributes.
func (a PathAttrs) Equal(b PathAttrs) bool {
	if a.Origin != b.Origin ||
		a.NextHop != b.NextHop ||
		a.HasMED != b.HasMED || (a.HasMED && a.MED != b.MED) ||
		a.HasLocalPref != b.HasLocalPref || (a.HasLocalPref && a.LocalPref != b.LocalPref) ||
		a.AtomicAggregate != b.AtomicAggregate {
		return false
	}
	if (a.Aggregator == nil) != (b.Aggregator == nil) {
		return false
	}
	if a.Aggregator != nil && *a.Aggregator != *b.Aggregator {
		return false
	}
	if !a.ASPath.Equal(b.ASPath) {
		return false
	}
	if !a.Communities.Canonical().Equal(b.Communities.Canonical()) {
		return false
	}
	if !a.LargeCommunities.Canonical().Equal(b.LargeCommunities.Canonical()) {
		return false
	}
	if len(a.Unknown) != len(b.Unknown) {
		return false
	}
	for i := range a.Unknown {
		x, y := a.Unknown[i], b.Unknown[i]
		if x.Flags != y.Flags || x.Type != y.Type || len(x.Value) != len(y.Value) {
			return false
		}
		for j := range x.Value {
			if x.Value[j] != y.Value[j] {
				return false
			}
		}
	}
	// MP next hop matters for route identity on IPv6 sessions.
	if (a.MPReach == nil) != (b.MPReach == nil) {
		return false
	}
	if a.MPReach != nil && a.MPReach.NextHop != b.MPReach.NextHop {
		return false
	}
	return true
}

// appendAttr writes one attribute with correct flag and length encoding.
func appendAttr(dst []byte, flags, typ uint8, value []byte) []byte {
	if len(value) > 255 {
		flags |= flagExtLen
	}
	dst = append(dst, flags, typ)
	if flags&flagExtLen != 0 {
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(value)))
	} else {
		dst = append(dst, byte(len(value)))
	}
	return append(dst, value...)
}

// MarshalOptions controls session-dependent wire encodings.
type MarshalOptions struct {
	// FourByteAS selects RFC 6793 4-octet AS_PATH encoding. All modern
	// sessions negotiate this; set false to exercise AS_TRANS handling.
	FourByteAS bool
}

// appendPathAttrs serializes the attribute set in canonical (ascending type
// code) order and returns the result.
func (a *PathAttrs) appendPathAttrs(dst []byte, opt MarshalOptions) ([]byte, error) {
	// Origin, AS_PATH and NEXT_HOP are mandatory only when NLRI is present;
	// the caller decides by only invoking this when attrs exist. We always
	// emit origin+path when a path is set, and when the origin is not the
	// zero value, so a decoded ORIGIN survives a re-encode.
	if a.ASPath != nil || a.NextHop.IsValid() || a.MPReach != nil || a.Origin != OriginIGP {
		dst = appendAttr(dst, flagTransitive, AttrOrigin, []byte{byte(a.Origin)})
		pathVal, err := appendASPath(nil, a.ASPath, opt.FourByteAS)
		if err != nil {
			return nil, err
		}
		dst = appendAttr(dst, flagTransitive, AttrASPath, pathVal)
	}
	if a.NextHop.IsValid() {
		if !a.NextHop.Is4() {
			return nil, fmt.Errorf("bgp: NEXT_HOP %v is not IPv4; use MPReach for IPv6", a.NextHop)
		}
		nh := a.NextHop.As4()
		dst = appendAttr(dst, flagTransitive, AttrNextHop, nh[:])
	}
	if a.HasMED {
		dst = appendAttr(dst, flagOptional, AttrMED, binary.BigEndian.AppendUint32(nil, a.MED))
	}
	if a.HasLocalPref {
		dst = appendAttr(dst, flagTransitive, AttrLocalPref, binary.BigEndian.AppendUint32(nil, a.LocalPref))
	}
	if a.AtomicAggregate {
		dst = appendAttr(dst, flagTransitive, AttrAtomicAggregate, nil)
	}
	if a.Aggregator != nil {
		var val []byte
		if opt.FourByteAS {
			val = binary.BigEndian.AppendUint32(nil, a.Aggregator.ASN)
		} else {
			asn := a.Aggregator.ASN
			if asn > 0xFFFF {
				asn = ASTrans
			}
			val = binary.BigEndian.AppendUint16(nil, uint16(asn))
		}
		addr := a.Aggregator.Addr.As4()
		val = append(val, addr[:]...)
		dst = appendAttr(dst, flagOptional|flagTransitive, AttrAggregator, val)
	}
	if len(a.Communities) > 0 {
		val := make([]byte, 0, 4*len(a.Communities))
		for _, c := range a.Communities.Canonical() {
			val = binary.BigEndian.AppendUint32(val, uint32(c))
		}
		dst = appendAttr(dst, flagOptional|flagTransitive, AttrCommunities, val)
	}
	if a.MPReach != nil {
		val, err := a.MPReach.appendValue(nil)
		if err != nil {
			return nil, err
		}
		dst = appendAttr(dst, flagOptional, AttrMPReachNLRI, val)
	}
	if a.MPUnreach != nil {
		val := binary.BigEndian.AppendUint16(nil, a.MPUnreach.AFI)
		val = append(val, a.MPUnreach.SAFI)
		for _, p := range a.MPUnreach.Withdrawn {
			val = AppendPrefix(val, p)
		}
		dst = appendAttr(dst, flagOptional, AttrMPUnreachNLRI, val)
	}
	if len(a.LargeCommunities) > 0 {
		val := make([]byte, 0, 12*len(a.LargeCommunities))
		for _, lc := range a.LargeCommunities.Canonical() {
			val = binary.BigEndian.AppendUint32(val, lc.Global)
			val = binary.BigEndian.AppendUint32(val, lc.Local1)
			val = binary.BigEndian.AppendUint32(val, lc.Local2)
		}
		dst = appendAttr(dst, flagOptional|flagTransitive, AttrLargeCommunities, val)
	}
	// Unknown attributes serialize last, sorted by type for determinism.
	unk := append([]RawAttr(nil), a.Unknown...)
	sort.SliceStable(unk, func(i, j int) bool { return unk[i].Type < unk[j].Type })
	for _, r := range unk {
		dst = appendAttr(dst, r.Flags&^flagExtLen, r.Type, r.Value)
	}
	return dst, nil
}

func (mp *MPReach) appendValue(dst []byte) ([]byte, error) {
	dst = binary.BigEndian.AppendUint16(dst, mp.AFI)
	dst = append(dst, mp.SAFI)
	if !mp.NextHop.IsValid() {
		return nil, fmt.Errorf("bgp: MP_REACH_NLRI requires a next hop")
	}
	nh := mp.NextHop.AsSlice()
	dst = append(dst, byte(len(nh)))
	dst = append(dst, nh...)
	dst = append(dst, 0) // reserved SNPA count
	for _, p := range mp.NLRI {
		dst = AppendPrefix(dst, p)
	}
	return dst, nil
}

// decodePathAttrs parses the path attribute block of an UPDATE.
func decodePathAttrs(b []byte, opt MarshalOptions) (PathAttrs, error) {
	var a PathAttrs
	seen := make(map[uint8]bool)
	for len(b) > 0 {
		if len(b) < 3 {
			return a, fmt.Errorf("bgp: truncated attribute header")
		}
		flags, typ := b[0], b[1]
		var alen int
		var hdr int
		if flags&flagExtLen != 0 {
			if len(b) < 4 {
				return a, fmt.Errorf("bgp: truncated extended attribute length")
			}
			alen = int(binary.BigEndian.Uint16(b[2:4]))
			hdr = 4
		} else {
			alen = int(b[2])
			hdr = 3
		}
		if len(b) < hdr+alen {
			return a, fmt.Errorf("bgp: attribute %d truncated: need %d bytes, have %d", typ, alen, len(b)-hdr)
		}
		val := b[hdr : hdr+alen]
		b = b[hdr+alen:]
		if seen[typ] {
			return a, fmt.Errorf("bgp: duplicate attribute %d", typ)
		}
		seen[typ] = true

		switch typ {
		case AttrOrigin:
			if alen != 1 {
				return a, fmt.Errorf("bgp: ORIGIN length %d", alen)
			}
			if val[0] > 2 {
				return a, fmt.Errorf("bgp: invalid ORIGIN value %d", val[0])
			}
			a.Origin = Origin(val[0])
		case AttrASPath:
			p, err := decodeASPath(val, opt.FourByteAS)
			if err != nil {
				return a, err
			}
			a.ASPath = p
		case AttrNextHop:
			if alen != 4 {
				return a, fmt.Errorf("bgp: NEXT_HOP length %d", alen)
			}
			a.NextHop = netip.AddrFrom4([4]byte(val))
		case AttrMED:
			if alen != 4 {
				return a, fmt.Errorf("bgp: MED length %d", alen)
			}
			a.MED = binary.BigEndian.Uint32(val)
			a.HasMED = true
		case AttrLocalPref:
			if alen != 4 {
				return a, fmt.Errorf("bgp: LOCAL_PREF length %d", alen)
			}
			a.LocalPref = binary.BigEndian.Uint32(val)
			a.HasLocalPref = true
		case AttrAtomicAggregate:
			if alen != 0 {
				return a, fmt.Errorf("bgp: ATOMIC_AGGREGATE length %d", alen)
			}
			a.AtomicAggregate = true
		case AttrAggregator:
			agg, err := decodeAggregator(val, opt.FourByteAS)
			if err != nil {
				return a, err
			}
			a.Aggregator = agg
		case AttrCommunities:
			if alen%4 != 0 {
				return a, fmt.Errorf("bgp: COMMUNITIES length %d not a multiple of 4", alen)
			}
			cs := make(Communities, alen/4)
			for i := range cs {
				cs[i] = Community(binary.BigEndian.Uint32(val[i*4:]))
			}
			// Sets decode canonical, as Marshal writes them: order and
			// repeats carry no meaning, and an empty attribute is none.
			a.Communities = cs.Canonical()
		case AttrLargeCommunities:
			if alen%12 != 0 {
				return a, fmt.Errorf("bgp: LARGE_COMMUNITIES length %d not a multiple of 12", alen)
			}
			ls := make(LargeCommunities, alen/12)
			for i := range ls {
				ls[i] = LargeCommunity{
					Global: binary.BigEndian.Uint32(val[i*12:]),
					Local1: binary.BigEndian.Uint32(val[i*12+4:]),
					Local2: binary.BigEndian.Uint32(val[i*12+8:]),
				}
			}
			a.LargeCommunities = ls.Canonical()
		case AttrMPReachNLRI:
			mp, err := decodeMPReach(val)
			if err != nil {
				return a, err
			}
			a.MPReach = mp
		case AttrMPUnreachNLRI:
			mp, err := decodeMPUnreach(val)
			if err != nil {
				return a, err
			}
			a.MPUnreach = mp
		default:
			a.Unknown = append(a.Unknown, RawAttr{Flags: flags &^ flagExtLen, Type: typ, Value: append([]byte(nil), val...)})
		}
	}
	// Types are unique (duplicates were refused above), so this is the
	// order appendPathAttrs writes.
	if len(a.Unknown) > 1 {
		sort.Slice(a.Unknown, func(i, j int) bool { return a.Unknown[i].Type < a.Unknown[j].Type })
	}
	return a, nil
}

func decodeAggregator(val []byte, fourByte bool) (*Aggregator, error) {
	want := 6
	if fourByte {
		want = 8
	}
	if len(val) != want {
		return nil, fmt.Errorf("bgp: AGGREGATOR length %d, want %d", len(val), want)
	}
	var agg Aggregator
	if fourByte {
		agg.ASN = binary.BigEndian.Uint32(val)
		agg.Addr = netip.AddrFrom4([4]byte(val[4:8]))
	} else {
		agg.ASN = uint32(binary.BigEndian.Uint16(val))
		agg.Addr = netip.AddrFrom4([4]byte(val[2:6]))
	}
	return &agg, nil
}

func decodeMPReach(val []byte) (*MPReach, error) {
	if len(val) < 5 {
		return nil, fmt.Errorf("bgp: MP_REACH_NLRI too short: %d bytes", len(val))
	}
	mp := &MPReach{
		AFI:  binary.BigEndian.Uint16(val[0:2]),
		SAFI: val[2],
	}
	nhLen := int(val[3])
	if len(val) < 4+nhLen+1 {
		return nil, fmt.Errorf("bgp: MP_REACH_NLRI truncated next hop")
	}
	nh := val[4 : 4+nhLen]
	switch nhLen {
	case 4:
		mp.NextHop = netip.AddrFrom4([4]byte(nh))
	case 16, 32: // link-local pair: take the global address
		mp.NextHop = netip.AddrFrom16([16]byte(nh[:16]))
	default:
		return nil, fmt.Errorf("bgp: MP_REACH_NLRI next hop length %d", nhLen)
	}
	rest := val[4+nhLen:]
	snpa := int(rest[0]) // reserved in RFC 4760; must be skipped
	rest = rest[1:]
	for i := 0; i < snpa; i++ {
		if len(rest) < 1 {
			return nil, fmt.Errorf("bgp: MP_REACH_NLRI truncated SNPA")
		}
		l := int(rest[0])
		if len(rest) < 1+l {
			return nil, fmt.Errorf("bgp: MP_REACH_NLRI truncated SNPA body")
		}
		rest = rest[1+l:]
	}
	nlri, err := DecodePrefixes(rest, mp.AFI)
	if err != nil {
		return nil, err
	}
	mp.NLRI = nlri
	return mp, nil
}

func decodeMPUnreach(val []byte) (*MPUnreach, error) {
	if len(val) < 3 {
		return nil, fmt.Errorf("bgp: MP_UNREACH_NLRI too short: %d bytes", len(val))
	}
	mp := &MPUnreach{
		AFI:  binary.BigEndian.Uint16(val[0:2]),
		SAFI: val[2],
	}
	withdrawn, err := DecodePrefixes(val[3:], mp.AFI)
	if err != nil {
		return nil, err
	}
	mp.Withdrawn = withdrawn
	return mp, nil
}
