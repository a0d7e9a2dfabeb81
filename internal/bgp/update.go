package bgp

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"strings"
)

// Update is the parsed UPDATE message. IPv4 reachability uses the classic
// Withdrawn/NLRI fields; other families ride in Attrs.MPReach/MPUnreach.
type Update struct {
	Withdrawn []netip.Prefix // IPv4 withdrawals
	Attrs     PathAttrs
	NLRI      []netip.Prefix // IPv4 announcements
}

// Type implements Message.
func (*Update) Type() uint8 { return TypeUpdate }

func (u *Update) appendBody(dst []byte, opt MarshalOptions) ([]byte, error) {
	for _, p := range u.Withdrawn {
		if !p.Addr().Is4() {
			return nil, fmt.Errorf("bgp: IPv6 prefix %v in classic withdrawn field", p)
		}
	}
	for _, p := range u.NLRI {
		if !p.Addr().Is4() {
			return nil, fmt.Errorf("bgp: IPv6 prefix %v in classic NLRI field", p)
		}
	}

	var wd []byte
	for _, p := range u.Withdrawn {
		wd = AppendPrefix(wd, p)
	}
	if len(wd) > 0xFFFF {
		return nil, fmt.Errorf("bgp: withdrawn routes block too long: %d bytes", len(wd))
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(wd)))
	dst = append(dst, wd...)

	var attrs []byte
	if u.hasAttrs() {
		var err error
		attrs, err = u.Attrs.appendPathAttrs(nil, opt)
		if err != nil {
			return nil, err
		}
	}
	if len(attrs) > 0xFFFF {
		return nil, fmt.Errorf("bgp: path attribute block too long: %d bytes", len(attrs))
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(attrs)))
	dst = append(dst, attrs...)

	for _, p := range u.NLRI {
		dst = AppendPrefix(dst, p)
	}
	return dst, nil
}

func (u *Update) hasAttrs() bool {
	a := &u.Attrs
	return len(u.NLRI) > 0 || a.MPReach != nil || a.MPUnreach != nil ||
		a.ASPath != nil || a.NextHop.IsValid() || a.Origin != OriginIGP || a.HasMED || a.HasLocalPref ||
		len(a.Communities) > 0 || len(a.LargeCommunities) > 0 ||
		a.AtomicAggregate || a.Aggregator != nil || len(a.Unknown) > 0
}

// DecodeUpdate parses an UPDATE body (without the 19-byte header).
func DecodeUpdate(b []byte, opt MarshalOptions) (*Update, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("bgp: UPDATE body shorter than 4 bytes")
	}
	wdLen := int(binary.BigEndian.Uint16(b[0:2]))
	if len(b) < 2+wdLen+2 {
		return nil, fmt.Errorf("bgp: UPDATE truncated in withdrawn routes")
	}
	u := &Update{}
	var err error
	if wdLen > 0 {
		u.Withdrawn, err = DecodePrefixes(b[2:2+wdLen], AFIIPv4)
		if err != nil {
			return nil, err
		}
	}
	rest := b[2+wdLen:]
	attrLen := int(binary.BigEndian.Uint16(rest[0:2]))
	if len(rest) < 2+attrLen {
		return nil, fmt.Errorf("bgp: UPDATE truncated in path attributes")
	}
	if attrLen > 0 {
		u.Attrs, err = decodePathAttrs(rest[2:2+attrLen], opt)
		if err != nil {
			return nil, err
		}
	}
	nlri := rest[2+attrLen:]
	if len(nlri) > 0 {
		u.NLRI, err = DecodePrefixes(nlri, AFIIPv4)
		if err != nil {
			return nil, err
		}
	}
	return u, nil
}

// Announced returns every announced prefix across address families.
func (u *Update) Announced() []netip.Prefix {
	out := append([]netip.Prefix(nil), u.NLRI...)
	if u.Attrs.MPReach != nil {
		out = append(out, u.Attrs.MPReach.NLRI...)
	}
	return out
}

// AllWithdrawn returns every withdrawn prefix across address families.
func (u *Update) AllWithdrawn() []netip.Prefix {
	out := append([]netip.Prefix(nil), u.Withdrawn...)
	if u.Attrs.MPUnreach != nil {
		out = append(out, u.Attrs.MPUnreach.Withdrawn...)
	}
	return out
}

// IsWithdrawOnly reports whether the update only withdraws routes.
func (u *Update) IsWithdrawOnly() bool {
	return len(u.Announced()) == 0 && len(u.AllWithdrawn()) > 0
}

// String renders a compact human-readable summary, useful in experiment
// transcripts.
func (u *Update) String() string {
	var sb strings.Builder
	sb.WriteString("UPDATE")
	if wd := u.AllWithdrawn(); len(wd) > 0 {
		sb.WriteString(" withdraw=[")
		for i, p := range wd {
			if i > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteString(p.String())
		}
		sb.WriteByte(']')
	}
	if ann := u.Announced(); len(ann) > 0 {
		sb.WriteString(" announce=[")
		for i, p := range ann {
			if i > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteString(p.String())
		}
		sb.WriteString("] path=[")
		sb.WriteString(u.Attrs.ASPath.String())
		sb.WriteByte(']')
		if len(u.Attrs.Communities) > 0 {
			sb.WriteString(" comm=[")
			sb.WriteString(u.Attrs.Communities.Canonical().String())
			sb.WriteByte(']')
		}
		if u.Attrs.NextHop.IsValid() {
			sb.WriteString(" nh=")
			sb.WriteString(u.Attrs.NextHop.String())
		}
	}
	return sb.String()
}
