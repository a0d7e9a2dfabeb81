package bgp

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"
)

// AS path segment types (RFC 4271 §4.3).
const (
	SegmentSet      uint8 = 1
	SegmentSequence uint8 = 2
)

// ASPathSegment is one AS_PATH segment: an ordered AS_SEQUENCE or an
// unordered AS_SET. ASNs are held as 32-bit values regardless of the wire
// encoding in use on a session.
type ASPathSegment struct {
	Type uint8
	ASNs []uint32
}

// Clone returns a deep copy of the segment.
func (s ASPathSegment) Clone() ASPathSegment {
	out := ASPathSegment{Type: s.Type}
	out.ASNs = make([]uint32, len(s.ASNs))
	copy(out.ASNs, s.ASNs)
	return out
}

// ASPath is a full AS_PATH attribute value.
type ASPath []ASPathSegment

// NewASPath builds a single-sequence path from the given ASNs, origin last.
func NewASPath(asns ...uint32) ASPath {
	if len(asns) == 0 {
		return nil
	}
	seq := make([]uint32, len(asns))
	copy(seq, asns)
	return ASPath{{Type: SegmentSequence, ASNs: seq}}
}

// Clone returns a deep copy of the path.
func (p ASPath) Clone() ASPath {
	if p == nil {
		return nil
	}
	out := make(ASPath, len(p))
	for i, s := range p {
		out[i] = s.Clone()
	}
	return out
}

// Prepend returns a copy of the path with asn prepended count times to the
// leading sequence segment (creating one if needed).
func (p ASPath) Prepend(asn uint32, count int) ASPath {
	out := p.Clone()
	pre := make([]uint32, count)
	for i := range pre {
		pre[i] = asn
	}
	if len(out) > 0 && out[0].Type == SegmentSequence {
		out[0].ASNs = append(pre, out[0].ASNs...)
		return out
	}
	return append(ASPath{{Type: SegmentSequence, ASNs: pre}}, out...)
}

// Flatten returns all ASNs in path order, including duplicates from
// prepending. AS_SET members are included in their stored order.
func (p ASPath) Flatten() []uint32 {
	var out []uint32
	for _, s := range p {
		out = append(out, s.ASNs...)
	}
	return out
}

// Length returns the path length as used by the decision process: one per
// sequence ASN, plus one per AS_SET segment regardless of set size.
func (p ASPath) Length() int {
	n := 0
	for _, s := range p {
		if s.Type == SegmentSet {
			n++
		} else {
			n += len(s.ASNs)
		}
	}
	return n
}

// Origin returns the final (origin) ASN and true, or 0 and false for an
// empty path or a path ending in an AS_SET.
func (p ASPath) Origin() (uint32, bool) {
	if len(p) == 0 {
		return 0, false
	}
	last := p[len(p)-1]
	if last.Type != SegmentSequence || len(last.ASNs) == 0 {
		return 0, false
	}
	return last.ASNs[len(last.ASNs)-1], true
}

// FirstAS returns the leading (neighbor) ASN and true, or 0 and false.
func (p ASPath) FirstAS() (uint32, bool) {
	if len(p) == 0 {
		return 0, false
	}
	first := p[0]
	if first.Type != SegmentSequence || len(first.ASNs) == 0 {
		return 0, false
	}
	return first.ASNs[0], true
}

// Contains reports whether asn appears anywhere in the path (loop check).
func (p ASPath) Contains(asn uint32) bool {
	for _, s := range p {
		for _, a := range s.ASNs {
			if a == asn {
				return true
			}
		}
	}
	return false
}

// Equal reports exact structural equality, including prepending.
func (p ASPath) Equal(other ASPath) bool {
	if len(p) != len(other) {
		return false
	}
	for i := range p {
		if p[i].Type != other[i].Type || len(p[i].ASNs) != len(other[i].ASNs) {
			return false
		}
		for j := range p[i].ASNs {
			if p[i].ASNs[j] != other[i].ASNs[j] {
				return false
			}
		}
	}
	return true
}

// ASSet returns the set of distinct ASNs on the path. Two paths that differ
// only by prepending have equal AS sets — the paper's criterion for the
// xc/xn announcement types.
func (p ASPath) ASSet() map[uint32]struct{} {
	set := make(map[uint32]struct{})
	for _, s := range p {
		for _, a := range s.ASNs {
			set[a] = struct{}{}
		}
	}
	return set
}

// SameASSet reports whether both paths traverse exactly the same set of
// ASes, ignoring order and prepending.
func (p ASPath) SameASSet(other ASPath) bool {
	a, b := p.ASSet(), other.ASSet()
	if len(a) != len(b) {
		return false
	}
	for asn := range a {
		if _, ok := b[asn]; !ok {
			return false
		}
	}
	return true
}

// String renders the path in the conventional "A B C" form with AS_SETs in
// braces.
func (p ASPath) String() string {
	var sb strings.Builder
	for i, s := range p {
		if i > 0 {
			sb.WriteByte(' ')
		}
		if s.Type == SegmentSet {
			sb.WriteByte('{')
		}
		for j, a := range s.ASNs {
			if j > 0 {
				if s.Type == SegmentSet {
					sb.WriteByte(',')
				} else {
					sb.WriteByte(' ')
				}
			}
			sb.WriteString(strconv.FormatUint(uint64(a), 10))
		}
		if s.Type == SegmentSet {
			sb.WriteByte('}')
		}
	}
	return sb.String()
}

// appendASPath serializes the path value using 2- or 4-octet ASNs.
func appendASPath(dst []byte, p ASPath, fourByte bool) ([]byte, error) {
	for _, s := range p {
		if s.Type != SegmentSet && s.Type != SegmentSequence {
			return nil, fmt.Errorf("bgp: invalid AS path segment type %d", s.Type)
		}
		if len(s.ASNs) > 255 {
			return nil, fmt.Errorf("bgp: AS path segment with %d ASNs exceeds 255", len(s.ASNs))
		}
		dst = append(dst, s.Type, byte(len(s.ASNs)))
		for _, a := range s.ASNs {
			if fourByte {
				dst = binary.BigEndian.AppendUint32(dst, a)
			} else {
				if a > 0xFFFF {
					// RFC 6793: substitute AS_TRANS on 2-octet sessions.
					a = ASTrans
				}
				dst = binary.BigEndian.AppendUint16(dst, uint16(a))
			}
		}
	}
	return dst, nil
}

// decodeASPath parses an AS_PATH attribute value with the given ASN width.
func decodeASPath(b []byte, fourByte bool) (ASPath, error) {
	width := 2
	if fourByte {
		width = 4
	}
	var path ASPath
	for len(b) > 0 {
		if len(b) < 2 {
			return nil, fmt.Errorf("bgp: truncated AS path segment header")
		}
		typ, count := b[0], int(b[1])
		if typ != SegmentSet && typ != SegmentSequence {
			return nil, fmt.Errorf("bgp: invalid AS path segment type %d", typ)
		}
		b = b[2:]
		need := count * width
		if len(b) < need {
			return nil, fmt.Errorf("bgp: truncated AS path segment: need %d bytes, have %d", need, len(b))
		}
		asns := make([]uint32, count)
		for i := 0; i < count; i++ {
			if fourByte {
				asns[i] = binary.BigEndian.Uint32(b[i*4:])
			} else {
				asns[i] = uint32(binary.BigEndian.Uint16(b[i*2:]))
			}
		}
		path = append(path, ASPathSegment{Type: typ, ASNs: asns})
		b = b[need:]
	}
	return path, nil
}

// ASTrans is the reserved 2-octet substitute for a 4-octet ASN (RFC 6793).
const ASTrans uint32 = 23456
