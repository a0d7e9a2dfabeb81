package bgp

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Community is an RFC 1997 standard community: a 32-bit value conventionally
// written as "ASN:value" where ASN is the high 16 bits.
type Community uint32

// Well-known communities (RFC 1997, RFC 7999).
const (
	CommunityNoExport          Community = 0xFFFFFF01
	CommunityNoAdvertise       Community = 0xFFFFFF02
	CommunityNoExportSubconfed Community = 0xFFFFFF03
	CommunityBlackhole         Community = 0xFFFF029A // RFC 7999: 65535:666
)

// NewCommunity builds a community from the conventional ASN:value pair.
func NewCommunity(asn, value uint16) Community {
	return Community(uint32(asn)<<16 | uint32(value))
}

// ASN returns the high 16 bits, conventionally the tagging AS.
func (c Community) ASN() uint16 { return uint16(c >> 16) }

// Value returns the low 16 bits.
func (c Community) Value() uint16 { return uint16(c) }

// WellKnown reports whether the community falls in the reserved 0xFFFF0000 -
// 0xFFFFFFFF range.
func (c Community) WellKnown() bool { return c >= 0xFFFF0000 }

// String renders the community in canonical ASN:value form, with names for
// the well-known values.
func (c Community) String() string {
	switch c {
	case CommunityNoExport:
		return "no-export"
	case CommunityNoAdvertise:
		return "no-advertise"
	case CommunityNoExportSubconfed:
		return "no-export-subconfed"
	case CommunityBlackhole:
		return "blackhole"
	}
	return strconv.Itoa(int(c.ASN())) + ":" + strconv.Itoa(int(c.Value()))
}

// Communities is a set of standard communities. The canonical form is sorted
// ascending with duplicates removed; most operations assume canonical input.
type Communities []Community

// Canonical returns cs in sorted, de-duplicated form. Already-canonical
// input (the common case on the classification hot path: generators and
// the pipeline canonicalize once at the edge) is returned as-is without
// copying; otherwise a canonical copy is built.
//
// Contract: the result MAY ALIAS the input slice, so callers must treat
// it as immutable — appending to it, sorting it, or writing elements can
// corrupt attribute state shared with whoever owns the input (RIB
// routes, Adj-RIB-Out records, classifier state). Call Clone() on the
// result wherever it escapes into state that is later mutated.
func (cs Communities) Canonical() Communities {
	if len(cs) == 0 {
		return nil
	}
	canonical := true
	for i := 1; i < len(cs); i++ {
		if cs[i] <= cs[i-1] {
			canonical = false
			break
		}
	}
	if canonical {
		return cs
	}
	out := make(Communities, len(cs))
	copy(out, cs)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	w := 1
	for i := 1; i < len(out); i++ {
		if out[i] != out[i-1] {
			out[w] = out[i]
			w++
		}
	}
	return out[:w]
}

// Equal reports whether two canonical community sets are identical. A nil set
// and an empty set compare equal: both mean "no communities".
func (cs Communities) Equal(other Communities) bool {
	if len(cs) != len(other) {
		return false
	}
	for i := range cs {
		if cs[i] != other[i] {
			return false
		}
	}
	return true
}

// Contains reports whether c is present in the (canonical or not) set.
func (cs Communities) Contains(c Community) bool {
	for _, x := range cs {
		if x == c {
			return true
		}
	}
	return false
}

// Clone returns a copy of cs.
func (cs Communities) Clone() Communities {
	if cs == nil {
		return nil
	}
	out := make(Communities, len(cs))
	copy(out, cs)
	return out
}

// With returns a canonical copy of cs with c added.
func (cs Communities) With(c Community) Communities {
	return append(cs.Clone(), c).Canonical()
}

// String renders the set space-separated in canonical order.
func (cs Communities) String() string {
	parts := make([]string, len(cs))
	for i, c := range cs {
		parts[i] = c.String()
	}
	return strings.Join(parts, " ")
}

// Key returns a compact, comparable string key identifying the exact
// community attribute value. Used to count unique community attributes
// (paper §6, "revealed information").
func (cs Communities) Key() string {
	var sb strings.Builder
	sb.Grow(len(cs) * 9)
	for i, c := range cs {
		if i > 0 {
			sb.WriteByte(' ')
		}
		var buf [8]byte
		hex := "0123456789abcdef"
		v := uint32(c)
		for j := 7; j >= 0; j-- {
			buf[j] = hex[v&0xf]
			v >>= 4
		}
		sb.Write(buf[:])
	}
	return sb.String()
}

// LargeCommunity is an RFC 8092 large community: three 32-bit fields
// written "global:local1:local2".
type LargeCommunity struct {
	Global uint32
	Local1 uint32
	Local2 uint32
}

// String renders the large community in canonical colon form.
func (lc LargeCommunity) String() string {
	return fmt.Sprintf("%d:%d:%d", lc.Global, lc.Local1, lc.Local2)
}

// Less orders large communities lexicographically by field.
func (lc LargeCommunity) Less(other LargeCommunity) bool {
	if lc.Global != other.Global {
		return lc.Global < other.Global
	}
	if lc.Local1 != other.Local1 {
		return lc.Local1 < other.Local1
	}
	return lc.Local2 < other.Local2
}

// LargeCommunities is a set of large communities; canonical form is sorted
// with duplicates removed.
type LargeCommunities []LargeCommunity

// Canonical returns ls in sorted, de-duplicated form, under the same
// contract as Communities.Canonical: already-canonical input is returned
// as-is (the result may alias the input), so callers must treat the
// result as immutable and Clone() it wherever it escapes into mutable
// state.
func (ls LargeCommunities) Canonical() LargeCommunities {
	if len(ls) == 0 {
		return nil
	}
	canonical := true
	for i := 1; i < len(ls); i++ {
		if !ls[i-1].Less(ls[i]) {
			canonical = false
			break
		}
	}
	if canonical {
		return ls
	}
	out := make(LargeCommunities, len(ls))
	copy(out, ls)
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	w := 1
	for i := 1; i < len(out); i++ {
		if out[i] != out[i-1] {
			out[w] = out[i]
			w++
		}
	}
	return out[:w]
}

// Equal reports whether two canonical sets are identical.
func (ls LargeCommunities) Equal(other LargeCommunities) bool {
	if len(ls) != len(other) {
		return false
	}
	for i := range ls {
		if ls[i] != other[i] {
			return false
		}
	}
	return true
}

// Clone returns a copy of ls.
func (ls LargeCommunities) Clone() LargeCommunities {
	if ls == nil {
		return nil
	}
	out := make(LargeCommunities, len(ls))
	copy(out, ls)
	return out
}
