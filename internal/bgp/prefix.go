package bgp

import (
	"fmt"
	"net/netip"
)

// AFI and SAFI constants used by multiprotocol NLRI (RFC 4760).
const (
	AFIIPv4 uint16 = 1
	AFIIPv6 uint16 = 2

	SAFIUnicast uint8 = 1
)

// prefixWireLen returns the number of NLRI bytes needed for a prefix of the
// given bit length.
func prefixWireLen(bits int) int { return (bits + 7) / 8 }

// AppendPrefix appends the RFC 4271 NLRI encoding of p (length octet followed
// by the minimal number of prefix octets) to dst and returns the result.
func AppendPrefix(dst []byte, p netip.Prefix) []byte {
	p = p.Masked()
	n := prefixWireLen(p.Bits())
	dst = append(dst, byte(p.Bits()))
	addr := p.Addr().AsSlice()
	return append(dst, addr[:n]...)
}

// DecodePrefix decodes a single NLRI-encoded prefix from b for the given
// address family. It returns the prefix and the number of bytes consumed.
func DecodePrefix(b []byte, afi uint16) (netip.Prefix, int, error) {
	if len(b) < 1 {
		return netip.Prefix{}, 0, fmt.Errorf("bgp: truncated NLRI: missing length octet")
	}
	bits := int(b[0])
	var max int
	switch afi {
	case AFIIPv4:
		max = 32
	case AFIIPv6:
		max = 128
	default:
		return netip.Prefix{}, 0, fmt.Errorf("bgp: unsupported AFI %d", afi)
	}
	if bits > max {
		return netip.Prefix{}, 0, fmt.Errorf("bgp: prefix length %d exceeds maximum %d for AFI %d", bits, max, afi)
	}
	n := prefixWireLen(bits)
	if len(b) < 1+n {
		return netip.Prefix{}, 0, fmt.Errorf("bgp: truncated NLRI: need %d prefix octets, have %d", n, len(b)-1)
	}
	var buf [16]byte
	copy(buf[:], b[1:1+n])
	var addr netip.Addr
	if afi == AFIIPv4 {
		addr = netip.AddrFrom4([4]byte(buf[:4]))
	} else {
		addr = netip.AddrFrom16(buf)
	}
	p, err := addr.Prefix(bits)
	if err != nil {
		return netip.Prefix{}, 0, fmt.Errorf("bgp: invalid prefix: %w", err)
	}
	return p, 1 + n, nil
}

// DecodePrefixes decodes a run of NLRI-encoded prefixes until b is exhausted.
func DecodePrefixes(b []byte, afi uint16) ([]netip.Prefix, error) {
	var out []netip.Prefix
	for len(b) > 0 {
		p, n, err := DecodePrefix(b, afi)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
		b = b[n:]
	}
	return out, nil
}
