package bgp

import "fmt"

// ReconcileAS4Path implements RFC 6793 §4.2.3: when an update traverses a
// 2-octet-only speaker, 4-octet ASNs in AS_PATH are substituted with
// AS_TRANS (23456) and the true path travels in the optional transitive
// AS4_PATH attribute. The receiver reconstructs the real path by taking
// the trailing len(as4Path) elements from as4Path and the leading
// (len(asPath) - len(as4Path)) elements from asPath.
//
// If as4Path is longer than asPath the AS4_PATH is malformed (it passed
// through more ASes than the path records) and RFC 6793 says to ignore it;
// we return asPath unchanged with an error for observability.
func ReconcileAS4Path(asPath, as4Path ASPath) (ASPath, error) {
	if len(as4Path) == 0 {
		return asPath, nil
	}
	pathLen := asPath.Length()
	as4Len := as4Path.Length()
	if as4Len > pathLen {
		return asPath, fmt.Errorf("bgp: AS4_PATH length %d exceeds AS_PATH length %d; ignoring AS4_PATH", as4Len, pathLen)
	}
	if as4Len == pathLen {
		return as4Path.Clone(), nil
	}
	// Take the leading (pathLen - as4Len) path elements from asPath, then
	// append as4Path. Elements are counted as the decision process counts
	// them: each sequence ASN is 1, each whole AS_SET is 1.
	keep := pathLen - as4Len
	out := make(ASPath, 0, len(asPath)+len(as4Path))
	for _, seg := range asPath {
		if keep == 0 {
			break
		}
		if seg.Type == SegmentSet {
			out = append(out, seg.Clone())
			keep--
			continue
		}
		if len(seg.ASNs) <= keep {
			out = append(out, seg.Clone())
			keep -= len(seg.ASNs)
			continue
		}
		partial := ASPathSegment{Type: SegmentSequence, ASNs: append([]uint32(nil), seg.ASNs[:keep]...)}
		out = append(out, partial)
		keep = 0
	}
	out = append(out, as4Path.Clone()...)
	return out, nil
}

// EffectivePath returns the attribute set's reconstructed AS path: the
// plain AS_PATH unless an AS4_PATH raw attribute is present and valid.
// The pipeline applies this when normalizing archives recorded on 2-octet
// sessions.
func (a *PathAttrs) EffectivePath() (ASPath, error) {
	for _, raw := range a.Unknown {
		if raw.Type != AttrAS4Path {
			continue
		}
		as4, err := decodeASPath(raw.Value, true)
		if err != nil {
			return a.ASPath, fmt.Errorf("bgp: malformed AS4_PATH: %w", err)
		}
		return ReconcileAS4Path(a.ASPath, as4)
	}
	return a.ASPath, nil
}
