package mrt

import (
	"fmt"
	"strings"

	"repro/internal/bgp"
)

// Format renders one record in a bgpdump-like single-line-per-event style,
// for inspection tooling (`evstore dump`).
func Format(h Header, rec Record) string {
	ts := h.Time().UTC().Format("2006-01-02 15:04:05.000000")
	switch rec := rec.(type) {
	case *BGP4MPMessage:
		msg, err := rec.Decode()
		if err != nil {
			return fmt.Sprintf("%s|BGP4MP|AS%d|%v|<undecodable: %v>", ts, rec.PeerAS, rec.PeerAddr, err)
		}
		switch m := msg.(type) {
		case *bgp.Update:
			var sb strings.Builder
			for _, p := range m.AllWithdrawn() {
				fmt.Fprintf(&sb, "%s|W|%v|AS%d|%v\n", ts, p, rec.PeerAS, rec.PeerAddr)
			}
			for _, p := range m.Announced() {
				fmt.Fprintf(&sb, "%s|A|%v|AS%d|%v|%s|%s|%s\n",
					ts, p, rec.PeerAS, rec.PeerAddr,
					m.Attrs.ASPath, m.Attrs.Origin, m.Attrs.Communities.Canonical())
			}
			return strings.TrimRight(sb.String(), "\n")
		case *bgp.Keepalive:
			return fmt.Sprintf("%s|K|AS%d|%v", ts, rec.PeerAS, rec.PeerAddr)
		case *bgp.Open:
			return fmt.Sprintf("%s|O|AS%d|%v|hold=%d", ts, m.ASN, rec.PeerAddr, m.HoldTime)
		case *bgp.Notification:
			return fmt.Sprintf("%s|N|AS%d|%v|code=%d/%d", ts, rec.PeerAS, rec.PeerAddr, m.Code, m.Subcode)
		}
		return fmt.Sprintf("%s|?|AS%d|%v", ts, rec.PeerAS, rec.PeerAddr)
	case *BGP4MPStateChange:
		return fmt.Sprintf("%s|STATE|AS%d|%v|%d->%d", ts, rec.PeerAS, rec.PeerAddr, rec.OldState, rec.NewState)
	case *PeerIndexTable:
		return fmt.Sprintf("%s|PEER_INDEX|%s|%d peers", ts, rec.ViewName, len(rec.Peers))
	case *RIBUnicast:
		return fmt.Sprintf("%s|RIB|%v|%d entries", ts, rec.Prefix, len(rec.Entries))
	}
	return fmt.Sprintf("%s|unknown record", ts)
}
