// Package collector emulates route collectors (RouteViews / RIPE RIS): it
// serializes normalized update events into the MRT archives the
// measurement pipeline consumes, modelling collector quirks such as IXP
// route servers omitting their own ASN from the AS path.
package collector

import (
	"fmt"
	"io"
	"net/netip"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/bgp"
	"repro/internal/classify"
	"repro/internal/mrt"
	"repro/internal/stream"
	"repro/internal/workload"
)

// LocalAS is the collector-side AS written into BGP4MP records; RIS
// collectors peer from AS12654.
const LocalAS uint32 = 12654

// localAddrFor derives a stable collector-side session address.
func localAddrFor(peer netip.Addr) netip.Addr {
	if peer.Is4() {
		return netip.AddrFrom4([4]byte{198, 51, 100, 1})
	}
	return netip.MustParseAddr("2001:db8:ffff::1")
}

// EventRecord converts one normalized event into a BGP4MP message record.
// For route-server peers the peer's ASN is removed from the AS path,
// reproducing the §4 collector quirk the pipeline has to undo.
func EventRecord(e classify.Event, routeServers map[uint32]bool) (*mrt.BGP4MPMessage, error) {
	var upd bgp.Update
	if e.Withdraw {
		if e.Prefix.Addr().Is4() {
			upd.Withdrawn = []netip.Prefix{e.Prefix}
		} else {
			upd.Attrs.MPUnreach = &bgp.MPUnreach{
				AFI: bgp.AFIIPv6, SAFI: bgp.SAFIUnicast,
				Withdrawn: []netip.Prefix{e.Prefix},
			}
		}
	} else {
		path := e.ASPath
		if routeServers[e.PeerAS] {
			if first, ok := path.FirstAS(); ok && first == e.PeerAS && len(path) > 0 {
				trimmed := path.Clone()
				trimmed[0].ASNs = trimmed[0].ASNs[1:]
				if len(trimmed[0].ASNs) == 0 {
					trimmed = trimmed[1:]
				}
				path = trimmed
			}
		}
		upd.Attrs = bgp.PathAttrs{
			Origin:      bgp.OriginIGP,
			ASPath:      path,
			Communities: e.Communities,
			HasMED:      e.HasMED,
			MED:         e.MED,
		}
		if e.Prefix.Addr().Is4() {
			upd.NLRI = []netip.Prefix{e.Prefix}
			upd.Attrs.NextHop = e.PeerAddr
		} else {
			nh := e.PeerAddr
			if nh.Is4() {
				nh = netip.MustParseAddr("2001:db8:ffff::2")
			}
			upd.Attrs.MPReach = &bgp.MPReach{
				AFI: bgp.AFIIPv6, SAFI: bgp.SAFIUnicast,
				NextHop: nh,
				NLRI:    []netip.Prefix{e.Prefix},
			}
		}
	}
	wire, err := bgp.Marshal(&upd, bgp.MarshalOptions{FourByteAS: true})
	if err != nil {
		return nil, fmt.Errorf("collector: marshal update: %w", err)
	}
	peerAddr := e.PeerAddr
	local := localAddrFor(peerAddr)
	return &mrt.BGP4MPMessage{
		PeerAS:     e.PeerAS,
		LocalAS:    LocalAS,
		PeerAddr:   peerAddr,
		LocalAddr:  local,
		Data:       wire,
		FourByteAS: true,
	}, nil
}

// WriteEventSource drains an event source (already time-ordered) into an
// MRT writer, one record at a time.
func WriteEventSource(w *mrt.Writer, src stream.EventSource, routeServers map[uint32]bool) error {
	for e := range src {
		rec, err := EventRecord(e, routeServers)
		if err != nil {
			return err
		}
		if err := w.Write(e.Time, rec); err != nil {
			return err
		}
	}
	return w.Flush()
}

// WriteSourcesDir writes one MRT archive per collector from per-session
// event sources (as returned by workload.DaySources / BeaconSources)
// without ever materializing the dataset: each collector's archive is a
// time-ordered merge of just that collector's sessions, so the peak
// working set is one collector's events rather than the whole day.
// Files are named <collector>.updates.mrt as the real archives name
// their update dumps; the result maps collector → file path.
func WriteSourcesDir(peers []workload.Peer, sources []stream.EventSource, dir string) (map[string]string, error) {
	if len(peers) != len(sources) {
		return nil, fmt.Errorf("collector: %d peers but %d sources", len(peers), len(sources))
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	byCollector := make(map[string][]stream.EventSource)
	for i, p := range peers {
		byCollector[p.Collector] = append(byCollector[p.Collector], sources[i])
	}
	routeServers := workload.RouteServerASNs(peers)
	names := make([]string, 0, len(byCollector))
	for name := range byCollector {
		names = append(names, name)
	}
	sort.Strings(names)
	files := make(map[string]string, len(names))
	for _, name := range names {
		path := filepath.Join(dir, name+".updates.mrt")
		f, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		w := mrt.NewWriter(f)
		w.ExtendedTime = true
		if err := WriteEventSource(w, stream.Merge(byCollector[name]...), routeServers); err != nil {
			f.Close()
			return nil, fmt.Errorf("collector %s: %w", name, err)
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
		files[name] = path
	}
	return files, nil
}

// CountRecords scans an MRT file and returns the number of BGP4MP message
// records, a cheap integrity check for generated archives.
func CountRecords(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	n := 0
	err = mrt.NewReader(f).Walk(func(h mrt.Header, rec mrt.Record) error {
		if _, ok := rec.(*mrt.BGP4MPMessage); ok {
			n++
		}
		return nil
	})
	if err != nil && err != io.EOF {
		return n, err
	}
	return n, nil
}
