package analysis

import (
	"time"

	"repro/internal/classify"
)

// Batch (vectorized) implementations of the hottest analyzers. Each
// ObserveBatch aggregates on dictionary ids: the per-event loop
// touches only integer columns, recording verdicts ("this collector
// gid matches my filter") and pending work ("this prefix gid appeared")
// in dense per-gid arrays. Table 1 goes further and defers the
// distinct-set inserts entirely: gids marked pending are resolved to
// values in one sequential pass over the dictionary, which runs at the
// accumulator's read boundaries (Finish, Merge, Snapshot) and on a
// dictionary switch — exactly the "aggregate on ids, resolve to
// strings in Finish" contract classify.BatchAnalyzer documents. The
// resolution pass knows the number of pending gids up front, so the
// value maps are presized instead of grown insert by insert. This is
// sound under the batch dictionary contract: within one dictionary,
// equal ids always decode to equal values (the converse need not hold;
// two ids mapping to the same value merely repeat an idempotent
// insert, and row-path Observe calls interleave freely because
// resolution re-inserting a value the row path already added is a
// no-op).
//
// Caches are keyed on the *classify.Dict identity and reset — after
// resolving against the old dictionary — when a batch arrives with a
// different one. Restore and Merge only add values to the accumulator
// the marks are destined for, so both leave the caches valid.

var (
	_ classify.BatchAnalyzer = (*Table1Analyzer)(nil)
	_ classify.BatchAnalyzer = (*SessionMixAnalyzer)(nil)
	_ classify.BatchAnalyzer = (*CumulativeAnalyzer)(nil)
)

// growVerdicts extends a per-gid cache to cover n ids, preserving
// existing entries (dictionaries only grow within a scan).
func growVerdicts(s []uint8, n int) []uint8 {
	if len(s) >= n {
		return s
	}
	if cap(s) >= n {
		grown := s[:n]
		clear(grown[len(s):])
		return grown
	}
	grown := make([]uint8, n)
	copy(grown, s)
	return grown
}

// ---------------------------------------------------------------------------
// Table 1
// ---------------------------------------------------------------------------

// table1Batch is the per-dictionary id-space state of the Table 1
// batch path. Marker values: 0 = gid unseen, 1 = pending (observed in
// a batch, value not yet folded into the accumulator), 2 = resolved.
type table1Batch struct {
	dict      *classify.Dict
	pfxDone   []uint8
	pathDone  []uint8
	commsDone []uint8
	peerDone  []uint8
	// commsLen caches the empty/nonempty verdict per comms gid:
	// 0 unknown, 1 empty, 2 nonempty.
	commsLen []uint8
	// pairs holds the pending (collector gid << 32 | peerAddr gid)
	// session identities; resolution renders them to SessionKeys.
	pairs map[uint64]struct{}
	// Run-length shortcuts mirroring table1Accum's, but on gids: the
	// pair insert is skipped while the (collector, peerAddr) gid pair
	// repeats.
	lastColl, lastAddr, lastPeer uint32
	havePair                     bool
	lastPfx                      uint32
	havePfx                      bool
}

func (bt *table1Batch) sync(acc *table1Accum, d *classify.Dict) {
	if bt.dict != d {
		bt.resolve(acc) // pending gids refer to the old dictionary
		*bt = table1Batch{dict: d, pairs: bt.pairs}
	}
	if bt.pairs == nil {
		bt.pairs = make(map[uint64]struct{}, 64)
	}
	bt.pfxDone = growVerdicts(bt.pfxDone, len(d.Prefixes))
	bt.pathDone = growVerdicts(bt.pathDone, len(d.Paths))
	bt.commsDone = growVerdicts(bt.commsDone, len(d.CommSets))
	bt.peerDone = growVerdicts(bt.peerDone, len(d.PeerASNs))
	bt.commsLen = growVerdicts(bt.commsLen, len(d.CommSets))
}

// resolve folds every pending gid's value into the accumulator and
// marks it resolved. One sequential pass per column: path rendering
// walks dict.Paths in id order (cache-friendly), and the paths map is
// presized to the exact pending count when it is still empty.
func (bt *table1Batch) resolve(acc *table1Accum) {
	d := bt.dict
	if d == nil {
		return
	}
	if pending := countPending(bt.pathDone); pending > 0 && len(acc.paths) == 0 {
		acc.paths = make(map[string]struct{}, pending)
	}
	for g, s := range bt.pathDone {
		if s != 1 {
			continue
		}
		bt.pathDone[g] = 2
		path := d.Paths[g]
		acc.pathKey = appendPathKey(acc.pathKey[:0], path)
		if _, ok := acc.paths[string(acc.pathKey)]; !ok {
			acc.paths[acc.intern(acc.pathKey)] = struct{}{}
			for _, seg := range path {
				for _, as := range seg.ASNs {
					acc.ases[as] = struct{}{}
				}
			}
		}
	}
	for g, s := range bt.pfxDone {
		if s != 1 {
			continue
		}
		bt.pfxDone[g] = 2
		pfx := d.Prefixes[g]
		if pfx.Addr().Is4() {
			acc.v4[pfx] = struct{}{}
		} else {
			acc.v6[pfx] = struct{}{}
		}
	}
	for g, s := range bt.commsDone {
		if s != 1 {
			continue
		}
		bt.commsDone[g] = 2
		for _, c := range d.CommSets[g] {
			acc.comms[c] = struct{}{}
		}
	}
	for g, s := range bt.peerDone {
		if s != 1 {
			continue
		}
		bt.peerDone[g] = 2
		acc.peers[d.PeerASNs[g]] = struct{}{}
	}
	for pair := range bt.pairs {
		cg, ag := uint32(pair>>32), uint32(pair)
		key := classify.SessionKey{Collector: d.Collectors[cg], PeerAddr: d.PeerAddrs[ag]}
		acc.sessions[key] = struct{}{}
	}
	clear(bt.pairs)
}

func countPending(s []uint8) int {
	n := 0
	for _, v := range s {
		if v == 1 {
			n++
		}
	}
	return n
}

// resolvePending flushes deferred id-space aggregation into the
// value-keyed accumulator; every accumulator read boundary calls it.
func (a *Table1Analyzer) resolvePending() { a.bt.resolve(a.acc) }

// Project declares the columns Table 1 reads. MED is the only column
// the overview ignores.
func (a *Table1Analyzer) Project() classify.Projection {
	return classify.ProjCollector | classify.ProjPeerAS | classify.ProjPeerAddr |
		classify.ProjPrefix | classify.ProjPath | classify.ProjComms
}

// ObserveBatch folds the selected rows into the overview without
// materializing events or touching a value map: counters are bumped
// straight off the withdraw bitset and comms verdict cache, and every
// distinct-set membership becomes a pending mark on the gid, resolved
// to values later (see resolve).
func (a *Table1Analyzer) ObserveBatch(_ []classify.Result, b *classify.Batch, sel []int32) {
	acc := a.acc
	bt := &a.bt
	bt.sync(acc, b.Dict)
	dict := b.Dict
	for _, si := range sel {
		i := int(si)
		cg, ag := b.Collector[i], b.PeerAddr[i]
		if !bt.havePair || cg != bt.lastColl || ag != bt.lastAddr {
			bt.pairs[uint64(cg)<<32|uint64(ag)] = struct{}{}
			pg := b.PeerAS[i]
			if bt.peerDone[pg] == 0 {
				bt.peerDone[pg] = 1
			}
			bt.lastColl, bt.lastAddr, bt.havePair = cg, ag, true
			bt.lastPeer = pg
		} else if pg := b.PeerAS[i]; pg != bt.lastPeer {
			if bt.peerDone[pg] == 0 {
				bt.peerDone[pg] = 1
			}
			bt.lastPeer = pg
		}
		if g := b.Prefix[i]; !bt.havePfx || g != bt.lastPfx {
			if bt.pfxDone[g] == 0 {
				bt.pfxDone[g] = 1
			}
			bt.lastPfx, bt.havePfx = g, true
		}
		if b.Withdraw.Get(i) {
			acc.t1.Withdrawals++
			continue
		}
		acc.t1.Announcements++
		if g := b.Comms[i]; bt.commsLen[g] != 1 {
			if bt.commsLen[g] == 0 {
				if len(dict.CommSets[g]) == 0 {
					bt.commsLen[g] = 1
				} else {
					bt.commsLen[g] = 2
				}
			}
			if bt.commsLen[g] == 2 {
				acc.t1.WithCommunities++
				if bt.commsDone[g] == 0 {
					bt.commsDone[g] = 1
				}
			}
		}
		if g := b.Path[i]; bt.pathDone[g] == 0 {
			bt.pathDone[g] = 1
		}
	}
}

// ---------------------------------------------------------------------------
// Figure 3 — per-session type mix
// ---------------------------------------------------------------------------

// sessMixBatch caches the collector/prefix filter verdicts per gid
// (0 unknown, 1 match, 2 mismatch) and the last session's mix pointer.
type sessMixBatch struct {
	dict               *classify.Dict
	collOK, pfxOK      []uint8
	lastColl, lastAddr uint32
	last               *SessionMix
}

func (bb *sessMixBatch) sync(d *classify.Dict) {
	if bb.dict != d {
		*bb = sessMixBatch{dict: d}
	}
	bb.collOK = growVerdicts(bb.collOK, len(d.Collectors))
	bb.pfxOK = growVerdicts(bb.pfxOK, len(d.Prefixes))
}

// Project declares the columns Figure 3 reads: the collector/prefix
// filters plus the session identity and peer AS.
func (a *SessionMixAnalyzer) Project() classify.Projection {
	return classify.ProjCollector | classify.ProjPeerAS | classify.ProjPeerAddr | classify.ProjPrefix
}

// ObserveBatch tallies the selected rows that pass the collector and
// prefix filters, resolving each verdict once per gid and the session
// mix pointer once per (collector, peer) run.
func (a *SessionMixAnalyzer) ObserveBatch(results []classify.Result, b *classify.Batch, sel []int32) {
	bb := &a.bb
	bb.sync(b.Dict)
	dict := b.Dict
	for _, si := range sel {
		i := int(si)
		cg := b.Collector[i]
		cv := bb.collOK[cg]
		if cv == 0 {
			cv = 2
			if dict.Collectors[cg] == a.collector {
				cv = 1
			}
			bb.collOK[cg] = cv
		}
		if cv != 1 {
			continue
		}
		pg := b.Prefix[i]
		pv := bb.pfxOK[pg]
		if pv == 0 {
			pv = 2
			if dict.Prefixes[pg] == a.prefix {
				pv = 1
			}
			bb.pfxOK[pg] = pv
		}
		if pv != 1 {
			continue
		}
		ag := b.PeerAddr[i]
		m := bb.last
		if m == nil || cg != bb.lastColl || ag != bb.lastAddr {
			key := classify.SessionKey{Collector: dict.Collectors[cg], PeerAddr: dict.PeerAddrs[ag]}
			m = a.mixes[key]
			if m == nil {
				m = &SessionMix{Session: key, PeerAS: dict.PeerASNs[b.PeerAS[i]]}
				a.mixes[key] = m
			}
			bb.lastColl, bb.lastAddr, bb.last = cg, ag, m
		}
		if b.Withdraw.Get(i) {
			m.Counts.Withdrawals++
			continue
		}
		m.Counts.Add(results[i])
	}
}

// ---------------------------------------------------------------------------
// Figures 4/5 — cumulative announcements by path
// ---------------------------------------------------------------------------

// cumBatch caches the route-filter verdicts per gid (0 unknown,
// 1 match, 2 mismatch).
type cumBatch struct {
	dict                          *classify.Dict
	collOK, addrOK, pfxOK, pathOK []uint8
}

func (cb *cumBatch) sync(d *classify.Dict) {
	if cb.dict != d {
		*cb = cumBatch{dict: d}
	}
	cb.collOK = growVerdicts(cb.collOK, len(d.Collectors))
	cb.addrOK = growVerdicts(cb.addrOK, len(d.PeerAddrs))
	cb.pfxOK = growVerdicts(cb.pfxOK, len(d.Prefixes))
	cb.pathOK = growVerdicts(cb.pathOK, len(d.Paths))
}

// Project declares the columns Figures 4/5 read. The path column is
// needed for the route's path-string filter; peer AS and MED are not.
func (a *CumulativeAnalyzer) Project() classify.Projection {
	return classify.ProjCollector | classify.ProjPeerAddr | classify.ProjPrefix | classify.ProjPath
}

// ObserveBatch appends the selected rows that belong to the route.
// Every filter — session, prefix, and the rendered path string — is a
// per-gid verdict resolved once, so repeat ids cost four byte loads.
func (a *CumulativeAnalyzer) ObserveBatch(results []classify.Result, b *classify.Batch, sel []int32) {
	cb := &a.cb
	cb.sync(b.Dict)
	dict := b.Dict
	for _, si := range sel {
		i := int(si)
		cg := b.Collector[i]
		cv := cb.collOK[cg]
		if cv == 0 {
			cv = 2
			if dict.Collectors[cg] == a.session.Collector {
				cv = 1
			}
			cb.collOK[cg] = cv
		}
		if cv != 1 {
			continue
		}
		ag := b.PeerAddr[i]
		av := cb.addrOK[ag]
		if av == 0 {
			av = 2
			if dict.PeerAddrs[ag] == a.session.PeerAddr {
				av = 1
			}
			cb.addrOK[ag] = av
		}
		if av != 1 {
			continue
		}
		pg := b.Prefix[i]
		pv := cb.pfxOK[pg]
		if pv == 0 {
			pv = 2
			if dict.Prefixes[pg] == a.prefix {
				pv = 1
			}
			cb.pfxOK[pg] = pv
		}
		if pv != 1 {
			continue
		}
		if b.Withdraw.Get(i) {
			a.series.Withdrawals = append(a.series.Withdrawals, time.Unix(0, b.Times[i]).UTC())
			continue
		}
		hg := b.Path[i]
		hv := cb.pathOK[hg]
		if hv == 0 {
			hv = 2
			if dict.Paths[hg].String() == a.path {
				hv = 1
			}
			cb.pathOK[hg] = hv
		}
		if hv != 1 {
			continue
		}
		a.series.Points = append(a.series.Points, CumPoint{
			Time: time.Unix(0, b.Times[i]).UTC(),
			Type: results[i].Type,
		})
	}
}
