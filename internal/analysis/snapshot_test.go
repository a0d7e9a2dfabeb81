package analysis

import (
	"math/rand"
	"net/netip"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/classify"
	"repro/internal/stream"
	"repro/internal/wire"
)

// TestSnapshotRoundTrip pins the codec property behind the snapshot
// index: for EVERY analyzer, Snapshot then Restore into a Fresh
// instance reproduces Finish bit-identically — including the empty
// accumulator, whose snapshot must restore cleanly too.
func TestSnapshotRoundTrip(t *testing.T) {
	sources, protos := mergeLawFixture(t)

	// Empty round trip first: a partition with no in-window events
	// still writes a snapshot.
	for _, p := range protos {
		empty := p.Fresh()
		restored := p.Fresh()
		if err := restored.Restore(empty.Snapshot(nil)); err != nil {
			t.Fatalf("%T: empty restore: %v", p, err)
		}
		if got, want := restored.Finish(), p.Fresh().Finish(); !reflect.DeepEqual(got, want) {
			t.Errorf("%T: empty round trip diverged: %+v != %+v", p, got, want)
		}
	}

	run := classify.FreshAll(protos)
	RunAll(stream.Concat(sources...), nil, run...)
	for i, a := range run {
		snap := a.Snapshot(nil)
		restored := protos[i].Fresh()
		if err := restored.Restore(snap); err != nil {
			t.Fatalf("%T: restore: %v", a, err)
		}
		if got, want := restored.Finish(), a.Finish(); !reflect.DeepEqual(got, want) {
			t.Errorf("%T: round trip diverged:\n got %+v\nwant %+v", a, got, want)
		}
	}
}

// TestSnapshotMergeEquivalence is the property the serving layer's
// snapshot-merge answering rests on: restoring per-shard snapshots and
// merging them (in any order) equals one sequential pass — i.e.
// persisted accumulators behave exactly like live ones under Merge.
// Its second mode is the executor's path: every shard's snapshot is
// restored straight into one accumulator set, in random order, with no
// Fresh copy per snapshot.
func TestSnapshotMergeEquivalence(t *testing.T) {
	sources, protos := mergeLawFixture(t)

	want := make([]any, len(protos))
	seq := classify.FreshAll(protos)
	RunAll(stream.Concat(sources...), nil, seq...)
	for i, a := range seq {
		want[i] = a.Finish()
	}

	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 6; trial++ {
		nshards := 1 + rng.Intn(len(sources)+2)
		groups := make([][]stream.EventSource, nshards)
		for _, src := range sources {
			g := rng.Intn(nshards)
			groups[g] = append(groups[g], src)
		}

		// Each shard's accumulators take a snapshot → restore detour
		// before merging, as if they had crossed a process boundary.
		snaps := make([][][]byte, nshards)
		for g, group := range groups {
			accs := classify.FreshAll(protos)
			RunAll(stream.Concat(group...), nil, accs...)
			snaps[g] = make([][]byte, len(accs))
			for i, a := range accs {
				snaps[g][i] = a.Snapshot(nil)
			}
		}

		merged := classify.FreshAll(protos)
		for _, g := range rng.Perm(nshards) {
			restored := classify.FreshAll(protos)
			for i, snap := range snaps[g] {
				if err := restored[i].Restore(snap); err != nil {
					t.Fatalf("trial %d: %T restore: %v", trial, protos[i], err)
				}
			}
			classify.MergeAll(merged, restored)
		}
		folded := classify.FreshAll(protos)
		for _, g := range rng.Perm(nshards) {
			for i, snap := range snaps[g] {
				if err := folded[i].Restore(snap); err != nil {
					t.Fatalf("trial %d: %T fold: %v", trial, protos[i], err)
				}
			}
		}
		for i := range protos {
			if got := merged[i].Finish(); !reflect.DeepEqual(got, want[i]) {
				t.Errorf("trial %d (%d shards): %T snapshot-merge diverged:\n got %+v\nwant %+v",
					trial, nshards, protos[i], got, want[i])
			}
			if got := folded[i].Finish(); !reflect.DeepEqual(got, want[i]) {
				t.Errorf("trial %d (%d shards): %T snapshot fold diverged:\n got %+v\nwant %+v",
					trial, nshards, protos[i], got, want[i])
			}
		}
	}
}

// TestSnapshotRestoreRejectsCorrupt pins the decoder's safety net: a
// truncated snapshot, or one carrying a value no accumulator holds,
// must error, never panic or half-apply. Every input is restored into
// a non-empty receiver, which a failed Restore must leave unchanged.
func TestSnapshotRestoreRejectsCorrupt(t *testing.T) {
	sources, protos := mergeLawFixture(t)
	// restore restores bad into a receiver that has observed the first
	// source and returns Restore's error; a refusal must leave the
	// receiver's result unchanged.
	restore := func(t *testing.T, proto Analyzer, bad []byte) error {
		t.Helper()
		before := proto.Fresh()
		RunAll(stream.Concat(sources[:1]...), nil, before)
		wantFinish := before.Finish()
		err := before.Restore(bad)
		if err != nil {
			if got := before.Finish(); !reflect.DeepEqual(got, wantFinish) {
				t.Errorf("%T: failed restore mutated state", proto)
			}
		}
		return err
	}

	run := classify.FreshAll(protos)
	RunAll(stream.Concat(sources...), nil, run...)
	for i, a := range run {
		snap := a.Snapshot(nil)
		if len(snap) < 2 {
			continue
		}
		if restore(t, protos[i], snap[:len(snap)/2]) == nil {
			// Some truncation points still parse (length-prefixed maps can
			// cut cleanly between entries at degenerate sizes) — but the
			// common case must error; check at least one byte-level cut does.
			if restore(t, protos[i], snap[:1]) == nil {
				t.Errorf("%T: truncated snapshot restored without error", a)
			}
		}
	}

	// Cuts inside Table 1's paths section, the last one Restore decodes:
	// every set before it decodes cleanly, and none of it may reach the
	// receiver.
	snap := run[0].Snapshot(nil)
	paths := table1PathsOffset(t, snap)
	for _, cut := range []int{paths, paths + 1, (paths + len(snap)) / 2, len(snap) - 1} {
		if restore(t, protos[0], snap[:cut]) == nil {
			t.Errorf("table1 snapshot cut at %d of %d (paths from %d) restored without error", cut, len(snap), paths)
		}
	}

	// Snapshots that decode but hold a value outside its domain: a
	// shard's envelope can carry any of them.
	session := classify.AppendSessionKey(nil, classify.SessionKey{Collector: "rrc00", PeerAddr: netip.MustParseAddr("10.0.0.1")})
	counts := func(neg int) []byte { // neg < 0: all eight counts valid
		var b []byte
		for j := range 8 {
			v := int64(1)
			if j == neg {
				v = -1
			}
			b = wire.AppendVarint(b, v)
		}
		return b
	}
	table1 := func(neg int) []byte {
		var b []byte
		for j := range 3 {
			v := int64(1)
			if j == neg {
				v = -1
			}
			b = wire.AppendVarint(b, v)
		}
		for range 7 {
			b = wire.AppendUvarint(b, 0)
		}
		return b
	}
	peer := func(total, withComm int64) []byte {
		b := wire.AppendUvarint(nil, 1)
		b = append(b, session...)
		b = wire.AppendUvarint(b, 64999)
		b = wire.AppendVarint(b, total)
		b = wire.AppendVarint(b, withComm)
		return append(b, counts(-1)...)
	}
	mix := wire.AppendUvarint(nil, 1)
	mix = append(mix, session...)
	mix = wire.AppendUvarint(mix, 64999)
	mix = append(mix, counts(3)...)
	cum := wire.AppendUvarint(nil, 1)
	cum = wire.AppendTime(cum, time.Date(2020, 3, 15, 12, 0, 0, 0, time.UTC))
	cum = wire.AppendUvarint(cum, 9)
	cum = wire.AppendUvarint(cum, 0)
	ingress := wire.AppendUvarint(nil, 1)
	ingress = wire.AppendUvarint(ingress, 64999)
	ingress = wire.AppendUvarint(ingress, 1<<16+3356)
	ingress = wire.AppendUvarint(ingress, 1)
	ingress = wire.AppendUvarint(ingress, uint64(bgp.NewCommunity(3356, 2100)))
	for _, tc := range []struct {
		name  string
		proto Analyzer
		state []byte
		want  string // the analyzer the error must name
	}{
		{"counts negative", protos[1], counts(0), "counts"},
		{"counts negative withdrawals", protos[1], counts(6), "counts"},
		{"table1 negative announcements", protos[0], table1(0), "table1"},
		{"table1 negative withdrawals", protos[0], table1(1), "table1"},
		{"table1 negative with-communities", protos[0], table1(2), "table1"},
		{"session mix negative count", protos[2], mix, "session mix"},
		{"cumulative type 9", protos[3], cum, "cumulative"},
		{"peer behavior negative total", protos[5], peer(-1, 0), "peer behavior"},
		{"peer behavior negative with-communities", protos[5], peer(1, -1), "peer behavior"},
		{"ingress tagger past 16 bits", protos[6], ingress, "ingress"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := restore(t, tc.proto, tc.state)
			if err == nil {
				t.Fatalf("%T restored an out-of-domain state", tc.proto)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not name %q", err, tc.want)
			}
		})
	}
}

// table1PathsOffset returns where a Table 1 snapshot's paths section
// (its count, then the paths) begins.
func table1PathsOffset(t *testing.T, snap []byte) int {
	t.Helper()
	r := wire.NewReader(snap)
	r.Int()
	r.Int()
	r.Int()
	for range 2 {
		for range r.Count(1) {
			r.Prefix()
		}
	}
	for range r.Count(1) {
		r.Uint32()
	}
	for range r.Count(1) {
		classify.ReadSessionKey(r)
	}
	for range 2 {
		for range r.Count(1) {
			r.Uint32()
		}
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	return r.Pos()
}
