package evstore_test

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/evstore"
	"repro/internal/stream"
	"repro/internal/workload"
)

// ingestCodec writes src into a fresh store with the given block codec.
func ingestCodec(t *testing.T, src stream.EventSource, codec evstore.Codec) string {
	t.Helper()
	dir := t.TempDir()
	w, err := evstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	w.BlockEvents = 512
	w.Codec = codec
	if err := w.Ingest(src); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestCrossCodecScanEquivalence pins that the same workload written
// under every codec classifies bit-identically, with pushdown stats
// (the deterministic ones) equal across codecs.
func TestCrossCodecScanEquivalence(t *testing.T) {
	cfg := smallDayConfig()
	const days = 2
	want := countTypes(workload.MultiDaySource(cfg, days), nil)

	var base *evstore.ScanStats
	for _, codec := range []evstore.Codec{evstore.CodecRaw, evstore.CodecLZ} {
		t.Run(codec.String(), func(t *testing.T) {
			dir := ingestCodec(t, workload.MultiDaySource(cfg, days), codec)
			var scanErr error
			var st evstore.ScanStats
			got := countTypes(evstore.ScanWithStats(dir, evstore.Query{}, &scanErr, &st), nil)
			if scanErr != nil {
				t.Fatal(scanErr)
			}
			if got != want {
				t.Errorf("counts diverge:\n got %+v\nwant %+v", got, want)
			}
			if st.BytesDecompressed == 0 || st.Events == 0 {
				t.Fatalf("empty scan stats: %+v", st)
			}
			// Pushdown decisions depend on summaries, not codecs: the
			// decoded-block and event counts must match across codecs.
			if base == nil {
				cp := st
				base = &cp
				return
			}
			if st.Blocks != base.Blocks || st.BlocksDecoded != base.BlocksDecoded ||
				st.Events != base.Events || st.BytesDecompressed != base.BytesDecompressed {
				t.Errorf("pushdown diverges from first codec:\n got %+v\nbase %+v", st, *base)
			}
		})
	}
}

// TestCodecStatsAttribution pins the per-codec split: a raw store's
// decoded blocks all land in PerCodec[CodecRaw] (with read bytes equal
// to decompressed bytes), an lz store's in lz or the raw fallback.
func TestCodecStatsAttribution(t *testing.T) {
	cfg := smallDayConfig()
	src := func() stream.EventSource { return workload.MultiDaySource(cfg, 1) }

	rawDir := ingestCodec(t, src(), evstore.CodecRaw)
	var scanErr error
	var st evstore.ScanStats
	countTypes(evstore.ScanWithStats(rawDir, evstore.Query{}, &scanErr, &st), nil)
	if scanErr != nil {
		t.Fatal(scanErr)
	}
	rc := st.PerCodec[evstore.CodecRaw]
	if rc.Blocks != st.BlocksDecoded || rc.BytesRead != rc.BytesDecompressed ||
		st.BytesRead != st.BytesDecompressed {
		t.Fatalf("raw store attribution wrong: %+v (total %+v)", rc, st)
	}

	lzDir := ingestCodec(t, src(), evstore.CodecLZ)
	countTypes(evstore.ScanWithStats(lzDir, evstore.Query{}, &scanErr, &st), nil)
	if scanErr != nil {
		t.Fatal(scanErr)
	}
	lz := st.PerCodec[evstore.CodecLZ]
	raw := st.PerCodec[evstore.CodecRaw]
	if lz.Blocks+raw.Blocks != st.BlocksDecoded || lz.Blocks == 0 {
		t.Fatalf("lz store attribution wrong: lz %+v raw %+v total %+v", lz, raw, st)
	}
	if st.BytesRead >= st.BytesDecompressed {
		t.Fatalf("lz store did not compress: read %d >= decompressed %d", st.BytesRead, st.BytesDecompressed)
	}
}

// TestMultiBlockScan pins the block loop over partitions of many
// blocks: the store really is multi-block, the classified counts equal
// direct generation, every block of a complete scan — unfiltered or
// windowed inside a partition — is either pruned or decoded, and the
// parallel scan's summed stats equal the sequential scan's exactly.
func TestMultiBlockScan(t *testing.T) {
	cfg := smallDayConfig()
	dir := t.TempDir()
	w, err := evstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	w.BlockEvents = 64 // many blocks per partition
	if err := w.Ingest(workload.MultiDaySource(cfg, 2)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	infos, err := evstore.Stat(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Every partition but a day's tail too short to fill two blocks
	// must take the loop more than once.
	multi := 0
	for _, info := range infos {
		switch {
		case len(info.Blocks) > 1:
			multi++
		case info.Events > w.BlockEvents:
			t.Errorf("%s: %d events in %d block(s)", info.Path, info.Events, len(info.Blocks))
		}
	}
	if multi == 0 {
		t.Fatalf("no multi-block partition among %d", len(infos))
	}

	var scanErr error
	var seq evstore.ScanStats
	counts := countTypes(evstore.ScanWithStats(dir, evstore.Query{}, &scanErr, &seq), nil)
	if scanErr != nil {
		t.Fatal(scanErr)
	}
	if seq.BlocksPruned+seq.BlocksDecoded != seq.Blocks {
		t.Errorf("complete scan: %d pruned + %d decoded != %d blocks", seq.BlocksPruned, seq.BlocksDecoded, seq.Blocks)
	}

	direct := countTypes(workload.MultiDaySource(cfg, 2), nil)
	if counts != direct {
		t.Errorf("multi-block counts diverge:\n got %+v\nwant %+v", counts, direct)
	}

	// A window inside a day prunes blocks of the same partition on both
	// sides of it; pruned and decoded still add up, and the rows
	// yielded are exactly the window's.
	q := evstore.Query{Window: evstore.TimeRange{From: testDay.Add(3 * time.Hour), To: testDay.Add(9 * time.Hour)}}
	var win evstore.ScanStats
	got := stream.Count(evstore.ScanWithStats(dir, q, &scanErr, &win))
	if scanErr != nil {
		t.Fatal(scanErr)
	}
	if win.BlocksPruned == 0 || win.BlocksPruned+win.BlocksDecoded != win.Blocks {
		t.Errorf("windowed scan: %d pruned + %d decoded, %d blocks", win.BlocksPruned, win.BlocksDecoded, win.Blocks)
	}
	if want := stream.Count(stream.Filter(workload.MultiDaySource(cfg, 2), q.Match)); got != want || win.Events != want {
		t.Errorf("windowed scan yielded %d events (stats %d), want %d", got, win.Events, want)
	}

	// The stats count the chunks a decode opens: a row-fallback analyzer
	// makes the parallel run decode every column, as the row scan does.
	ps, err := evstore.ScanParallel(context.Background(), dir, evstore.Query{}, evstore.TimeRange{}, 4, analysis.NewPeerBehavior())
	if err != nil {
		t.Fatal(err)
	}
	if ps.Total != seq {
		t.Errorf("parallel stats diverge from sequential:\n got %+v\nwant %+v", ps.Total, seq)
	}
}

// TestRecodeRoundTrip is the migration pin: an lz store with built
// sidecars recodes to raw with bit-identical classification, sane
// byte accounting, sidecars reused without a single
// rebuild (Built == 0) with their result codes intact — a window replayed
// from them answers as before — and a second recode is a no-op.
func TestRecodeRoundTrip(t *testing.T) {
	cfg := smallDayConfig()
	const days = 2
	dir := ingestCodec(t, workload.MultiDaySource(cfg, days), evstore.CodecLZ)

	before := countTypes(evstore.Scan(dir, evstore.Query{}, nil), nil)
	bs, err := evstore.BuildSnapshots(context.Background(), dir, snapNamed())
	if err != nil {
		t.Fatal(err)
	}
	if bs.Built == 0 {
		t.Fatal("no sidecars built")
	}
	// A window that cuts partitions, answered by replaying the sidecars'
	// result codes — before the recode and, from the rewritten sidecars,
	// after it.
	cut := evstore.Query{Window: evstore.TimeRange{From: testDay.Add(3 * time.Hour), To: testDay.Add(27 * time.Hour)}}
	replayed := func() (evstore.ServeStats, []any, map[string][]byte) {
		t.Helper()
		ix, ibs, err := evstore.OpenSnapshotIndex(context.Background(), dir, snapNamed())
		if err != nil {
			t.Fatal(err)
		}
		if ibs.Built != 0 {
			t.Fatalf("index open rebuilt %d sidecars", ibs.Built)
		}
		ss := checkSnapshotQuery(t, ix, cut)
		if ss.Replayed == 0 || ss.Restores != 0 {
			t.Fatalf("%d replays, %d restores; want the cut partitions replayed", ss.Replayed, ss.Restores)
		}
		got := snapNamed()
		if _, err := ix.Query(context.Background(), cut, 1, got...); err != nil {
			t.Fatal(err)
		}
		var answers []any
		for _, na := range got {
			answers = append(answers, na.Proto.Finish())
		}
		columns := make(map[string][]byte)
		for _, p := range ix.Manifest().Partitions {
			snap, err := evstore.ReadSnapshot(p.Path)
			if err != nil {
				t.Fatal(err)
			}
			columns[p.Path] = snap.Results
		}
		return ss, answers, columns
	}
	ssBefore, answersBefore, columnsBefore := replayed()

	rs, err := evstore.Recode(context.Background(), dir, evstore.CodecRaw)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Recoded != rs.Partitions || rs.Skipped != 0 {
		t.Fatalf("expected every lz partition recoded: %+v", rs)
	}
	if rs.Sidecars != rs.Partitions {
		t.Fatalf("recoded %d sidecars for %d partitions", rs.Sidecars, rs.Partitions)
	}
	if rs.BytesOut <= 0 || rs.BytesIn <= 0 {
		t.Fatalf("implausible byte accounting: %+v", rs)
	}

	after := countTypes(evstore.Scan(dir, evstore.Query{}, nil), nil)
	if after != before {
		t.Errorf("recode changed classification:\n got %+v\nwant %+v", after, before)
	}

	// The sidecar reuse pin: recode refreshed size+chain, so a rebuild
	// pass reuses every sidecar.
	bs2, err := evstore.BuildSnapshots(context.Background(), dir, snapNamed())
	if err != nil {
		t.Fatal(err)
	}
	if bs2.Built != 0 || bs2.Reused != bs.Partitions {
		t.Fatalf("after recode: Built=%d Reused=%d, want 0/%d", bs2.Built, bs2.Reused, bs.Partitions)
	}
	// The Results column rode along byte for byte, and replaying it over
	// the recoded partitions answers as before.
	ssAfter, answersAfter, columnsAfter := replayed()
	if ssAfter.Plan != ssBefore.Plan || ssAfter.Replayed != ssBefore.Replayed {
		t.Errorf("after recode: plan %+v with %d replays, before %+v with %d", ssAfter.Plan, ssAfter.Replayed, ssBefore.Plan, ssBefore.Replayed)
	}
	if !reflect.DeepEqual(columnsAfter, columnsBefore) {
		t.Error("recode changed a sidecar's result codes")
	}
	if !reflect.DeepEqual(answersAfter, answersBefore) {
		t.Errorf("replayed answers changed across the recode:\n got %+v\nwant %+v", answersAfter, answersBefore)
	}

	// Stat reflects the new codec.
	infos, err := evstore.Stat(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, info := range infos {
		if info.Codec != "raw" {
			t.Fatalf("%s: codec %q after recode to raw", info.Path, info.Codec)
		}
	}

	// Recoding again is a no-op: everything already raw.
	rs2, err := evstore.Recode(context.Background(), dir, evstore.CodecRaw)
	if err != nil {
		t.Fatal(err)
	}
	if rs2.Recoded != 0 || rs2.Skipped != rs.Partitions {
		t.Fatalf("second recode not a no-op: %+v", rs2)
	}
}

// TestLegacyV1Rejected pins the one-format contract: a partition whose
// magic is the retired "EVP1" is refused with the bad-magic error, and
// one whose magic is the retired "EVP2" by name, by every reader (scan,
// stat, recode), never misread as v3; a sidecar whose magic is the
// retired "EVS1" is an unreadable sidecar, which the next build pass
// replaces.
func TestLegacyV1Rejected(t *testing.T) {
	dir := ingestCodec(t, stream.FromSlice(liveEvents(testDay, "rrc00", 0, 64)), evstore.CodecLZ)
	parts, err := filepath.Glob(filepath.Join(dir, "*"+evstore.Extension))
	if err != nil || len(parts) != 1 {
		t.Fatalf("partitions %v (%v), want one", parts, err)
	}
	bs, err := evstore.BuildSnapshots(context.Background(), dir, snapNamed())
	if err != nil || bs.Built != 1 {
		t.Fatalf("build: %+v, %v", bs, err)
	}
	overwriteMagic := func(path, magic string) {
		t.Helper()
		f, err := os.OpenFile(path, os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := f.WriteAt([]byte(magic), 0); err != nil {
			t.Fatal(err)
		}
	}

	for _, retired := range []string{"EVS1", "EVS2"} {
		overwriteMagic(evstore.SnapshotPath(parts[0]), retired)
		if _, err := evstore.ReadSnapshot(parts[0]); err == nil || !strings.Contains(err.Error(), "bad snapshot magic") {
			t.Errorf("%s sidecar read: %v, want bad snapshot magic", retired, err)
		}
		bs, err = evstore.BuildSnapshots(context.Background(), dir, snapNamed())
		if err != nil || bs.Built != 1 || bs.Reused != 0 {
			t.Errorf("build over an %s sidecar: %+v, %v; want it rebuilt", retired, bs, err)
		}
		if _, err := evstore.ReadSnapshot(parts[0]); err != nil {
			t.Errorf("rebuilt sidecar unreadable: %v", err)
		}
	}

	// EVP1 is any foreign magic; EVP2, the format before column chunks,
	// is refused by name.
	for _, retired := range []struct{ magic, want string }{
		{"EVP1", "bad partition magic"},
		{"EVP2", "partition format EVP2 is retired"},
	} {
		overwriteMagic(parts[0], retired.magic)
		var scanErr error
		if n := stream.Count(evstore.Scan(dir, evstore.Query{}, &scanErr)); n != 0 || scanErr == nil || !strings.Contains(scanErr.Error(), retired.want) {
			t.Errorf("%s scan yielded %d events, err %v; want %s", retired.magic, n, scanErr, retired.want)
		}
		if _, err := evstore.Stat(dir); err == nil || !strings.Contains(err.Error(), retired.want) {
			t.Errorf("%s stat: %v, want %s", retired.magic, err, retired.want)
		}
		if _, err := evstore.ScanParallel(context.Background(), dir, evstore.Query{}, evstore.TimeRange{}, 1, analysis.NewCounts()); err == nil || !strings.Contains(err.Error(), retired.want) {
			t.Errorf("%s analysis scan: %v, want %s", retired.magic, err, retired.want)
		}
		if _, err := evstore.Recode(context.Background(), dir, evstore.CodecLZ); err == nil || !strings.Contains(err.Error(), retired.want) {
			t.Errorf("%s recode: %v, want %s", retired.magic, err, retired.want)
		}
	}
}

// TestRecodeThereAndBack recodes lz → raw → lz and pins
// classification plus event-level fidelity throughout, and that raw →
// lz really compresses: the store ends lz again, every partition at its
// original size, and a further lz pass rewrites nothing.
func TestRecodeThereAndBack(t *testing.T) {
	cfg := smallDayConfig()
	dir := ingestCodec(t, workload.MultiDaySource(cfg, 1), evstore.CodecLZ)
	want := stream.Collect(evstore.Scan(dir, evstore.Query{}, nil))
	layout := func() map[string]string {
		t.Helper()
		infos, err := evstore.Stat(dir)
		if err != nil {
			t.Fatal(err)
		}
		m := make(map[string]string, len(infos))
		for _, info := range infos {
			m[filepath.Base(info.Path)] = fmt.Sprintf("%s %d", info.Codec, info.SizeBytes)
		}
		return m
	}
	original := layout()

	for _, codec := range []evstore.Codec{evstore.CodecRaw, evstore.CodecLZ} {
		rs, err := evstore.Recode(context.Background(), dir, codec)
		if err != nil {
			t.Fatalf("recode to %v: %v", codec, err)
		}
		if rs.Recoded == 0 || rs.Workers < 1 {
			t.Fatalf("recode to %v rewrote nothing: %+v", codec, rs)
		}
		var scanErr error
		got := stream.Collect(evstore.Scan(dir, evstore.Query{}, &scanErr))
		if scanErr != nil {
			t.Fatalf("after recode to %v: %v", codec, scanErr)
		}
		if len(got) != len(want) {
			t.Fatalf("after recode to %v: %d of %d events", codec, len(got), len(want))
		}
		for i := range want {
			if !eventsEqual(got[i], want[i]) {
				t.Fatalf("after recode to %v: event %d diverged", codec, i)
			}
		}
	}
	if got := layout(); !reflect.DeepEqual(got, original) {
		t.Errorf("lz → raw → lz layout (codec, bytes) per partition:\n got %v\nwant %v", got, original)
	}
	rs, err := evstore.Recode(context.Background(), dir, evstore.CodecLZ)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Recoded != 0 || rs.Skipped != rs.Partitions || rs.BytesOut != rs.BytesIn {
		t.Errorf("second lz pass not a no-op: %+v", rs)
	}
}

// TestWriterCodecValidation pins that an invalid codec — unassigned or
// the retired id 1 — fails the ingest instead of writing unreadable
// blocks.
func TestWriterCodecValidation(t *testing.T) {
	for _, codec := range []evstore.Codec{1, 42} {
		w, err := evstore.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		w.Codec = codec
		w.BlockEvents = 16 // flush during Ingest, not only at Close
		err = w.Ingest(workload.MultiDaySource(smallDayConfig(), 1))
		if err == nil {
			err = w.Close()
		}
		if err == nil {
			t.Fatalf("ingest with codec %d succeeded", codec)
		}
		w.Abort()
	}
}

// TestRetiredDeflateRefused pins the retirement of codec id 1: the id
// is reserved, not reused, so a partition whose footer says a block is
// deflate-coded is refused by name on every read path — never decoded
// as something else — and the name no longer parses.
func TestRetiredDeflateRefused(t *testing.T) {
	const named = "codec deflate (id 1) is retired"
	if _, err := evstore.ParseCodec("deflate"); err == nil || !strings.Contains(err.Error(), named) {
		t.Errorf("ParseCodec(deflate): %v, want the named refusal", err)
	}

	dir := ingestCodec(t, stream.FromSlice(liveEvents(testDay, "rrc00", 0, 64)), evstore.CodecLZ)
	parts, err := filepath.Glob(filepath.Join(dir, "*"+evstore.Extension))
	if err != nil || len(parts) != 1 {
		t.Fatalf("partitions %v (%v), want one", parts, err)
	}
	// Footer: magic, block count, then per block offset, ulen, clen (all
	// uvarints) and the codec byte, and last the CRC32C; the trailer's
	// first four bytes give the footer's length.
	raw, err := os.ReadFile(parts[0])
	if err != nil {
		t.Fatal(err)
	}
	flen := int(binary.LittleEndian.Uint32(raw[len(raw)-8:]))
	at := len(raw) - 8 - flen + 4
	for range 4 {
		_, n := binary.Uvarint(raw[at:])
		at += n
	}
	if evstore.Codec(raw[at]) != evstore.CodecLZ {
		t.Fatalf("byte %d is %d, not the first block's lz codec id", at, raw[at])
	}
	raw[at] = 1
	// The footer ends in the CRC32C of the bytes before it: a footer
	// that says deflate is one whose checksum agrees.
	crcAt := len(raw) - 12
	binary.LittleEndian.PutUint32(raw[crcAt:], crc32.Checksum(raw[len(raw)-8-flen:crcAt], crc32.MakeTable(crc32.Castagnoli)))
	if err := os.WriteFile(parts[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}

	refused := func(path string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), named) {
			t.Errorf("%s: %v, want the named refusal", path, err)
		}
	}
	var scanErr error
	if n := stream.Count(evstore.Scan(dir, evstore.Query{}, &scanErr)); n != 0 {
		t.Errorf("row scan yielded %d events from a deflate-marked block", n)
	}
	refused("Scan", scanErr)
	_, err = evstore.ScanParallel(context.Background(), dir, evstore.Query{}, evstore.TimeRange{}, 1, analysis.NewCounts())
	refused("ScanParallel", err)
	_, _, err = evstore.OpenSnapshotIndex(context.Background(), dir, snapNamed())
	refused("OpenSnapshotIndex", err)
	_, err = evstore.Recode(context.Background(), dir, evstore.CodecRaw)
	refused("Recode", err)
}
