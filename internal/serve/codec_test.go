package serve_test

import (
	"bytes"
	"net/netip"
	"strings"
	"testing"
	"time"

	"repro/internal/evstore"
	"repro/internal/serve"
)

// codecSpecs covers the QuerySpec shapes the protocol must carry: the
// zero spec, fully-loaded specs, and specs exercising each optional
// dimension alone (so a framing bug in one field can't hide behind the
// others).
func codecSpecs() []serve.QuerySpec {
	day := time.Date(2020, 3, 15, 0, 0, 0, 0, time.UTC)
	return []serve.QuerySpec{
		{},
		{Kind: serve.KindTable1},
		{Kind: serve.KindTable2, Window: evstore.TimeRange{From: day, To: day.Add(24 * time.Hour)}},
		{Kind: serve.KindTable2, Window: evstore.TimeRange{To: day}}, // half-open bound
		{Kind: serve.KindTable1, Collectors: []string{"rrc00", "route-views2", ""}},
		{Kind: serve.KindTable2, PeerAS: []uint32{0, 65535, 4200000000}},
		{Kind: serve.KindTable1, PrefixRange: netip.MustParsePrefix("10.0.0.0/8")},
		{Kind: serve.KindFigure2, FromYear: 2018, ToYear: 2020},
		{
			Kind:      serve.KindFigure3,
			Collector: "rrc00",
			Prefix:    netip.MustParsePrefix("2001:db8::/32"),
		},
		{
			Kind:      serve.KindFigure5,
			Window:    evstore.TimeRange{From: day, To: day.Add(time.Hour)},
			Collector: "rrc00",
			Prefix:    netip.MustParsePrefix("192.0.2.0/24"),
			PeerAddr:  netip.MustParseAddr("198.51.100.7"),
			Path:      "64500 64501 64502",
		},
	}
}

func codecEnvelopes() []*serve.StateEnvelope {
	return []*serve.StateEnvelope{
		{},
		{
			Backend:    "local",
			Generation: 0xdeadbeefcafe,
			Source:     "snapshots",
			Elapsed:    1234567 * time.Nanosecond,
			Plan:       evstore.PlanStats{Shards: 4, Partitions: 12, Merged: 3, Jumped: 2, Scanned: 7, Skipped: 5},
			Scan: evstore.ScanStats{
				Partitions: 7, Blocks: 40, BlocksPruned: 2, BlocksDecoded: 38,
				BytesRead: 300000, BytesDecompressed: 1 << 20,
				PerCodec: [evstore.NumCodecs]evstore.CodecScanStats{
					evstore.CodecLZ:  {Blocks: 30, BytesRead: 250000, BytesDecompressed: 900000},
					evstore.CodecRaw: {Blocks: 8, BytesRead: 50000, BytesDecompressed: 50000},
				},
				Events: 99999,
			},
			Merges: 6,
			Keys:   []string{"table1", "", "revealed:ripe"},
			States: [][]byte{{1, 2, 3}, nil, bytes.Repeat([]byte{0xab}, 300)},
			Shards: []serve.ShardProvenance{
				{Backend: "http://127.0.0.1:9001", Generation: 7, Source: "scan", Elapsed: time.Millisecond},
				{Backend: "http://127.0.0.1:9002", Source: "", Err: "connection refused"},
			},
		},
	}
}

// TestQuerySpecRoundTrip: decode(encode(spec)) re-encodes to identical
// bytes — the canonical-form check that catches both decode drift and
// non-deterministic encoding.
func TestQuerySpecRoundTrip(t *testing.T) {
	for i, spec := range codecSpecs() {
		enc := serve.AppendQuerySpec(nil, spec)
		got, err := serve.DecodeQuerySpec(enc)
		if err != nil {
			t.Fatalf("spec %d: decode: %v", i, err)
		}
		re := serve.AppendQuerySpec(nil, got)
		if !bytes.Equal(enc, re) {
			t.Fatalf("spec %d: re-encode differs\n enc %x\n re  %x", i, enc, re)
		}
		if got.CacheKey() != spec.CacheKey() {
			t.Fatalf("spec %d: cache key drifted across the wire: %q vs %q",
				i, got.CacheKey(), spec.CacheKey())
		}
	}
}

// TestStateEnvelopeRoundTrip: same canonical-form check for the
// response side of the protocol.
func TestStateEnvelopeRoundTrip(t *testing.T) {
	for i, env := range codecEnvelopes() {
		enc := serve.AppendStateEnvelope(nil, env)
		got, err := serve.DecodeStateEnvelope(enc)
		if err != nil {
			t.Fatalf("envelope %d: decode: %v", i, err)
		}
		re := serve.AppendStateEnvelope(nil, got)
		if !bytes.Equal(enc, re) {
			t.Fatalf("envelope %d: re-encode differs\n enc %x\n re  %x", i, enc, re)
		}
		if len(got.Keys) != len(env.Keys) {
			t.Fatalf("envelope %d: %d keys, want %d", i, len(got.Keys), len(env.Keys))
		}
		for j := range got.Keys {
			if got.Keys[j] != env.Keys[j] || !bytes.Equal(got.States[j], env.States[j]) {
				t.Fatalf("envelope %d: state %d differs", i, j)
			}
		}
	}
}

// TestStateEnvelopeRefusesOldMagic: a body framed as the previous
// envelope version (CSE2, which carried one more scan counter) is
// refused on its magic, and the error names the magic it found, so a
// coordinator talking to a shard from another release says why.
func TestStateEnvelopeRefusesOldMagic(t *testing.T) {
	enc := serve.AppendStateEnvelope(nil, codecEnvelopes()[1])
	if string(enc[:4]) != "CSE3" {
		t.Fatalf("envelope magic %q, want CSE3", enc[:4])
	}
	old := append([]byte("CSE2"), enc[4:]...)
	_, err := serve.DecodeStateEnvelope(old)
	if err == nil {
		t.Fatal("CSE2 envelope decoded cleanly")
	}
	if !strings.Contains(err.Error(), `"CSE2"`) {
		t.Fatalf("error %q does not name the CSE2 magic", err)
	}
}

// TestCodecRejectsCorruption: every truncation of a valid message must
// decode to an error (never a silent misparse), trailing garbage must
// be rejected, and no single-byte flip may panic the decoder.
func TestCodecRejectsCorruption(t *testing.T) {
	specEnc := serve.AppendQuerySpec(nil, codecSpecs()[9])
	envEnc := serve.AppendStateEnvelope(nil, codecEnvelopes()[1])

	for n := 0; n < len(specEnc); n++ {
		if _, err := serve.DecodeQuerySpec(specEnc[:n]); err == nil {
			t.Fatalf("spec truncated to %d/%d bytes decoded cleanly", n, len(specEnc))
		}
	}
	for n := 0; n < len(envEnc); n++ {
		if _, err := serve.DecodeStateEnvelope(envEnc[:n]); err == nil {
			t.Fatalf("envelope truncated to %d/%d bytes decoded cleanly", n, len(envEnc))
		}
	}

	if _, err := serve.DecodeQuerySpec(append(append([]byte(nil), specEnc...), 0x00)); err == nil {
		t.Fatal("spec with trailing byte decoded cleanly")
	}
	if _, err := serve.DecodeStateEnvelope(append(append([]byte(nil), envEnc...), 0xff)); err == nil {
		t.Fatal("envelope with trailing byte decoded cleanly")
	}

	// Byte flips: a flip may land inside string content and still decode
	// (that's fine — the protocol has no checksum); the requirement is
	// that the decoder never panics and never over-reads.
	flip := func(b []byte, i int) []byte {
		c := append([]byte(nil), b...)
		c[i] ^= 0x40
		return c
	}
	for i := range specEnc {
		serve.DecodeQuerySpec(flip(specEnc, i))
	}
	for i := range envEnc {
		serve.DecodeStateEnvelope(flip(envEnc, i))
	}
}
