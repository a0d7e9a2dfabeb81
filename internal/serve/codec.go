package serve

import (
	"fmt"
	"time"

	"repro/internal/evstore"
	"repro/internal/wire"
)

// Wire codecs for the coordinator↔shard protocol: a QuerySpec is the
// POST /v1/state request body, a StateEnvelope the response. Both are
// built on the internal/wire primitives (magic header, varint framing,
// sticky-error reads) so a truncated or corrupt message is an error —
// never a silent misparse — and trailing garbage is rejected so a
// framing bug cannot hide behind a successful decode.

const (
	specMagic = "CSQ1" // Comm Serve Query v1
	// v2 extended ScanStats with the codec-era counters (bytes read,
	// per-codec split); v3 drops v2's count of blocks read ahead of
	// their decode, since a scan now reads each block only as it
	// decodes it. Coordinator and shards are deployed together, so the
	// envelope has no cross-version decode path: a mixed fleet fails
	// loudly on the magic instead of misparsing.
	envelopeMagic = "CSE3" // Comm Serve Envelope v3

	// maxSpecBytes bounds a /v1/state request body; specs are tiny, so
	// anything near this is garbage.
	maxSpecBytes = 1 << 20
	// maxEnvelopeBytes bounds a shard response read. Analyzer states
	// scale with distinct sessions/prefixes, not events, so even
	// archive-scale stores stay far below this.
	maxEnvelopeBytes = 1 << 30
)

// appendTimeOpt encodes a possibly-zero time. wire.AppendTime encodes
// UnixNano, under which the zero time.Time is not representable, so
// optional bounds carry a presence byte.
func appendTimeOpt(dst []byte, t time.Time) []byte {
	if t.IsZero() {
		return append(dst, 0)
	}
	dst = append(dst, 1)
	return wire.AppendTime(dst, t)
}

func readTimeOpt(r *wire.Reader) time.Time {
	b := r.Bytes(1)
	if r.Err() != nil || b[0] == 0 {
		if r.Err() == nil && b[0] != 0 && b[0] != 1 {
			r.Fail("serve: bad time presence byte %d", b[0])
		}
		return time.Time{}
	}
	if b[0] != 1 {
		r.Fail("serve: bad time presence byte %d", b[0])
		return time.Time{}
	}
	return r.Time()
}

// AppendQuerySpec encodes a spec for the wire.
func AppendQuerySpec(dst []byte, spec QuerySpec) []byte {
	dst = append(dst, specMagic...)
	dst = wire.AppendString(dst, spec.Kind)
	dst = appendTimeOpt(dst, spec.Window.From)
	dst = appendTimeOpt(dst, spec.Window.To)
	dst = wire.AppendUvarint(dst, uint64(len(spec.Collectors)))
	for _, c := range spec.Collectors {
		dst = wire.AppendString(dst, c)
	}
	dst = wire.AppendUvarint(dst, uint64(len(spec.PeerAS)))
	for _, as := range spec.PeerAS {
		dst = wire.AppendUvarint(dst, uint64(as))
	}
	dst = wire.AppendPrefix(dst, spec.PrefixRange)
	dst = wire.AppendVarint(dst, int64(spec.FromYear))
	dst = wire.AppendVarint(dst, int64(spec.ToYear))
	dst = wire.AppendString(dst, spec.Collector)
	dst = wire.AppendPrefix(dst, spec.Prefix)
	dst = wire.AppendAddr(dst, spec.PeerAddr)
	dst = wire.AppendString(dst, spec.Path)
	return dst
}

// DecodeQuerySpec decodes an AppendQuerySpec message, rejecting
// truncation, bad framing, and trailing bytes.
func DecodeQuerySpec(b []byte) (QuerySpec, error) {
	var spec QuerySpec
	r := wire.NewReader(b)
	if string(r.Bytes(len(specMagic))) != specMagic {
		return spec, fmt.Errorf("%w: bad query-spec magic", ErrBadSpec)
	}
	spec.Kind = r.String()
	spec.Window.From = readTimeOpt(r)
	spec.Window.To = readTimeOpt(r)
	if n := r.Count(1); n > 0 {
		spec.Collectors = make([]string, n)
		for i := range spec.Collectors {
			spec.Collectors[i] = r.String()
		}
	}
	if n := r.Count(1); n > 0 {
		spec.PeerAS = make([]uint32, n)
		for i := range spec.PeerAS {
			spec.PeerAS[i] = uint32(r.Uvarint())
		}
	}
	spec.PrefixRange = r.Prefix()
	spec.FromYear = int(r.Varint())
	spec.ToYear = int(r.Varint())
	spec.Collector = r.String()
	spec.Prefix = r.Prefix()
	spec.PeerAddr = r.Addr()
	spec.Path = r.String()
	if err := r.Err(); err != nil {
		return QuerySpec{}, fmt.Errorf("%w: decode: %w", ErrBadSpec, err)
	}
	if r.Remaining() != 0 {
		return QuerySpec{}, fmt.Errorf("%w: %d trailing bytes", ErrBadSpec, r.Remaining())
	}
	return spec, nil
}

func appendPlanStats(dst []byte, p evstore.PlanStats) []byte {
	dst = wire.AppendUvarint(dst, uint64(p.Shards))
	dst = wire.AppendUvarint(dst, uint64(p.Partitions))
	dst = wire.AppendUvarint(dst, uint64(p.Merged))
	dst = wire.AppendUvarint(dst, uint64(p.Jumped))
	dst = wire.AppendUvarint(dst, uint64(p.Scanned))
	dst = wire.AppendUvarint(dst, uint64(p.Skipped))
	return dst
}

func readPlanStats(r *wire.Reader) evstore.PlanStats {
	var p evstore.PlanStats
	p.Shards = int(r.Uvarint())
	p.Partitions = int(r.Uvarint())
	p.Merged = int(r.Uvarint())
	p.Jumped = int(r.Uvarint())
	p.Scanned = int(r.Uvarint())
	p.Skipped = int(r.Uvarint())
	return p
}

func appendScanStats(dst []byte, s evstore.ScanStats) []byte {
	dst = wire.AppendUvarint(dst, uint64(s.Partitions))
	dst = wire.AppendUvarint(dst, uint64(s.PartitionsPruned))
	dst = wire.AppendUvarint(dst, uint64(s.Blocks))
	dst = wire.AppendUvarint(dst, uint64(s.BlocksPruned))
	dst = wire.AppendUvarint(dst, uint64(s.BlocksDecoded))
	dst = wire.AppendVarint(dst, s.BytesRead)
	dst = wire.AppendVarint(dst, s.BytesDecompressed)
	// Length-prefixed per-codec split, so growing NumCodecs is a codec
	// change the reader detects rather than a silent misparse.
	dst = wire.AppendUvarint(dst, uint64(len(s.PerCodec)))
	for _, pc := range s.PerCodec {
		dst = wire.AppendUvarint(dst, uint64(pc.Blocks))
		dst = wire.AppendVarint(dst, pc.BytesRead)
		dst = wire.AppendVarint(dst, pc.BytesDecompressed)
	}
	dst = wire.AppendUvarint(dst, uint64(s.Events))
	return dst
}

func readScanStats(r *wire.Reader) evstore.ScanStats {
	var s evstore.ScanStats
	s.Partitions = int(r.Uvarint())
	s.PartitionsPruned = int(r.Uvarint())
	s.Blocks = int(r.Uvarint())
	s.BlocksPruned = int(r.Uvarint())
	s.BlocksDecoded = int(r.Uvarint())
	s.BytesRead = r.Varint()
	s.BytesDecompressed = r.Varint()
	if n := r.Count(1); r.Err() == nil && n != len(s.PerCodec) {
		r.Fail("serve: scan stats carry %d codec slots, want %d", n, len(s.PerCodec))
	} else {
		for i := 0; i < n && r.Err() == nil; i++ {
			s.PerCodec[i].Blocks = int(r.Uvarint())
			s.PerCodec[i].BytesRead = r.Varint()
			s.PerCodec[i].BytesDecompressed = r.Varint()
		}
	}
	s.Events = int(r.Uvarint())
	return s
}

// AppendStateEnvelope encodes an envelope for the wire.
func AppendStateEnvelope(dst []byte, env *StateEnvelope) []byte {
	dst = append(dst, envelopeMagic...)
	dst = wire.AppendString(dst, env.Backend)
	dst = wire.AppendUvarint(dst, env.Generation)
	dst = wire.AppendString(dst, env.Source)
	dst = wire.AppendVarint(dst, int64(env.Elapsed))
	dst = appendPlanStats(dst, env.Plan)
	dst = appendScanStats(dst, env.Scan)
	dst = wire.AppendUvarint(dst, uint64(env.Merges))
	dst = wire.AppendUvarint(dst, uint64(len(env.Keys)))
	for i, k := range env.Keys {
		dst = wire.AppendString(dst, k)
		dst = wire.AppendBytes(dst, env.States[i])
	}
	dst = wire.AppendUvarint(dst, uint64(len(env.Shards)))
	for _, p := range env.Shards {
		dst = wire.AppendString(dst, p.Backend)
		dst = wire.AppendUvarint(dst, p.Generation)
		dst = wire.AppendString(dst, p.Source)
		dst = wire.AppendVarint(dst, int64(p.Elapsed))
		dst = wire.AppendString(dst, p.Err)
	}
	return dst
}

// DecodeStateEnvelope decodes an AppendStateEnvelope message with the
// same strictness as DecodeQuerySpec.
func DecodeStateEnvelope(b []byte) (*StateEnvelope, error) {
	r := wire.NewReader(b)
	if magic := string(r.Bytes(len(envelopeMagic))); magic != envelopeMagic {
		return nil, fmt.Errorf("serve: bad state-envelope magic %q, want %q", magic, envelopeMagic)
	}
	env := &StateEnvelope{}
	env.Backend = r.String()
	env.Generation = r.Uvarint()
	env.Source = r.String()
	env.Elapsed = time.Duration(r.Varint())
	env.Plan = readPlanStats(r)
	env.Scan = readScanStats(r)
	env.Merges = int(r.Uvarint())
	if n := r.Count(1); n > 0 && r.Err() == nil {
		env.Keys = make([]string, 0, n)
		env.States = make([][]byte, 0, n)
		for i := 0; i < n && r.Err() == nil; i++ {
			env.Keys = append(env.Keys, r.String())
			st := r.Bytes(r.Count(1))
			env.States = append(env.States, append([]byte(nil), st...))
		}
	}
	if n := r.Count(1); n > 0 && r.Err() == nil {
		env.Shards = make([]ShardProvenance, 0, n)
		for i := 0; i < n && r.Err() == nil; i++ {
			var p ShardProvenance
			p.Backend = r.String()
			p.Generation = r.Uvarint()
			p.Source = r.String()
			p.Elapsed = time.Duration(r.Varint())
			p.Err = r.String()
			env.Shards = append(env.Shards, p)
		}
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("serve: decode state envelope: %w", err)
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("serve: state envelope has %d trailing bytes", r.Remaining())
	}
	return env, nil
}
