package evstore

import (
	"errors"
	"fmt"

	"repro/internal/lz"
)

// Codec identifies a block payload compression codec. The numeric
// values are the on-disk per-block codec ids of the v2 partition
// format and must never be renumbered.
type Codec uint8

const (
	// CodecRaw stores the payload uncompressed. Also the automatic
	// fallback when a compressor fails to shrink a block.
	CodecRaw Codec = 0
	// codecDeflate was DEFLATE at BestSpeed: 10% denser than lz
	// on live-sized blocks, 27% slower to scan, and set by no caller.
	// Retired; the id stays reserved so it can never mean anything else.
	codecDeflate Codec = 1
	// CodecLZ is the in-repo LZ4-style codec (internal/lz).
	CodecLZ Codec = 2

	// NumCodecs bounds the codec ids ever assigned — the length of
	// ScanStats.PerCodec and the CSE2 per-codec slot count.
	NumCodecs = 3
)

// DefaultCodec is what Open configures on new writers.
const DefaultCodec = CodecLZ

var errDeflateRetired = errors.New("evstore: codec deflate (id 1) is retired; recode the store with a build at or before 0ebe2db")

func (c Codec) String() string {
	switch c {
	case CodecRaw:
		return "raw"
	case CodecLZ:
		return "lz"
	}
	return fmt.Sprintf("codec(%d)", uint8(c))
}

// check reports whether this build reads and writes c.
func (c Codec) check() error {
	switch c {
	case CodecRaw, CodecLZ:
		return nil
	case codecDeflate:
		return errDeflateRetired
	}
	return fmt.Errorf("evstore: unknown codec %d", c)
}

// ParseCodec maps a codec name ("raw", "lz") to its id.
func ParseCodec(s string) (Codec, error) {
	switch s {
	case "raw":
		return CodecRaw, nil
	case "lz":
		return CodecLZ, nil
	case "deflate":
		return 0, errDeflateRetired
	}
	return 0, fmt.Errorf("evstore: unknown codec %q (want raw or lz)", s)
}

// blockCompressor holds the encode-side state; one instance serves a
// writer's sequential flushes. The slice returned by compress is valid
// until the next call.
type blockCompressor struct {
	enc  lz.Encoder
	lbuf []byte
}

// compress encodes payload under the requested codec and returns the
// bytes to store plus the codec id to record. A compressed form at
// least as large as the input falls back to CodecRaw — per-block codec
// dispatch makes the fallback free for readers.
func (bc *blockCompressor) compress(c Codec, payload []byte) ([]byte, Codec, error) {
	switch c {
	case CodecRaw:
		return payload, CodecRaw, nil
	case CodecLZ:
		bc.lbuf = bc.enc.Compress(bc.lbuf[:0], payload)
		if len(bc.lbuf) >= len(payload) {
			return payload, CodecRaw, nil
		}
		return bc.lbuf, CodecLZ, nil
	}
	return nil, 0, c.check()
}

// decompress fills dst (sized to the block's uncompressed length) from
// the stored bytes of a block coded with c.
func decompress(c Codec, dst, src []byte) error {
	switch c {
	case CodecRaw:
		if len(src) != len(dst) {
			return fmt.Errorf("evstore: raw block length %d, footer says %d", len(src), len(dst))
		}
		copy(dst, src)
		return nil
	case CodecLZ:
		if err := lz.Decompress(dst, src); err != nil {
			return fmt.Errorf("evstore: %w", err)
		}
		return nil
	}
	return c.check()
}
