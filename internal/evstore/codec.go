package evstore

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"

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
	// CodecDeflate is compress/flate at BestSpeed. Densest, slowest to
	// decode.
	CodecDeflate Codec = 1
	// CodecLZ is the in-repo LZ4-style codec (internal/lz): slightly
	// larger blocks than deflate, several times faster to decompress.
	CodecLZ Codec = 2

	// NumCodecs bounds the valid codec ids — also the length of
	// ScanStats.PerCodec.
	NumCodecs = 3
)

// DefaultCodec is what Open configures on new writers.
const DefaultCodec = CodecLZ

func (c Codec) String() string {
	switch c {
	case CodecRaw:
		return "raw"
	case CodecDeflate:
		return "deflate"
	case CodecLZ:
		return "lz"
	}
	return fmt.Sprintf("codec(%d)", uint8(c))
}

func (c Codec) valid() bool { return c < NumCodecs }

// ParseCodec maps a codec name ("raw", "deflate", "lz") to its id.
func ParseCodec(s string) (Codec, error) {
	for c := Codec(0); c < NumCodecs; c++ {
		if c.String() == s {
			return c, nil
		}
	}
	return 0, fmt.Errorf("evstore: unknown codec %q (want raw, deflate, or lz)", s)
}

// blockCompressor holds the encode-side state for every codec; one
// instance serves a writer's sequential flushes. The slice returned by
// compress is valid until the next call.
type blockCompressor struct {
	flate *flate.Writer
	fbuf  bytes.Buffer
	enc   lz.Encoder
	lbuf  []byte
}

// compress encodes payload under the requested codec and returns the
// bytes to store plus the codec id to record. A compressed form at
// least as large as the input falls back to CodecRaw — per-block codec
// dispatch makes the fallback free for readers.
func (bc *blockCompressor) compress(c Codec, payload []byte) ([]byte, Codec, error) {
	switch c {
	case CodecRaw:
		return payload, CodecRaw, nil
	case CodecDeflate:
		bc.fbuf.Reset()
		if bc.flate == nil {
			fw, err := flate.NewWriter(&bc.fbuf, flate.BestSpeed)
			if err != nil {
				return nil, 0, err
			}
			bc.flate = fw
		} else {
			bc.flate.Reset(&bc.fbuf)
		}
		if _, err := bc.flate.Write(payload); err != nil {
			return nil, 0, err
		}
		if err := bc.flate.Close(); err != nil {
			return nil, 0, err
		}
		if bc.fbuf.Len() >= len(payload) {
			return payload, CodecRaw, nil
		}
		return bc.fbuf.Bytes(), CodecDeflate, nil
	case CodecLZ:
		bc.lbuf = bc.enc.Compress(bc.lbuf[:0], payload)
		if len(bc.lbuf) >= len(payload) {
			return payload, CodecRaw, nil
		}
		return bc.lbuf, CodecLZ, nil
	}
	return nil, 0, fmt.Errorf("evstore: unknown codec %d", c)
}

// blockDecompressor holds the decode-side state for every codec; safe
// to reuse across blocks, not across goroutines.
type blockDecompressor struct {
	src     bytes.Reader
	inflate io.ReadCloser
}

// decompress fills dst (sized to the block's uncompressed length) from
// the stored bytes of a block coded with c.
func (bd *blockDecompressor) decompress(c Codec, dst, src []byte) error {
	switch c {
	case CodecRaw:
		if len(src) != len(dst) {
			return fmt.Errorf("evstore: raw block length %d, footer says %d", len(src), len(dst))
		}
		copy(dst, src)
		return nil
	case CodecDeflate:
		bd.src.Reset(src)
		if bd.inflate == nil {
			bd.inflate = flate.NewReader(&bd.src)
		} else if err := bd.inflate.(flate.Resetter).Reset(&bd.src, nil); err != nil {
			return fmt.Errorf("evstore: inflate reset: %w", err)
		}
		if _, err := io.ReadFull(bd.inflate, dst); err != nil {
			return fmt.Errorf("evstore: inflate: %w", err)
		}
		return nil
	case CodecLZ:
		if err := lz.Decompress(dst, src); err != nil {
			return fmt.Errorf("evstore: %w", err)
		}
		return nil
	}
	return fmt.Errorf("evstore: unknown codec %d", c)
}
