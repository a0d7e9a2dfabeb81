package evstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/lz"
)

// Codec identifies a chunk compression codec. The numeric values are
// the on-disk codec ids of every chunk and footer block entry (and of
// sidecar bodies) and must never be renumbered.
type Codec uint8

const (
	// CodecRaw stores the bytes uncompressed. Also the automatic
	// fallback when a compressor fails to shrink them.
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

// partitionMagicV2 is the retired format before column chunks; no build
// converts it, so errPartitionV2Retired says what to do instead.
const partitionMagicV2 = "EVP2"

var errPartitionV2Retired = errors.New("evstore: partition format EVP2 is retired; this build reads EVP3 — re-ingest the store from its sources")

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
// least as large as the input falls back to CodecRaw — per-chunk codec
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

// appendBlock frames rb as a stored block onto dst: the head, then each
// chunk compressed under c by compressChunk's rule. It returns the
// block's codec for the footer: c when any chunk is stored under it,
// else raw.
func (bc *blockCompressor) appendBlock(dst []byte, rb *rawBlock, c Codec) ([]byte, Codec, error) {
	dir := len(dst) + 4
	dst = binary.LittleEndian.AppendUint32(dst, uint32(rb.n))
	dst = append(dst, emptyDir[:]...)
	block := CodecRaw
	for col := range numColumns {
		body := rb.chunk(col)
		data, cc, err := bc.compressChunk(c, body)
		if err != nil {
			return dst, 0, err
		}
		putDirEntry(dst[dir+int(col)*dirEntryLen:], col, cc, len(body), len(data), crc32.Checksum(body, castagnoli))
		dst = append(dst, data...)
		if cc != CodecRaw {
			block = cc
		}
	}
	return dst, block, nil
}

// compressChunk is compress with the rule a chunk is stored by: a
// compressed form that saves less than 1/minChunkSaving of the chunk is
// stored raw, since every read of the chunk would pay a decompression
// for it. Times and id chunks mostly land there, dictionaries never.
func (bc *blockCompressor) compressChunk(c Codec, raw []byte) ([]byte, Codec, error) {
	data, cc, err := bc.compress(c, raw)
	if cc != CodecRaw && len(data) > len(raw)-len(raw)/minChunkSaving {
		return raw, CodecRaw, err
	}
	return data, cc, err
}

// minChunkSaving sets compressChunk's threshold: 1/16 of a chunk.
const minChunkSaving = 16

// emptyDir reserves a directory for appendBlock to fill in.
var emptyDir [headLen - 4]byte

// putDirEntry writes one chunk-directory entry into e.
func putDirEntry(e []byte, col column, c Codec, raw, stored int, crc uint32) {
	e[0], e[1] = byte(col), byte(c)
	binary.LittleEndian.PutUint32(e[2:], uint32(raw))
	binary.LittleEndian.PutUint32(e[6:], uint32(stored))
	binary.LittleEndian.PutUint32(e[10:], crc)
}
