package evstore

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/wire"
)

// RecodeStats summarizes one Recode pass.
type RecodeStats struct {
	Partitions int   // partition files considered
	Recoded    int   // partitions rewritten
	Skipped    int   // already in the target codec
	Blocks     int   // blocks written into recoded partitions
	BytesIn    int64 // partition file bytes before
	BytesOut   int64 // partition file bytes after
	Sidecars   int   // snapshot sidecars rewritten alongside
}

// Recode rewrites the store's partitions block-by-block into the
// target codec — how an existing store migrates (e.g. lz → raw)
// without re-ingesting. Per block it decompresses with the block's
// recorded codec and recompresses with the target (blocks already in
// the target codec, or stored raw by the fallback, are copied
// verbatim); footers, block summaries, and event payloads are
// preserved bit-for-bit, so scans over the recoded store classify
// identically.
//
// Partitions are never modified in place: each is rewritten to a temp
// file and atomically renamed over the original, so a concurrent scan
// sees either the old file or the new one, both complete. Snapshot
// sidecars that were valid before the recode are rewritten with the
// partition's new size and chain fingerprint (and the target body
// codec), every other field — analyzer states, result codes, classifier
// end state — carried over as read, so a following BuildSnapshots reuses
// them all — Built == 0.
func Recode(ctx context.Context, dir string, codec Codec) (RecodeStats, error) {
	var rs RecodeStats
	if err := codec.check(); err != nil {
		return rs, err
	}
	// Walk shards in BuildSnapshots order so the sidecar chain
	// fingerprints can be recomputed as sizes change.
	shards, err := ScanShards(dir, Query{})
	if err != nil {
		return rs, err
	}
	var rc recoder
	for _, sh := range shards {
		var oldChain, newChain uint64
		for _, entry := range sh.entries {
			if err := ctx.Err(); err != nil {
				return rs, err
			}
			rs.Partitions++
			base := filepath.Base(entry.path)
			p, f, err := readPartition(entry.path)
			if err != nil {
				return rs, err
			}
			oldSize := p.size
			// Read the sidecar before the partition is replaced.
			oldSnap, _ := ReadSnapshot(entry.path)
			oldChain = chainHash(oldChain, base, oldSize)

			needs := false
			for _, bm := range p.blocks {
				if bm.codec != codec && bm.codec != CodecRaw {
					needs = true
					break
				}
			}
			newSize := oldSize
			if needs {
				newSize, err = rc.recodePartition(ctx, p, f, codec, &rs)
				f.Close()
				if err != nil {
					return rs, err
				}
				rs.Recoded++
			} else {
				f.Close()
				rs.Skipped++
			}
			rs.BytesIn += oldSize
			rs.BytesOut += newSize
			newChain = chainHash(newChain, base, newSize)

			// A sidecar that was valid against the old chain stays
			// semantically valid — classification doesn't depend on
			// block codecs — so refresh its size/chain instead of
			// letting it go stale and rebuild.
			if oldSnap != nil && oldSnap.Chain == oldChain && oldSnap.Size == oldSize {
				oldSnap.Size = newSize
				oldSnap.Chain = newChain
				if err := writeSnapshotCodec(entry.path, oldSnap, codec); err != nil {
					return rs, err
				}
				rs.Sidecars++
			}
		}
	}
	return rs, nil
}

// recoder holds the buffers and codec state reused across a Recode
// pass.
type recoder struct {
	bc         blockCompressor
	cbuf, ubuf []byte
}

// recodePartition rewrites one partition into the target codec via
// temp+rename and returns the new file size.
func (rc *recoder) recodePartition(ctx context.Context, p *partition, f *os.File, codec Codec, rs *RecodeStats) (int64, error) {
	tmp, err := os.CreateTemp(filepath.Dir(p.path), "recode-*.evp-tmp")
	if err != nil {
		return 0, err
	}
	tmpPath := tmp.Name()
	fail := func(err error) (int64, error) {
		tmp.Close()
		os.Remove(tmpPath)
		return 0, fmt.Errorf("evstore: recode %s: %w", p.path, err)
	}

	bw := bufio.NewWriter(tmp)
	header := append([]byte(partitionMagicV2), byte(len(p.collector)))
	header = append(header, p.collector...)
	header = wire.AppendVarint(header, p.day.Unix())
	if _, err := bw.Write(header); err != nil {
		return fail(err)
	}
	off := int64(len(header))

	newBlocks := make([]blockMeta, 0, len(p.blocks))
	for _, bm := range p.blocks {
		if err := ctx.Err(); err != nil {
			return fail(err)
		}
		if cap(rc.cbuf) < bm.clen {
			rc.cbuf = make([]byte, bm.clen)
		}
		stored := rc.cbuf[:bm.clen]
		if _, err := f.ReadAt(stored, bm.offset); err != nil {
			return fail(err)
		}
		data, outCodec := stored, bm.codec
		if bm.codec != codec && bm.codec != CodecRaw {
			if cap(rc.ubuf) < bm.ulen {
				rc.ubuf = make([]byte, bm.ulen)
			}
			payload := rc.ubuf[:bm.ulen]
			if err := decompress(bm.codec, payload, stored); err != nil {
				return fail(err)
			}
			data, outCodec, err = rc.bc.compress(codec, payload)
			if err != nil {
				return fail(err)
			}
		}
		var frame [2*binary.MaxVarintLen64 + 1]byte
		k := binary.PutUvarint(frame[:], uint64(bm.ulen))
		k += binary.PutUvarint(frame[k:], uint64(len(data)))
		frame[k] = byte(outCodec)
		k++
		if _, err := bw.Write(frame[:k]); err != nil {
			return fail(err)
		}
		meta := blockMeta{offset: off + int64(k), ulen: bm.ulen, clen: len(data), codec: outCodec, sum: bm.sum}
		if _, err := bw.Write(data); err != nil {
			return fail(err)
		}
		off = meta.offset + int64(meta.clen)
		newBlocks = append(newBlocks, meta)
		rs.Blocks++
	}

	footer := appendFooter(nil, newBlocks)
	if _, err := bw.Write(footer); err != nil {
		return fail(err)
	}
	if err := bw.Flush(); err != nil {
		return fail(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpPath)
		return 0, fmt.Errorf("evstore: recode %s: %w", p.path, err)
	}
	if err := os.Rename(tmpPath, p.path); err != nil {
		os.Remove(tmpPath)
		return 0, err
	}
	return off + int64(len(footer)), nil
}
