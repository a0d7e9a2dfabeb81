package evstore

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/wire"
)

// RecodeStats summarizes one Recode pass.
type RecodeStats struct {
	Partitions int   // partition files considered
	Recoded    int   // partitions rewritten
	Skipped    int   // no block would change codec
	Blocks     int   // blocks written into recoded partitions
	BytesIn    int64 // partition file bytes before
	BytesOut   int64 // partition file bytes after
	Sidecars   int   // snapshot sidecars rewritten alongside
	Workers    int   // size of the pool the pass ran on
}

// add sums another shard's counts into s (Workers is the pass's own).
func (s *RecodeStats) add(o RecodeStats) {
	s.Partitions += o.Partitions
	s.Recoded += o.Recoded
	s.Skipped += o.Skipped
	s.Blocks += o.Blocks
	s.BytesIn += o.BytesIn
	s.BytesOut += o.BytesOut
	s.Sidecars += o.Sidecars
}

// Recode rewrites the store's partitions chunk by chunk into the target
// codec — how an existing store migrates between raw and lz without
// re-ingesting. Per chunk it decompresses with the chunk's recorded
// codec and recompresses with the target, under the writer's rule: a
// chunk the target codec would not shrink is stored raw. A block
// already in the target codec is copied verbatim, and a partition none
// of whose chunks would change codec — every block already in the
// target, or raw and staying raw — is not rewritten at all, so a
// repeated pass is a no-op. Block summaries, raw chunks and their CRCs
// are preserved bit-for-bit, so scans over the recoded store classify
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
//
// A shard's chain fingerprints depend on no other shard's partitions, so
// the shards are recoded on the executor's worker pool, GOMAXPROCS at a
// time (RecodeStats reports how many). The first error stops new shards
// from starting; shards already running finish or fail on their own.
func Recode(ctx context.Context, dir string, codec Codec) (RecodeStats, error) {
	var rs RecodeStats
	if err := codec.check(); err != nil {
		return rs, err
	}
	shards, err := ScanShards(dir, Query{})
	if err != nil {
		return rs, err
	}
	var mu sync.Mutex // merges the shards' counts into rs
	rs.Workers, err = forEachShard(len(shards), 0, func(br *blockReader, i int) error {
		var st RecodeStats
		err := recodeShard(ctx, shards[i], codec, br, &st)
		mu.Lock()
		rs.add(st)
		mu.Unlock()
		return err
	})
	return rs, err
}

// recodeShard recodes one shard's partitions in BuildSnapshots order,
// so the sidecar chain fingerprints can be recomputed as sizes change.
// br lends its block buffers; the compressor comes from compPool.
func recodeShard(ctx context.Context, sh Shard, codec Codec, br *blockReader, rs *RecodeStats) error {
	bc := compPool.Get().(*blockCompressor)
	defer compPool.Put(bc)
	var oldChain, newChain uint64
	for _, entry := range sh.entries {
		if err := ctx.Err(); err != nil {
			return err
		}
		rs.Partitions++
		base := filepath.Base(entry.path)
		p, f, err := readPartition(entry.path, nil)
		if err != nil {
			return err
		}
		oldSize := p.size
		// Read the sidecar before the partition is replaced.
		oldSnap, _ := ReadSnapshot(entry.path)
		oldChain = chainHash(oldChain, base, oldSize)

		needs, err := recodeChanges(p, f, codec, br, bc)
		newSize := oldSize
		if err == nil && needs {
			newSize, err = recodePartition(ctx, p, f, codec, br, bc, rs)
		}
		f.Close()
		if err != nil {
			return err
		}
		if needs {
			rs.Recoded++
		} else {
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
				return err
			}
			rs.Sidecars++
		}
	}
	return nil
}

// recodeChanges reports whether recoding p into codec would change any
// chunk's codec: a block holding lz chunks always does when the target
// is raw, a raw block only if the target codec shrinks one of its
// chunks — which takes compressing them, so the search stops at the
// first block that changes.
func recodeChanges(p *partition, f *os.File, codec Codec, br *blockReader, bc *blockCompressor) (bool, error) {
	var out []byte
	for i, bm := range p.blocks {
		if bm.codec == codec {
			continue
		}
		if bm.codec != CodecRaw {
			return true, nil
		}
		block, err := br.readBlock(f, bm)
		var c Codec
		if err == nil {
			out, c, err = recodeBlock(out[:0], block, codec, br, bc)
		}
		if err != nil {
			return false, fmt.Errorf("evstore: recode %s: block %d: %w", p.path, i, err)
		}
		if c != CodecRaw {
			return true, nil
		}
	}
	return false, nil
}

// recodeBlock appends block re-coded into codec to dst, chunk by chunk:
// a chunk already in codec is copied, any other is opened — decompressed
// and CRC-checked — and compressed under the writer's rule
// (compressChunk). Raw lengths and CRCs carry over unchanged. It returns
// the new block's codec.
func recodeBlock(dst, block []byte, codec Codec, br *blockReader, bc *blockCompressor) ([]byte, Codec, error) {
	h, err := parseHead(block)
	if err != nil {
		return dst, 0, err
	}
	if cap(br.ubuf) < h.raw {
		br.ubuf = make([]byte, h.raw)
	}
	dir := len(dst) + 4
	dst = append(dst, block[:headLen]...)
	out := CodecRaw
	for c, ch := range h.chunks {
		data, cc := block[ch.off:ch.off+ch.stored], ch.codec
		if cc != codec {
			raw, err := h.open(block, br.ubuf, column(c))
			if err != nil {
				return dst, 0, fmt.Errorf("%s chunk: %w", column(c), err)
			}
			if data, cc, err = bc.compressChunk(codec, raw); err != nil {
				return dst, 0, err
			}
		}
		putDirEntry(dst[dir+c*dirEntryLen:], column(c), cc, ch.raw, len(data), ch.crc)
		dst = append(dst, data...)
		if cc != CodecRaw {
			out = cc
		}
	}
	return dst, out, nil
}

// recodePartition rewrites one partition into the target codec via
// temp+rename and returns the new file size.
func recodePartition(ctx context.Context, p *partition, f *os.File, codec Codec, br *blockReader, bc *blockCompressor, rs *RecodeStats) (int64, error) {
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
	header := append([]byte(partitionMagic), byte(len(p.collector)))
	header = append(header, p.collector...)
	header = wire.AppendVarint(header, p.day.Unix())
	if _, err := bw.Write(header); err != nil {
		return fail(err)
	}
	off := int64(len(header))

	newBlocks := make([]blockMeta, 0, len(p.blocks))
	var out []byte
	for i, bm := range p.blocks {
		if err := ctx.Err(); err != nil {
			return fail(err)
		}
		block, err := br.readBlock(f, bm)
		if err != nil {
			return fail(fmt.Errorf("block %d: %w", i, err))
		}
		data, outCodec := block, bm.codec
		if bm.codec != codec {
			if out, outCodec, err = recodeBlock(out[:0], block, codec, br, bc); err != nil {
				return fail(fmt.Errorf("block %d: %w", i, err))
			}
			data = out
		}
		if _, err := bw.Write(data); err != nil {
			return fail(err)
		}
		newBlocks = append(newBlocks, blockMeta{offset: off, ulen: bm.ulen, clen: len(data), codec: outCodec, sum: bm.sum})
		off += int64(len(data))
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
