package evstore

import (
	"bufio"
	"context"
	"encoding/binary"
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

// Recode rewrites the store's partitions block-by-block into the
// target codec — how an existing store migrates between raw and lz
// without re-ingesting. Per block it decompresses with the block's
// recorded codec and recompresses with the target, under the writer's
// rule: a block the target codec would not shrink is stored raw. A
// block already in the target codec is copied verbatim, and a partition
// none of whose blocks would change codec — every block already in the
// target, or raw and staying raw — is not rewritten at all, so a
// repeated pass is a no-op. Footers, block summaries, and event
// payloads are preserved bit-for-bit, so scans over the recoded store
// classify identically.
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
		p, f, err := readPartition(entry.path)
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
// block's codec: a block in another compressing codec always does (it
// is decompressed), a raw block only if the target codec shrinks it —
// which takes compressing it, so the search stops at the first one.
func recodeChanges(p *partition, f *os.File, codec Codec, br *blockReader, bc *blockCompressor) (bool, error) {
	for _, bm := range p.blocks {
		if bm.codec == codec {
			continue
		}
		if bm.codec != CodecRaw {
			return true, nil
		}
		payload, err := br.readBlockPayload(f, bm)
		if err != nil {
			return false, fmt.Errorf("evstore: recode %s: %w", p.path, err)
		}
		_, out, err := bc.compress(codec, payload)
		if err != nil || out != CodecRaw {
			return true, err
		}
	}
	return false, nil
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
		var data []byte
		outCodec := bm.codec
		if bm.codec == codec {
			if cap(br.cbuf) < bm.clen {
				br.cbuf = make([]byte, bm.clen)
			}
			data = br.cbuf[:bm.clen]
			if _, err := f.ReadAt(data, bm.offset); err != nil {
				return fail(err)
			}
		} else {
			payload, err := br.readBlockPayload(f, bm)
			if err != nil {
				return fail(err)
			}
			if data, outCodec, err = bc.compress(codec, payload); err != nil {
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
