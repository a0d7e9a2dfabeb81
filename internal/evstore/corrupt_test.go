package evstore

import (
	"bytes"
	"encoding/binary"
	"flag"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/stream"
	"repro/internal/wire"
)

var updateCorpus = flag.Bool("update-corpus", false, "regenerate testdata/corrupt from corruptCases")

// corruptCases is the chunk-level corruption corpus: each case is one
// damage done to a freshly written one-block raw partition, the column
// the refusal must name ("" for the footer, which has none) and the
// text that says which check refused it.
var corruptCases = []struct {
	name, column, want string
	damage             func(t *testing.T, file []byte, bm blockMeta, h blockHead) []byte
}{
	{"bad-chunk-length", "path ids", "does not fit", func(t *testing.T, file []byte, bm blockMeta, h blockHead) []byte {
		// The path-id chunk claims a byte of the flags chunk's: the
		// block still tiles, the raw chunk's lengths disagree.
		e := dirEntry(file, bm, colPathIDs)
		binary.LittleEndian.PutUint32(e[6:], binary.LittleEndian.Uint32(e[6:])+1)
		e = dirEntry(file, bm, colFlags)
		binary.LittleEndian.PutUint32(e[6:], binary.LittleEndian.Uint32(e[6:])-1)
		return file
	}},
	{"bad-chunk-crc", "path dictionary", "CRC mismatch", func(t *testing.T, file []byte, bm blockMeta, h blockHead) []byte {
		dirEntry(file, bm, colPathDict)[10] ^= 0x01
		return file
	}},
	{"chunks-out-of-order", "peer AS", "holds peer address", func(t *testing.T, file []byte, bm blockMeta, h blockHead) []byte {
		// Peer address's entry and body move ahead of peer AS's, each
		// still whole and CRC-clean.
		as, addr := h.chunks[colPeerAS], h.chunks[colPeerAddr]
		block := file[bm.offset : bm.offset+int64(bm.clen)]
		asBody := bytes.Clone(block[as.off : as.off+as.stored])
		addrBody := bytes.Clone(block[addr.off : addr.off+addr.stored])
		copy(block[as.off:], addrBody)
		copy(block[as.off+addr.stored:], asBody)
		ea, eb := dirEntry(file, bm, colPeerAS), dirEntry(file, bm, colPeerAddr)
		var tmp [dirEntryLen]byte
		copy(tmp[:], ea[:dirEntryLen])
		copy(ea, eb[:dirEntryLen])
		copy(eb, tmp[:])
		return file
	}},
	{"offset-past-chunk", "path dictionary", "offset table entry", func(t *testing.T, file []byte, bm blockMeta, h blockHead) []byte {
		// The last run's length grows within its one-byte uvarint, past
		// the chunk's end.
		body := chunkBody(file, bm, h, colPathDict)
		r := wire.NewReader(body)
		nd := r.Count(1)
		runs := (nd + entryStride - 1) / entryStride
		for range runs - 1 {
			r.Uvarint()
		}
		if l := body[r.Pos()]; l >= 0x70 || r.Err() != nil {
			t.Fatalf("last run length byte %#x (err %v)", l, r.Err())
		}
		body[r.Pos()] += 0x10
		setCRC(file, bm, colPathDict, body)
		return file
	}},
	{"id-past-dictionary", "path ids", "dictionary index", func(t *testing.T, file []byte, bm blockMeta, h blockHead) []byte {
		// Row 0's path id becomes the dictionary's size.
		nd := int(chunkBody(file, bm, h, colPathDict)[0])
		ids := chunkBody(file, bm, h, colPathIDs)
		if nd >= 0x80 || ids[0] >= 0x80 {
			t.Fatalf("want one-byte ids, have a %d-entry dictionary", nd)
		}
		ids[0] = byte(nd)
		setCRC(file, bm, colPathIDs, ids)
		return file
	}},
	{"bad-footer-crc", "", "footer CRC mismatch", func(t *testing.T, file []byte, bm blockMeta, h blockHead) []byte {
		// The footer's last byte before its CRC: the block's bloom filter.
		file[len(file)-13] ^= 0x01
		return file
	}},
}

// dirEntry returns column c's directory entry in the block at bm.
func dirEntry(file []byte, bm blockMeta, c column) []byte {
	at := int(bm.offset) + 4 + int(c)*dirEntryLen
	return file[at : at+dirEntryLen]
}

// chunkBody returns column c's stored bytes, raw in this corpus.
func chunkBody(file []byte, bm blockMeta, h blockHead, c column) []byte {
	ch := h.chunks[c]
	at := int(bm.offset) + ch.off
	return file[at : at+ch.stored]
}

// setCRC makes column c's directory entry agree with its damaged body.
func setCRC(file []byte, bm blockMeta, c column, body []byte) {
	binary.LittleEndian.PutUint32(dirEntry(file, bm, c)[10:], crc32.Checksum(body, castagnoli))
}

// TestCorruptChunkCorpus holds every file of testdata/corrupt to its
// refusal: the scan fails naming the partition, the block and the
// column, with the text of the check that owns the damage. With
// -update-corpus the files are first regenerated from corruptCases.
func TestCorruptChunkCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "corrupt")
	if *updateCorpus {
		writeCorruptCorpus(t, dir)
	}
	for _, tc := range corruptCases {
		path := filepath.Join(dir, tc.name+Extension)
		if _, err := os.Stat(path); err != nil {
			t.Fatalf("%s: %v (regenerate with -update-corpus)", tc.name, err)
		}
		var err error
		n := stream.Count(PartitionSource(path, Query{}, &err))
		if n != 0 || err == nil {
			t.Errorf("%s: scan yielded %d events, err %v", tc.name, n, err)
			continue
		}
		msg := err.Error()
		for _, want := range []string{path, tc.want} {
			if !strings.Contains(msg, want) {
				t.Errorf("%s: %q does not say %q", tc.name, msg, want)
			}
		}
		if tc.column != "" && !strings.Contains(msg, "block 0: "+tc.column+" chunk: ") {
			t.Errorf("%s: %q does not name block 0's %s chunk", tc.name, msg, tc.column)
		}
	}
}

// writeCorruptCorpus writes one damaged partition per corruptCases
// entry, each from the same 48 live-shaped events.
func writeCorruptCorpus(t *testing.T, dir string) {
	src := t.TempDir()
	w, err := Open(src)
	if err != nil {
		t.Fatal(err)
	}
	w.Codec = CodecRaw
	if err := w.Ingest(stream.FromSlice(liveBlockEvents(48))); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := listPartitions(src)
	if err != nil || len(entries) != 1 {
		t.Fatalf("want one partition, have %v (%v)", entries, err)
	}
	p, f, err := readPartition(entries[0].path, nil)
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	clean, err := os.ReadFile(entries[0].path)
	if err != nil {
		t.Fatal(err)
	}
	bm := p.blocks[0]
	h, err := parseHead(clean[bm.offset : bm.offset+int64(bm.clen)])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, tc := range corruptCases {
		file := tc.damage(t, bytes.Clone(clean), bm, h)
		if err := os.WriteFile(filepath.Join(dir, tc.name+Extension), file, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
