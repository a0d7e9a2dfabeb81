package evstore

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"net/netip"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/classify"
	"repro/internal/stream"
	"repro/internal/wire"
)

// ScanStats counts what a scan read versus what pushdown skipped.
// Every field is a deterministic function of the store and query —
// never of timing — so per-shard stats summed over a parallel run
// equal the sequential scan's exactly. Every block of a scanned
// partition is either pruned or decoded, so a complete scan has
// Blocks == BlocksPruned + BlocksDecoded.
type ScanStats struct {
	Partitions       int // partition files considered
	PartitionsPruned int // skipped by name or footer summary, no block decoded
	Blocks           int // blocks in scanned partitions
	BlocksPruned     int // skipped by block summary
	BlocksDecoded    int
	BytesRead        int64 // stored bytes of the decoded blocks, read from disk
	// BytesDecompressed is the raw bytes the decodes opened: each
	// decoded block's head and the chunks its query needed.
	BytesDecompressed int64
	// PerCodec splits the decode by codec: Blocks by the block's footer
	// codec, the byte counts by the codec of each chunk opened.
	PerCodec [NumCodecs]CodecScanStats
	Events   int // events yielded after the residual filter
}

// CodecScanStats is one codec's share of a scan's decoded blocks and
// opened chunks.
type CodecScanStats struct {
	Blocks            int
	BytesRead         int64 // stored bytes of the chunks opened
	BytesDecompressed int64 // raw bytes of the chunks opened
}

// Add accumulates another scan's stats — per-shard stats summed over a
// parallel run equal the sequential scan's.
func (s *ScanStats) Add(o ScanStats) {
	s.Partitions += o.Partitions
	s.PartitionsPruned += o.PartitionsPruned
	s.Blocks += o.Blocks
	s.BlocksPruned += o.BlocksPruned
	s.BlocksDecoded += o.BlocksDecoded
	s.BytesRead += o.BytesRead
	s.BytesDecompressed += o.BytesDecompressed
	for c := range s.PerCodec {
		s.PerCodec[c].Blocks += o.PerCodec[c].Blocks
		s.PerCodec[c].BytesRead += o.PerCodec[c].BytesRead
		s.PerCodec[c].BytesDecompressed += o.PerCodec[c].BytesDecompressed
	}
	s.Events += o.Events
}

// countBlock records one decoded block: all of its stored bytes read,
// and the head and chunks the decode opened (io) decoded.
func (s *ScanStats) countBlock(bm blockMeta, io *chunkIO) {
	s.BlocksDecoded++
	s.BytesRead += int64(bm.clen)
	s.BytesDecompressed += int64(io.head)
	if bm.codec < NumCodecs {
		s.PerCodec[bm.codec].Blocks++
	}
	for c := range s.PerCodec {
		s.BytesDecompressed += int64(io.raw[c])
		s.PerCodec[c].BytesRead += int64(io.stored[c])
		s.PerCodec[c].BytesDecompressed += int64(io.raw[c])
	}
}

// compiledQuery precomputes the pushdown predicates of a Query.
type compiledQuery struct {
	q                Query
	fromNano, toNano int64 // inclusive lower, exclusive upper
	collectors       map[string]bool
	sanitized        map[string]bool // sanitized collector names, for filename pruning
	peerAS           map[uint32]bool
	hasPrefix        bool
	loAddr, hiAddr   netip.Addr // address span of PrefixRange
	filterKey        string     // bloom probe, "" when unusable
}

func compileQuery(q Query) *compiledQuery {
	cq := &compiledQuery{q: q}
	cq.fromNano, cq.toNano = q.Window.nanos()
	if len(q.Collectors) > 0 {
		cq.collectors = make(map[string]bool, len(q.Collectors))
		cq.sanitized = make(map[string]bool, len(q.Collectors))
		for _, c := range q.Collectors {
			cq.collectors[c] = true
			cq.sanitized[sanitizeCollector(c)] = true
		}
	}
	if len(q.PeerAS) > 0 {
		cq.peerAS = make(map[uint32]bool, len(q.PeerAS))
		for _, as := range q.PeerAS {
			cq.peerAS[as] = true
		}
	}
	if p := q.PrefixRange; p.IsValid() {
		cq.hasPrefix = true
		masked := p.Masked()
		cq.loAddr = masked.Addr()
		cq.hiAddr = lastAddr(masked)
		if fl := p.Bits() - p.Bits()%8; fl > 0 {
			cq.filterKey = prefixKey(p.Addr(), fl)
		}
	}
	return cq
}

// match is the per-event residual filter — Query.Match semantics over
// the precomputed nano bounds and collector/peer-AS sets, O(1) per
// event where the exported method scans the raw slices.
func (cq *compiledQuery) match(e classify.Event) bool {
	if n := e.Time.UnixNano(); n < cq.fromNano || n >= cq.toNano {
		return false
	}
	if cq.collectors != nil && !cq.collectors[e.Collector] {
		return false
	}
	if cq.peerAS != nil && !cq.peerAS[e.PeerAS] {
		return false
	}
	if cq.hasPrefix {
		if !e.Prefix.IsValid() ||
			e.Prefix.Bits() < cq.q.PrefixRange.Bits() ||
			!cq.q.PrefixRange.Contains(e.Prefix.Addr()) {
			return false
		}
	}
	return true
}

// lastAddr returns the highest address covered by a masked prefix.
func lastAddr(p netip.Prefix) netip.Addr {
	if p.Addr().Is4() {
		b := p.Addr().As4()
		for i := p.Bits(); i < 32; i++ {
			b[i/8] |= 1 << (7 - i%8)
		}
		return netip.AddrFrom4(b)
	}
	b := p.Addr().As16()
	for i := p.Bits(); i < 128; i++ {
		b[i/8] |= 1 << (7 - i%8)
	}
	return netip.AddrFrom16(b)
}

// matchSummary reports whether a block (or partition aggregate) summary
// may contain matching events. useFilter selects the bloom probe, which
// is only meaningful at block granularity.
func (cq *compiledQuery) matchSummary(s blockSummary, useFilter bool) bool {
	if s.count == 0 {
		return false
	}
	if s.tmax < cq.fromNano || s.tmin >= cq.toNano {
		return false
	}
	if cq.peerAS != nil {
		ok := false
		for _, as := range s.peerAS {
			if cq.peerAS[as] {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	if cq.hasPrefix {
		if !s.minAddr.IsValid() {
			return false // no valid prefixes in the block
		}
		if s.maxAddr.Compare(cq.loAddr) < 0 || s.minAddr.Compare(cq.hiAddr) > 0 {
			return false
		}
		if useFilter && cq.filterKey != "" && len(s.filter) > 0 &&
			!filterMaybeContains(s.filter, cq.filterKey) {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// Partition reading
// ---------------------------------------------------------------------------

// partition is one decoded partition index: header fields plus the
// footer's block directory, and the stat of the file they were parsed
// from. No block has been read, and it is never modified once parsed.
type partition struct {
	path      string
	size      int64
	fi        os.FileInfo
	collector string
	day       time.Time
	blocks    []blockMeta
	agg       blockSummary
}

// sameFile reports whether fi, a stat of p's path, still describes the
// file p was parsed from: the same file, size and modification time.
func (p *partition) sameFile(fi os.FileInfo) bool {
	return p != nil && os.SameFile(p.fi, fi) && fi.Size() == p.size && fi.ModTime().Equal(p.fi.ModTime())
}

// readPartition opens a partition file to read its blocks, with held —
// the footer a SnapshotIndex holds for it, or nil — as its index while
// the open file's fstat shows the file held was parsed from; otherwise
// the header and footer are parsed from the open file now.
func readPartition(path string, held *partition) (*partition, *os.File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	fi, err := f.Stat()
	p := held
	if err == nil && !held.sameFile(fi) {
		p, err = parsePartition(f, fi, path)
	}
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return p, f, nil
}

// parseFooter parses a partition file's header and footer and closes it.
func parseFooter(path string) (*partition, error) {
	p, f, err := readPartition(path, nil)
	if err == nil {
		f.Close()
	}
	return p, err
}

// footerParses counts parsePartition calls, the footers read.
var footerParses atomic.Int64

func parsePartition(f *os.File, fi os.FileInfo, path string) (*partition, error) {
	footerParses.Add(1)
	size := fi.Size()
	if size < int64(len(partitionMagic))+8 {
		return nil, fmt.Errorf("evstore: %s: too short for a partition", path)
	}

	var head [4 + 1 + 255 + binary.MaxVarintLen64]byte
	hn, err := f.ReadAt(head[:min(int64(len(head)), size)], 0)
	if err != nil && err != io.EOF {
		return nil, err
	}
	hr := wire.NewReader(head[:hn])
	switch string(hr.Bytes(4)) {
	case partitionMagic:
	case partitionMagicV2:
		return nil, fmt.Errorf("%w (%s)", errPartitionV2Retired, path)
	default:
		return nil, fmt.Errorf("evstore: %s: bad partition magic", path)
	}
	nameLen := hr.Bytes(1)
	var collector string
	if hr.Err() == nil {
		collector = string(hr.Bytes(int(nameLen[0])))
	}
	dayUnix := hr.Varint()
	if err := hr.Err(); err != nil {
		return nil, fmt.Errorf("evstore: %s: %w", path, err)
	}

	var trailer [8]byte
	if _, err := f.ReadAt(trailer[:], size-8); err != nil {
		return nil, err
	}
	if string(trailer[4:]) != footerMagic {
		return nil, fmt.Errorf("evstore: %s: bad footer magic", path)
	}
	flen := int64(binary.LittleEndian.Uint32(trailer[:4]))
	if flen < int64(len(footerMagic))+4 || flen > size-8 {
		return nil, fmt.Errorf("evstore: %s: bad footer length %d", path, flen)
	}
	footer := make([]byte, flen)
	if _, err := f.ReadAt(footer, size-8-flen); err != nil {
		return nil, err
	}
	body := footer[:flen-4]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(footer[flen-4:]) {
		return nil, fmt.Errorf("evstore: %s: footer CRC mismatch", path)
	}
	fr := wire.NewReader(body)
	if string(fr.Bytes(4)) != footerMagic {
		return nil, fmt.Errorf("evstore: %s: bad footer header", path)
	}
	nblocks := fr.Count(1)
	p := &partition{
		path:      path,
		size:      size,
		fi:        fi,
		collector: collector,
		day:       time.Unix(dayUnix, 0).UTC(),
		blocks:    make([]blockMeta, 0, nblocks),
	}
	for i := 0; i < nblocks; i++ {
		var b blockMeta
		b.offset = int64(fr.Uvarint())
		b.ulen = int(fr.Uvarint())
		b.clen = int(fr.Uvarint())
		if cb := fr.Bytes(1); fr.Err() == nil {
			b.codec = Codec(cb[0])
		}
		b.sum = readSummary(fr)
		if fr.Err() != nil {
			break
		}
		if b.offset < 0 || b.clen < 0 || b.offset+int64(b.clen) > size ||
			b.ulen < 0 || b.ulen > maxBlockEvents*64 ||
			b.sum.count < 0 || b.sum.count > maxBlockEvents {
			return nil, fmt.Errorf("evstore: %s: block %d out of bounds", path, i)
		}
		if err := b.codec.check(); err != nil {
			return nil, fmt.Errorf("%w (%s, block %d)", err, path, i)
		}
		b.first = p.agg.count
		p.blocks = append(p.blocks, b)
		p.agg.merge(b.sum)
	}
	if err := fr.Err(); err != nil {
		return nil, fmt.Errorf("evstore: %s: %w", path, err)
	}
	return p, nil
}

// blockReader reads and decodes blocks, reusing its buffers, the batch
// decode scratch (global dictionary + column arrays), and the residual
// selector across calls — one per scan worker, so steady-state block
// decoding allocates nothing. A reader belongs to one goroutine, and
// every block a scan touches is read and decoded on it. ubuf is Recode's
// buffer for the chunks it decompresses.
type blockReader struct {
	cbuf, ubuf []byte
	scratch    *decodeScratch
	slr        *selector
}

// readBlock reads one stored block whole into the reused buffer; the
// slice is valid until the next call.
func (br *blockReader) readBlock(f *os.File, b blockMeta) ([]byte, error) {
	if cap(br.cbuf) < b.clen {
		br.cbuf = make([]byte, b.clen)
	}
	block := br.cbuf[:b.clen]
	if _, err := f.ReadAt(block, b.offset); err != nil {
		return nil, err
	}
	return block, nil
}

// ---------------------------------------------------------------------------
// Store listing and scanning
// ---------------------------------------------------------------------------

// storeEntry is one partition file with its filename-derived sort and
// prune keys (zero values when the name is foreign).
type storeEntry struct {
	path      string
	collector string // sanitized, from the filename
	dayUnix   int64
	seq       int
	parsed    bool
	foot      *partition // the footer a SnapshotIndex holds; nil on a cold listing
}

// listPartitions enumerates a store's partition files sorted by
// (collector, day, seq) — the order that keeps each collector's
// timeline contiguous and per-session event order intact. It reads the
// directory once and keeps the names ending in Extension, which is
// exactly what the "*.evp" glob matched — sidecars ("x.evp.evps"), their
// temp files ("x.evp.evps.tmp") and the writer's and Recode's temp
// partitions ("*.evp-tmp") end otherwise — without the pattern matcher.
// A missing directory (or a path that is not one) lists as empty, as the
// glob did; any other read error is returned, where the glob swallowed
// it into an empty store.
func listPartitions(dir string) ([]storeEntry, error) {
	read := dir
	if read == "" {
		read = "." // the glob's reading of an empty directory name
	}
	names, err := readDirNames(read)
	if err != nil && !errors.Is(err, fs.ErrNotExist) && !errors.Is(err, syscall.ENOTDIR) {
		return nil, err
	}
	entries := make([]storeEntry, 0, len(names))
	for _, name := range names {
		if !strings.HasSuffix(name, Extension) {
			continue
		}
		e := storeEntry{path: filepath.Join(dir, name)}
		if collector, day, seq, ok := parsePartitionName(name); ok {
			e.collector, e.dayUnix, e.seq, e.parsed = collector, day.Unix(), seq, true
		}
		entries = append(entries, e)
	}
	sort.Slice(entries, func(i, j int) bool {
		a, b := entries[i], entries[j]
		if a.collector != b.collector {
			return a.collector < b.collector
		}
		if a.dayUnix != b.dayUnix {
			return a.dayUnix < b.dayUnix
		}
		if a.seq != b.seq {
			return a.seq < b.seq
		}
		return a.path < b.path
	})
	return entries, nil
}

// readDirNames returns the names in dir, unsorted.
func readDirNames(dir string) ([]string, error) {
	f, err := os.Open(dir)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return f.Readdirnames(-1)
}

// ErrNoPartitions is the sentinel wrapped by the shared empty-store
// error of Scan, Stat, and ScanShards; match with errors.Is. The
// serving tier maps it to "store not ready yet" (HTTP 503 / empty
// shard) rather than a hard failure.
var ErrNoPartitions = errors.New("evstore: no partitions")

// noPartitionsError is the shared empty-store error of Scan, Stat, and
// ScanShards.
func noPartitionsError(dir string) error {
	return fmt.Errorf("%w in %s", ErrNoPartitions, dir)
}

// pruneByName applies the filename-level pushdown: collector and
// day-window checks that skip a partition without opening it.
func (cq *compiledQuery) pruneByName(e storeEntry) bool {
	if !e.parsed {
		return false
	}
	if cq.sanitized != nil && !cq.sanitized[e.collector] {
		return true
	}
	dayStartNano := e.dayUnix * int64(time.Second)
	dayEndNano := dayStartNano + int64(24*time.Hour)
	if dayEndNano <= cq.fromNano || dayStartNano >= cq.toNano {
		return true
	}
	return false
}

// Scan returns a source over the store's events matching q, in
// (collector, day, seq, ingest) order. Pushdown skips partitions and
// blocks whose summaries cannot match; a final Query.Match filter makes
// the result exact. Errors are reported via *errp (first error wins,
// may be nil to ignore) and end the stream, like pipeline sources. The
// source is replayable: each range re-reads the store.
func Scan(dir string, q Query, errp *error) stream.EventSource {
	return ScanWithStats(dir, q, errp, nil)
}

// ScanWithStats is Scan with pushdown accounting: if st is non-nil it
// is reset and filled while the returned source is consumed.
func ScanWithStats(dir string, q Query, errp *error, st *ScanStats) stream.EventSource {
	return func(yield func(classify.Event) bool) {
		if st != nil {
			*st = ScanStats{}
		}
		fail := func(err error) {
			if errp != nil && *errp == nil {
				*errp = err
			}
		}
		entries, err := listPartitions(dir)
		if err != nil {
			fail(err)
			return
		}
		if len(entries) == 0 {
			fail(noPartitionsError(dir))
			return
		}
		cq := compileQuery(q)
		var br blockReader
		defer br.release()
		if _, err := scanEntries(entries, cq, &br, st, yield); err != nil {
			fail(err)
		}
	}
}

// scanEntries streams the matching events of a partition list through
// one blockReader, applying the name-level prune and per-partition
// scan; more reports whether the consumer wants to continue.
func scanEntries(entries []storeEntry, cq *compiledQuery, br *blockReader, st *ScanStats, yield func(classify.Event) bool) (more bool, err error) {
	for _, e := range entries {
		if st != nil {
			st.Partitions++
		}
		if cq.pruneByName(e) {
			if st != nil {
				st.PartitionsPruned++
			}
			continue
		}
		more, err := scanPartition(e.path, cq, br, st, yield)
		if err != nil {
			return false, err
		}
		if !more {
			return false, nil
		}
	}
	return true, nil
}

// scanPartition streams one partition's matching events; more reports
// whether the consumer wants to continue (the row API stops by
// breaking out of the range, not by context). The events are
// materialized from the batch kernel; their slice fields alias the
// reader's scan-lifetime dictionary and stay valid after the scan.
func scanPartition(path string, cq *compiledQuery, br *blockReader, st *ScanStats, yield func(classify.Event) bool) (more bool, err error) {
	return scanPartitionBatch(context.Background(), storeEntry{path: path}, cq, br, st, classify.ProjAll, func(b *classify.Batch, sel []int32, _ int) bool {
		for _, si := range sel {
			if !yield(b.Event(int(si))) {
				return false
			}
		}
		return true
	})
}

// ---------------------------------------------------------------------------
// Store inspection
// ---------------------------------------------------------------------------

// BlockInfo describes one block for inspection tools.
type BlockInfo struct {
	Offset           int64
	Compressed       int
	Uncompressed     int
	Codec            Codec
	Events           int
	TimeMin, TimeMax time.Time
	PeerAS           []uint32
	FilterBytes      int
}

// PartitionInfo describes one partition file.
type PartitionInfo struct {
	Path      string
	Collector string
	Day       time.Time
	Seq       int
	SizeBytes int64
	// Codec names the partition's block codec — "mixed" when blocks
	// differ (raw-fallback blocks inside an lz partition, say).
	Codec string
	// StoredBytes and RawBytes sum the blocks' stored and raw sizes
	// (chunk directory included); their ratio is the partition's
	// effective compression.
	StoredBytes int64
	RawBytes    int64
	Events      int
	TimeMin     time.Time
	TimeMax     time.Time
	PeerAS      []uint32 // distinct, ascending
	Blocks      []BlockInfo
}

// StatPartition reads one partition's index without decoding blocks.
func StatPartition(path string) (PartitionInfo, error) {
	p, err := parseFooter(path)
	if err != nil {
		return PartitionInfo{}, err
	}
	_, _, seq, _ := parsePartitionName(filepath.Base(path))
	info := PartitionInfo{
		Path:      path,
		Collector: p.collector,
		Day:       p.day,
		Seq:       seq,
		SizeBytes: p.size,
		Events:    p.agg.count,
		PeerAS:    p.agg.peerAS,
	}
	if p.agg.count > 0 {
		info.TimeMin = time.Unix(0, p.agg.tmin).UTC()
		info.TimeMax = time.Unix(0, p.agg.tmax).UTC()
	}
	for i, b := range p.blocks {
		info.Blocks = append(info.Blocks, BlockInfo{
			Offset:       b.offset,
			Compressed:   b.clen,
			Uncompressed: b.ulen,
			Codec:        b.codec,
			Events:       b.sum.count,
			TimeMin:      time.Unix(0, b.sum.tmin).UTC(),
			TimeMax:      time.Unix(0, b.sum.tmax).UTC(),
			PeerAS:       b.sum.peerAS,
			FilterBytes:  len(b.sum.filter),
		})
		info.StoredBytes += int64(b.clen)
		info.RawBytes += int64(b.ulen)
		switch {
		case i == 0:
			info.Codec = b.codec.String()
		case info.Codec != b.codec.String():
			info.Codec = "mixed"
		}
	}
	return info, nil
}

// ColumnInfo is one column's share of the blocks of a partition.
type ColumnInfo struct {
	Name        string
	StoredBytes int64
	RawBytes    int64
	Chunks      [NumCodecs]int // the column's chunks stored under each codec
}

// StatColumns reads the chunk directory of every block of one partition
// and sums it per column, in block order; no chunk is decompressed.
func StatColumns(path string) ([]ColumnInfo, error) {
	p, f, err := readPartition(path, nil)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	cols := make([]ColumnInfo, numColumns)
	for c := range cols {
		cols[c].Name = column(c).String()
	}
	var br blockReader
	for i, bm := range p.blocks {
		block, err := br.readBlock(f, bm)
		if err == nil {
			var h blockHead
			if h, err = parseHead(block); err == nil {
				for c, ch := range h.chunks {
					cols[c].StoredBytes += int64(ch.stored)
					cols[c].RawBytes += int64(ch.raw)
					cols[c].Chunks[ch.codec]++
				}
				continue
			}
		}
		return nil, fmt.Errorf("evstore: %s: block %d: %w", path, i, err)
	}
	return cols, nil
}

// Stat reads every partition index in the store, sorted like Scan.
func Stat(dir string) ([]PartitionInfo, error) {
	entries, err := listPartitions(dir)
	if err != nil {
		return nil, err
	}
	if len(entries) == 0 {
		return nil, noPartitionsError(dir)
	}
	infos := make([]PartitionInfo, 0, len(entries))
	for _, e := range entries {
		info, err := StatPartition(e.path)
		if err != nil {
			return nil, err
		}
		infos = append(infos, info)
	}
	return infos, nil
}

// IsStoreDir reports whether dir contains at least one partition file.
func IsStoreDir(dir string) bool {
	entries, err := listPartitions(dir)
	return err == nil && len(entries) > 0
}

// PartitionSource streams one partition file's events matching q, for
// inspectors that take explicit file arguments (`evstore dump`).
func PartitionSource(path string, q Query, errp *error) stream.EventSource {
	return func(yield func(classify.Event) bool) {
		cq := compileQuery(q)
		var br blockReader
		defer br.release()
		if _, err := scanPartition(path, cq, &br, nil, yield); err != nil {
			if errp != nil && *errp == nil {
				*errp = err
			}
		}
	}
}
