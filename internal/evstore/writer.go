package evstore

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/classify"
	"repro/internal/stream"
	"repro/internal/wire"
)

// WriterStats summarizes one writer's lifetime for reporting.
type WriterStats struct {
	Events     int // events ingested
	Blocks     int // blocks written
	Partitions int // partition files created
	// Sealed is the number of partition files sealed (published) so far.
	Sealed int
	// PolicySealed counts the seals triggered by the SealPolicy rather
	// than the two-day window or Close — the live publishes.
	PolicySealed int
	// PeakActive is the maximum number of simultaneously open
	// partitions — the writer's memory footprint is PeakActive pending
	// blocks, independent of how many days are ingested.
	PeakActive int
	// Bytes is the total compressed bytes written to sealed partitions.
	Bytes int64
}

// Add accumulates another writer's stats — aggregation across the
// per-collector writers of a live plane. PeakActive sums: the writers
// are concurrently open, so their footprints coexist.
func (s *WriterStats) Add(o WriterStats) {
	s.Events += o.Events
	s.Blocks += o.Blocks
	s.Partitions += o.Partitions
	s.Sealed += o.Sealed
	s.PolicySealed += o.PolicySealed
	s.PeakActive += o.PeakActive
	s.Bytes += o.Bytes
}

// SealPolicy triggers partition seals ahead of the two-day window so a
// live ingest publishes within seconds instead of at day boundaries.
// Zero fields disable their threshold; the zero policy disables early
// sealing entirely (batch behavior). A policy-triggered seal is a
// durable publish: it leaves the Abort rollback set, so for a live
// writer the rollback boundary is the seal, not the process.
type SealPolicy struct {
	// MaxAge seals a partition this long (wall clock) after it was
	// opened, even if events are still arriving — the freshness bound.
	// Age-based seals happen on Append and on explicit SealExpired
	// calls; a quiet collector needs the latter (a ticker) to publish
	// its tail.
	MaxAge time.Duration
	// MaxEvents seals a partition once it holds this many events.
	MaxEvents int
	// MaxBytes seals a partition once its compressed size reaches this
	// many bytes (checked at block granularity).
	MaxBytes int64
}

func (p SealPolicy) enabled() bool {
	return p.MaxAge > 0 || p.MaxEvents > 0 || p.MaxBytes > 0
}

// Writer appends event streams to a store directory. It routes each
// event to the partition for its (collector, UTC day), sealing a
// collector's partitions once they fall more than two days behind that
// collector's newest event (an open window of about three days per
// collector), so the open set — and with it memory — stays bounded
// during multi-day ingests. Not safe for concurrent use.
type Writer struct {
	// BlockEvents is the number of events per block; set before the
	// first Ingest (default DefaultBlockEvents).
	BlockEvents int

	// Codec selects the chunk codec for partitions this writer seals
	// (Open defaults it to DefaultCodec; set before the first
	// Append/Ingest). A chunk it would shrink by less than 1/16 is stored
	// raw regardless — readers dispatch per chunk, so mixing is free.
	// Existing partitions keep whatever codec they were written with;
	// use Recode to migrate them.
	Codec Codec

	// Seal is the live-append seal policy (zero: batch behavior, seal
	// only on the two-day window and Close). Set before the first
	// Append/Ingest.
	Seal SealPolicy

	// Now supplies the wall clock for SealPolicy.MaxAge (tests override
	// it; nil defaults to time.Now).
	Now func() time.Time

	// OnSeal, if set, observes every partition this writer publishes —
	// the hook the ingest plane's freshness and seal-lag metrics hang
	// off. Called synchronously after the partition file is linked into
	// place (it is already durable and scannable); keep it cheap.
	OnSeal func(SealInfo)

	dir     string
	active  map[partKey]*partWriter
	nextSeq map[partKey]int
	// maxDay tracks each collector's newest event day. Sealing is
	// per-collector because concatenated inputs (one archive per
	// collector) restart the clock at each collector boundary.
	maxDay map[string]int64
	// sealed lists the partition files this writer renamed into place,
	// so Abort can roll back a failed ingest completely.
	sealed []string
	stats  WriterStats

	// Shared encode scratch: flushes are sequential, so one raw block,
	// one stored-block buffer and one compressor serve every partition.
	raw   rawBlock
	block []byte
	comp  blockCompressor
}

type partKey struct {
	collector string
	day       int64 // unix seconds of the UTC day start
}

// Open creates (or opens for append) a store directory. Existing
// partitions are never modified; new ingests allocate fresh sequence
// numbers per (collector, day).
func Open(dir string) (*Writer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	w := &Writer{
		BlockEvents: DefaultBlockEvents,
		Codec:       DefaultCodec,
		dir:         dir,
		active:      make(map[partKey]*partWriter),
		nextSeq:     make(map[partKey]int),
		maxDay:      make(map[string]int64),
	}
	entries, err := listPartitions(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if !e.parsed {
			continue
		}
		key := partKey{sanitizeCollector(e.collector), e.dayUnix}
		if e.seq >= w.nextSeq[key] {
			w.nextSeq[key] = e.seq + 1
		}
	}
	return w, nil
}

// Stats returns the writer's cumulative statistics.
func (w *Writer) Stats() WriterStats { return w.stats }

func (w *Writer) now() time.Time {
	if w.Now != nil {
		return w.Now()
	}
	return time.Now()
}

// Ingest drains a source into the store. It may be called repeatedly;
// each event lands in its (collector, day) partition in arrival order,
// so per-session event order is preserved as long as the source itself
// preserves it (all pipeline sources do).
func (w *Writer) Ingest(src stream.EventSource) error {
	var err error
	for e := range src {
		if err = w.add(e); err != nil {
			break
		}
	}
	return err
}

// Append adds a single event — the live-ingest entry point (feeds hand
// events one at a time, not as a drainable source). It applies the
// same routing, two-day window, and seal policy as Ingest.
func (w *Writer) Append(e classify.Event) error { return w.add(e) }

func (w *Writer) add(e classify.Event) error {
	if len(e.Collector) > 255 {
		return fmt.Errorf("evstore: collector name %q too long", e.Collector)
	}
	day := dayStart(e.Time)
	key := partKey{e.Collector, day.Unix()}
	if maxDay, seen := w.maxDay[e.Collector]; !seen || key.day > maxDay {
		w.maxDay[e.Collector] = key.day
		// Seal this collector's partitions more than two days behind.
		// Producers emit at most the previous day's warm-up plus a few
		// minutes of next-day spillover alongside a day, so a two-day
		// window keeps every still-growing partition open while
		// bounding the open set to a few days × collectors,
		// independent of day count. A straggler past the window simply
		// opens a new sequence file — appends stay correct, just less
		// compact.
		for k, pw := range w.active {
			if k.collector == e.Collector && k.day < key.day-2*24*60*60 {
				if err := w.seal(k, pw, true); err != nil {
					return err
				}
			}
		}
	}
	pw := w.active[key]
	if pw == nil {
		var err error
		pw, err = w.openPartition(e.Collector, day, key)
		if err != nil {
			return err
		}
		w.active[key] = pw
		w.stats.Partitions++
		if len(w.active) > w.stats.PeakActive {
			w.stats.PeakActive = len(w.active)
		}
	}
	pw.pending = append(pw.pending, e)
	pw.events++
	if pw.minEvent.IsZero() || e.Time.Before(pw.minEvent) {
		pw.minEvent = e.Time
	}
	if e.Time.After(pw.maxEvent) {
		pw.maxEvent = e.Time
	}
	w.stats.Events++
	if len(pw.pending) >= w.blockEvents() {
		if err := w.flushBlock(pw); err != nil {
			return err
		}
	}
	return w.maybeSealPolicy(key, pw)
}

// maybeSealPolicy seals pw if the live seal policy's thresholds are
// met. Policy seals are durable publishes: they leave the rollback
// set, so a later Abort cannot take back what a watcher may already be
// serving.
func (w *Writer) maybeSealPolicy(key partKey, pw *partWriter) error {
	p := w.Seal
	if !p.enabled() {
		return nil
	}
	switch {
	case p.MaxEvents > 0 && pw.events >= p.MaxEvents:
	case p.MaxBytes > 0 && pw.off >= p.MaxBytes:
	case p.MaxAge > 0 && w.now().Sub(pw.openedAt) >= p.MaxAge:
	default:
		return nil
	}
	return w.seal(key, pw, false)
}

// SealExpired seals every open partition older than Seal.MaxAge — the
// ticker-driven path that publishes a quiet collector's tail (Append
// applies the policy only when an event arrives, so without this a
// partition whose feed went silent would sit unsealed until Close).
// It reports how many partitions were sealed; a no-op unless MaxAge is
// set.
func (w *Writer) SealExpired() (int, error) {
	if w.Seal.MaxAge <= 0 {
		return 0, nil
	}
	now := w.now()
	var expired []partKey
	for k, pw := range w.active {
		if now.Sub(pw.openedAt) >= w.Seal.MaxAge {
			expired = append(expired, k)
		}
	}
	sort.Slice(expired, func(i, j int) bool {
		if expired[i].collector != expired[j].collector {
			return expired[i].collector < expired[j].collector
		}
		return expired[i].day < expired[j].day
	})
	for _, k := range expired {
		if err := w.seal(k, w.active[k], false); err != nil {
			return 0, err
		}
	}
	return len(expired), nil
}

func (w *Writer) blockEvents() int {
	if w.BlockEvents <= 0 {
		return DefaultBlockEvents
	}
	// Clamp to what the decoder accepts: a larger block would be
	// written successfully but refuse to scan.
	if w.BlockEvents > maxBlockEvents {
		return maxBlockEvents
	}
	return w.BlockEvents
}

// Close seals every open partition. The writer is unusable afterwards.
func (w *Writer) Close() error {
	keys := make([]partKey, 0, len(w.active))
	for k := range w.active {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].collector != keys[j].collector {
			return keys[i].collector < keys[j].collector
		}
		return keys[i].day < keys[j].day
	})
	var firstErr error
	for _, k := range keys {
		if err := w.seal(k, w.active[k], true); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// ---------------------------------------------------------------------------
// Partition files
// ---------------------------------------------------------------------------

type blockMeta struct {
	offset int64 // file offset of the stored block
	// ulen is the block's raw size (head and raw chunks), clen its stored
	// size.
	ulen, clen int
	codec      Codec // CodecLZ when any chunk is lz-coded, else CodecRaw
	sum        blockSummary
	// first is the partition-order index of the block's first event:
	// the footer counts of the blocks before it, summed. Readers only
	// (parsePartition sets it).
	first int
}

type partWriter struct {
	collector string
	day       time.Time
	seq       int
	tmpPath   string
	f         *os.File
	bw        *bufio.Writer
	off       int64
	pending   []classify.Event
	blocks    []blockMeta
	openedAt  time.Time // wall clock, for SealPolicy.MaxAge
	events    int       // events appended, for SealPolicy.MaxEvents
	// minEvent/maxEvent bound the partition's event times (zero until
	// the first append) — OnSeal reports them so freshness metrics can
	// measure event→sealed latency without a second bookkeeping path.
	minEvent, maxEvent time.Time
}

// SealInfo describes one published partition, handed to Writer.OnSeal.
type SealInfo struct {
	// Collector and Day identify the partition; Path is the published
	// file name within the store directory.
	Collector string
	Day       time.Time
	Path      string
	// Events and Bytes are the partition's row count and on-disk size.
	Events int
	Bytes  int64
	// MinEvent/MaxEvent bound the partition's event times.
	MinEvent, MaxEvent time.Time
	// OpenFor is how long the partition was open (seal lag: the time
	// the oldest appended event waited to become durable).
	OpenFor time.Duration
	// Policy reports a live SealPolicy seal (as opposed to the batch
	// two-day-window or Close path).
	Policy bool
}

// sanitizeCollector maps a collector name onto the filename-safe
// alphabet used in partition names. The header keeps the exact name;
// the filename is only a pushdown hint.
func sanitizeCollector(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '.':
			return r
		default:
			return '_'
		}
	}, name)
}

// partitionName renders "<collector>__<YYYYMMDD>__<seq>.evp".
func partitionName(collector string, day time.Time, seq int) string {
	return fmt.Sprintf("%s__%s__%04d%s",
		sanitizeCollector(collector), day.UTC().Format("20060102"), seq, Extension)
}

// parsePartitionName inverts partitionName; ok is false for foreign
// file names (callers then fall back to reading the header).
func parsePartitionName(base string) (collector string, day time.Time, seq int, ok bool) {
	name, found := strings.CutSuffix(base, Extension)
	if !found {
		return "", time.Time{}, 0, false
	}
	i := strings.LastIndex(name, "__")
	if i < 0 {
		return "", time.Time{}, 0, false
	}
	if _, err := fmt.Sscanf(name[i+2:], "%d", &seq); err != nil {
		return "", time.Time{}, 0, false
	}
	name = name[:i]
	i = strings.LastIndex(name, "__")
	if i < 0 {
		return "", time.Time{}, 0, false
	}
	day, err := time.ParseInLocation("20060102", name[i+2:], time.UTC)
	if err != nil {
		return "", time.Time{}, 0, false
	}
	return name[:i], day, seq, true
}

func (w *Writer) openPartition(collector string, day time.Time, key partKey) (*partWriter, error) {
	seqKey := partKey{sanitizeCollector(collector), key.day}
	seq := w.nextSeq[seqKey]
	w.nextSeq[seqKey] = seq + 1
	// The block data goes to a private temp file; the final
	// "<collector>__<day>__<seq>.evp" name is claimed exclusively at
	// seal time, so the seq chosen here is only a starting guess and
	// concurrent writers can never shadow each other's partitions.
	f, err := os.CreateTemp(w.dir, "ingest-*.evp-tmp")
	if err != nil {
		return nil, err
	}
	pw := &partWriter{collector: collector, day: day, seq: seq, tmpPath: f.Name(), f: f,
		bw: bufio.NewWriter(f), openedAt: w.now()}
	header := append([]byte(partitionMagic), byte(len(collector)))
	header = append(header, collector...)
	header = wire.AppendVarint(header, day.Unix())
	if _, err := pw.bw.Write(header); err != nil {
		f.Close()
		return nil, err
	}
	pw.off = int64(len(header))
	return pw, nil
}

// flushBlock encodes the pending events as one block, compresses its
// chunks and appends it, recording its footer metadata.
func (w *Writer) flushBlock(pw *partWriter) error {
	if len(pw.pending) == 0 {
		return nil
	}
	sum := encodeBlock(pw.pending, &w.raw)
	pw.pending = pw.pending[:0]

	if err := w.Codec.check(); err != nil {
		return err
	}
	var codec Codec
	var err error
	if w.block, codec, err = w.comp.appendBlock(w.block[:0], &w.raw, w.Codec); err != nil {
		return err
	}
	meta := blockMeta{offset: pw.off, ulen: w.raw.size(), clen: len(w.block), codec: codec, sum: sum}
	if _, err := pw.bw.Write(w.block); err != nil {
		return err
	}
	pw.off += int64(meta.clen)
	pw.blocks = append(pw.blocks, meta)
	w.stats.Blocks++
	return nil
}

// appendFooter appends a partition's footer index and trailer: what
// follows the last block. The footer ends in the CRC32C of the bytes
// before it.
func appendFooter(dst []byte, blocks []blockMeta) []byte {
	start := len(dst)
	dst = append(dst, footerMagic...)
	dst = binary.AppendUvarint(dst, uint64(len(blocks)))
	for _, b := range blocks {
		dst = binary.AppendUvarint(dst, uint64(b.offset))
		dst = binary.AppendUvarint(dst, uint64(b.ulen))
		dst = binary.AppendUvarint(dst, uint64(b.clen))
		dst = append(dst, byte(b.codec))
		dst = b.sum.append(dst)
	}
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[start:], castagnoli))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(dst)-start))
	return append(dst, footerMagic...)
}

// seal flushes the final block, writes the footer index, and links the
// partition into place under an exclusively claimed name. rollback
// records the sealed file in the Abort rollback set (batch semantics);
// policy-driven seals pass false, making the seal a durable publish.
func (w *Writer) seal(key partKey, pw *partWriter, rollback bool) error {
	delete(w.active, key)
	if err := w.flushBlock(pw); err != nil {
		pw.f.Close()
		os.Remove(pw.tmpPath)
		return err
	}
	footer := appendFooter(nil, pw.blocks)
	if _, err := pw.bw.Write(footer); err != nil {
		pw.f.Close()
		os.Remove(pw.tmpPath)
		return err
	}
	if err := pw.bw.Flush(); err != nil {
		pw.f.Close()
		os.Remove(pw.tmpPath)
		return err
	}
	if err := pw.f.Close(); err != nil {
		os.Remove(pw.tmpPath)
		return err
	}
	w.stats.Bytes += pw.off + int64(len(footer))
	path, err := w.commit(pw)
	if err != nil {
		os.Remove(pw.tmpPath)
		return err
	}
	w.stats.Sealed++
	if rollback {
		w.sealed = append(w.sealed, path)
	} else {
		w.stats.PolicySealed++
	}
	if w.OnSeal != nil {
		w.OnSeal(SealInfo{
			Collector: pw.collector,
			Day:       dayStart(pw.day),
			Path:      filepath.Base(path),
			Events:    pw.events,
			Bytes:     pw.off + int64(len(footer)),
			MinEvent:  pw.minEvent,
			MaxEvent:  pw.maxEvent,
			OpenFor:   w.now().Sub(pw.openedAt),
			Policy:    !rollback,
		})
	}
	return nil
}

// commit publishes a fully written temp file under the next free
// "<collector>__<day>__<seq>.evp" name. os.Link refuses to replace an
// existing target, so a name that appeared since Open — another
// writer's partition, or one sealed by this writer earlier — bumps the
// sequence number instead of being shadowed; live appends into a
// non-empty store therefore always CONTINUE the partition sequence,
// never collide with it. The link also makes the partition appear
// atomically: concurrent scans see either no file or a complete one.
func (w *Writer) commit(pw *partWriter) (string, error) {
	seqKey := partKey{sanitizeCollector(pw.collector), dayStart(pw.day).Unix()}
	for {
		path := filepath.Join(w.dir, partitionName(pw.collector, pw.day, pw.seq))
		err := os.Link(pw.tmpPath, path)
		if err == nil {
			os.Remove(pw.tmpPath)
			if pw.seq+1 > w.nextSeq[seqKey] {
				w.nextSeq[seqKey] = pw.seq + 1
			}
			return path, nil
		}
		if os.IsExist(err) {
			pw.seq++
			continue
		}
		// Filesystems without hard links: fall back to a stat-guarded
		// rename. The guard closes most of the window; true atomicity
		// needs link support.
		if _, statErr := os.Lstat(path); statErr == nil {
			pw.seq++
			continue
		}
		if renameErr := os.Rename(pw.tmpPath, path); renameErr != nil {
			return "", renameErr
		}
		if pw.seq+1 > w.nextSeq[seqKey] {
			w.nextSeq[seqKey] = pw.seq + 1
		}
		return path, nil
	}
}

// Abort discards everything this writer wrote — open partitions and
// already-sealed ones alike — leaving the store as it was before the
// writer was opened. Use it instead of Close when an ingest fails
// part-way: sealing the partial output would create a valid-looking
// but incomplete store that later scans would silently trust.
//
// Partitions sealed by the SealPolicy are the exception: those are
// durable publishes (a watcher may already have snapshotted and served
// them), so for a live writer the rollback boundary is the seal, not
// the process — Abort removes only unsealed temp files and
// window/Close-sealed batch output.
func (w *Writer) Abort() {
	for k, pw := range w.active {
		delete(w.active, k)
		pw.f.Close()
		os.Remove(pw.tmpPath)
	}
	for _, path := range w.sealed {
		os.Remove(path)
	}
	w.sealed = nil
}

// Ingest is the one-shot convenience: open, drain src, close. A failed
// ingest is rolled back (Abort), leaving the store unchanged. errCheck
// hooks let deferred error reporters (the *errp of archive-backed
// sources) veto the commit after the stream is drained.
func Ingest(dir string, src stream.EventSource, errCheck ...func() error) (WriterStats, error) {
	w, err := Open(dir)
	if err != nil {
		return WriterStats{}, err
	}
	if err := w.Ingest(src); err != nil {
		w.Abort()
		return w.Stats(), err
	}
	for _, check := range errCheck {
		if err := check(); err != nil {
			w.Abort()
			return w.Stats(), err
		}
	}
	if err := w.Close(); err != nil {
		w.Abort()
		return w.Stats(), err
	}
	return w.Stats(), nil
}
