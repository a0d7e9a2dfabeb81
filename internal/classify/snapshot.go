package classify

import (
	"fmt"

	"repro/internal/wire"
)

// This file holds the persistence codecs of the analysis engine: the
// Counts and SessionKey wire forms shared by every analyzer snapshot,
// the CountsAnalyzer Snapshot/Restore implementation, the Classifier
// state codec that lets a scan resume classification midway through a
// collector's timeline, and the one-byte result code that persists a
// classification itself. The evstore snapshot sidecars store both per
// partition: the result codes answer for the partition's own events
// without classifying them again, the classifier state lets a pass
// that must classify what follows start from the partition's end.

// AppendCounts appends the wire form of a Counts.
func AppendCounts(dst []byte, c Counts) []byte {
	for _, v := range c.ByType {
		dst = wire.AppendVarint(dst, int64(v))
	}
	dst = wire.AppendVarint(dst, int64(c.Withdrawals))
	return wire.AppendVarint(dst, int64(c.MEDOnlyNN))
}

// ReadCounts reads an AppendCounts encoding. A negative count is no
// tally any stream produces, so it fails the reader.
func ReadCounts(r *wire.Reader) Counts {
	var c Counts
	for i := range c.ByType {
		c.ByType[i] = r.Int()
	}
	c.Withdrawals = r.Int()
	c.MEDOnlyNN = r.Int()
	least := min(c.Withdrawals, c.MEDOnlyNN)
	for _, v := range c.ByType {
		least = min(least, v)
	}
	if least < 0 {
		r.Fail("negative count %d", least)
	}
	return c
}

// AppendSessionKey appends the wire form of a SessionKey.
func AppendSessionKey(dst []byte, k SessionKey) []byte {
	dst = wire.AppendString(dst, k.Collector)
	return wire.AppendAddr(dst, k.PeerAddr)
}

// ReadSessionKey reads an AppendSessionKey encoding.
func ReadSessionKey(r *wire.Reader) SessionKey {
	return SessionKey{Collector: r.String(), PeerAddr: r.Addr()}
}

// A result code is one event's classification in one byte: the Type in
// the low three bits, First and MEDChanged as flags, and one reserved
// value for a withdrawal (which has no classification). A label is a
// pure function of the events before it on its own stream, so a code
// recorded at a fixed position in a collector's timeline never changes.
// Only the 15 values the classifier can produce are valid: a first
// announcement compares against the empty state, so it is pc or pn and
// never a MED change.
const (
	resultTypeMask   = 0x07
	resultFirst      = 0x08
	resultMEDChanged = 0x10
	resultWithdrawal = 0x80
)

// EncodeResult returns the result code of one event: res for an
// announcement, the withdrawal code (res ignored) otherwise.
func EncodeResult(res Result, withdraw bool) byte {
	if withdraw {
		return resultWithdrawal
	}
	code := byte(res.Type)
	if res.First {
		code |= resultFirst
	}
	if res.MEDChanged {
		code |= resultMEDChanged
	}
	return code
}

// DecodeResult is EncodeResult's inverse: the classification (zero for
// a withdrawal, like RunBatch's), whether the code marks a withdrawal,
// and whether the code is one EncodeResult can produce.
func DecodeResult(code byte) (res Result, withdraw, ok bool) {
	if code == resultWithdrawal {
		return Result{}, true, true
	}
	res = Result{
		Type:       Type(code & resultTypeMask),
		First:      code&resultFirst != 0,
		MEDChanged: code&resultMEDChanged != 0,
	}
	ok = code&^(resultTypeMask|resultFirst|resultMEDChanged) == 0 && res.Type < numTypes &&
		(!res.First || (!res.MEDChanged && (res.Type == PC || res.Type == PN)))
	return res, false, ok
}

// Snapshot appends the serialized counts.
func (a *CountsAnalyzer) Snapshot(dst []byte) []byte {
	return AppendCounts(dst, a.Counts)
}

// Restore adds a snapshot's counts to the accumulated ones.
func (a *CountsAnalyzer) Restore(src []byte) error {
	r := wire.NewReader(src)
	c := ReadCounts(r)
	if err := r.Err(); err != nil {
		return fmt.Errorf("classify: counts snapshot: %w", err)
	}
	a.Counts.Merge(c)
	return nil
}

// Snapshot appends the classifier's per-stream state: stream count,
// then per stream its session, prefix, and remembered previous
// announcement. Restoring the snapshot into a fresh classifier and
// continuing a scan classifies exactly as the uninterrupted classifier
// would — the property that lets the serving layer jump over
// already-summarized partitions instead of re-decoding them.
func (c *Classifier) Snapshot(dst []byte) []byte {
	if c.deferred {
		c.materialize()
	}
	dst = wire.AppendUvarint(dst, uint64(len(c.state)))
	for key, prev := range c.state {
		dst = AppendSessionKey(dst, key.session)
		dst = wire.AppendPrefix(dst, key.prefix)
		dst = wire.AppendPath(dst, prev.path)
		dst = wire.AppendComms(dst, prev.comms)
		flags := byte(0)
		if prev.hasMED {
			flags = 1
		}
		dst = append(dst, flags)
		dst = wire.AppendUvarint(dst, uint64(prev.med))
	}
	return dst
}

// Restore replaces the classifier's stream state with a snapshot's.
func (c *Classifier) Restore(src []byte) error {
	r := wire.NewReader(src)
	n := r.Count(1)
	state := make(map[streamKey]*prevState, n)
	for i := 0; i < n; i++ {
		key := streamKey{session: ReadSessionKey(r), prefix: r.Prefix()}
		prev := &prevState{key: key, live: true}
		prev.path = r.Path()
		prev.comms = r.Comms()
		flags := r.Bytes(1)
		if len(flags) == 1 {
			prev.hasMED = flags[0]&1 != 0
		}
		prev.med = r.Uint32()
		if r.Err() != nil {
			break
		}
		state[key] = prev
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("classify: classifier snapshot: %w", err)
	}
	c.state = state
	// The batch-path id cache points at the replaced states; drop it.
	// The restored streams live only in the canonical map, so deferred
	// mode (cache-is-authoritative) no longer holds.
	c.cache.reset()
	c.deferred = false
	return nil
}
