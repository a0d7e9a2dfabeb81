// Package lz implements the store's in-repo byte-oriented LZ codec:
// an LZ4-style token/literal/match framing with a hash-table greedy
// match finder on the encode side and an alloc-free exact-bounds
// decoder on the decode side.
//
// The format is a sequence of sequences. Each sequence is:
//
//	token       1 byte: high nibble = literal length, low nibble =
//	            match length - 4; 15 in either nibble means "extended
//	            by following length bytes" (each 255 adds 255, the
//	            first byte < 255 terminates the run)
//	[lit ext]   optional literal-length extension bytes
//	literals    literal bytes, copied verbatim
//	offset      2 bytes little-endian, 1..65535, distance back into
//	            the already-decoded output
//	[match ext] optional match-length extension bytes
//
// The final sequence carries only literals: the stream ends after the
// literal bytes and the token's match nibble must be zero. Matches are
// at least 4 bytes and never start within the last 5 bytes of the
// output (those are always literals), which gives the stream an
// unambiguous literal-only tail.
//
// The codec trades ratio for speed: no entropy stage, so it loses to
// deflate on density but decodes several times faster. Callers that
// need "never bigger than input" wrap it with a raw fallback (the
// store's codec layer does exactly that).
package lz

import (
	"encoding/binary"
	"errors"
	"math/bits"
)

const (
	minMatch = 4
	// Matches never extend into the last literalTail bytes and never
	// start within the last matchGuard bytes: the encoder emits that
	// region as literals, guaranteeing a literal-only final sequence.
	literalTail = 5
	matchGuard  = 12

	maxOffset = 1<<16 - 1

	hashBits  = 15
	tableSize = 1 << hashBits
	hashMul   = 2654435761 // Knuth multiplicative hash constant
)

// ErrCorrupt is returned by Decompress when the input is not a valid
// stream for the requested output length. Decoding never panics and
// never allocates regardless of input.
var ErrCorrupt = errors.New("lz: corrupt input")

// MaxCompressedLen bounds the compressed size of n input bytes: worst
// case is all literals, which cost 1 length byte per 255 literals plus
// constant framing.
func MaxCompressedLen(n int) int {
	return n + n/255 + 16
}

// Encoder holds the match-finder state so repeated compressions reuse
// one hash table. The zero value is ready to use.
type Encoder struct {
	table []int32 // position+1 of the last occurrence of each hash; 0 = empty
}

func hash4(v uint32) uint32 {
	return (v * hashMul) >> (32 - hashBits)
}

// Compress appends the compressed form of src to dst and returns the
// extended slice. Compressing an empty src appends nothing.
func (e *Encoder) Compress(dst, src []byte) []byte {
	n := len(src)
	if n == 0 {
		return dst
	}
	if n < minMatch+matchGuard {
		return appendLiterals(dst, src)
	}
	if e.table == nil {
		e.table = make([]int32, tableSize)
	} else {
		clear(e.table)
	}
	table := e.table

	var anchor, pos int
	limit := n - matchGuard
	searches := 0
	for pos <= limit {
		seq := binary.LittleEndian.Uint32(src[pos:])
		h := hash4(seq)
		cand := int(table[h]) - 1
		table[h] = int32(pos + 1)
		if cand < 0 || pos-cand > maxOffset ||
			binary.LittleEndian.Uint32(src[cand:]) != seq {
			// No match: advance, accelerating after repeated misses so
			// incompressible regions cost ~O(n/step).
			pos += 1 + searches>>6
			searches++
			continue
		}
		searches = 0

		// Extend the match backwards over pending literals.
		for pos > anchor && cand > 0 && src[pos-1] == src[cand-1] {
			pos--
			cand--
		}

		// Extend forwards, 8 bytes at a time, stopping before the
		// literal tail.
		mlen := minMatch
		mmax := n - literalTail - pos
		for mlen+8 <= mmax {
			x := binary.LittleEndian.Uint64(src[pos+mlen:]) ^
				binary.LittleEndian.Uint64(src[cand+mlen:])
			if x != 0 {
				mlen += bits.TrailingZeros64(x) >> 3
				goto emit
			}
			mlen += 8
		}
		for mlen < mmax && src[pos+mlen] == src[cand+mlen] {
			mlen++
		}
	emit:
		dst = appendSequence(dst, src[anchor:pos], pos-cand, mlen)
		pos += mlen
		anchor = pos
		if pos <= limit {
			// Seed the table from inside the match so the next search
			// can chain through it.
			table[hash4(binary.LittleEndian.Uint32(src[pos-2:]))] = int32(pos - 1)
		}
	}
	return appendLiterals(dst, src[anchor:])
}

// appendLiterals emits a final literal-only sequence (match nibble 0).
func appendLiterals(dst, lit []byte) []byte {
	dst = appendToken(dst, len(lit), 0)
	return append(dst, lit...)
}

func appendSequence(dst, lit []byte, offset, mlen int) []byte {
	dst = appendToken(dst, len(lit), mlen-minMatch)
	dst = append(dst, lit...)
	dst = append(dst, byte(offset), byte(offset>>8))
	if mlen-minMatch >= 15 {
		dst = appendLenExt(dst, mlen-minMatch-15)
	}
	return dst
}

// appendToken writes the token byte plus any literal-length extension
// bytes (the match extension follows the offset, so it is emitted by
// the caller).
func appendToken(dst []byte, lit, match int) []byte {
	t := byte(0)
	if lit >= 15 {
		t = 15 << 4
	} else {
		t = byte(lit) << 4
	}
	if match >= 15 {
		t |= 15
	} else {
		t |= byte(match)
	}
	dst = append(dst, t)
	if lit >= 15 {
		dst = appendLenExt(dst, lit-15)
	}
	return dst
}

func appendLenExt(dst []byte, v int) []byte {
	for v >= 255 {
		dst = append(dst, 255)
		v -= 255
	}
	return append(dst, byte(v))
}

// Decompress decodes src into dst, which must be exactly the original
// length. It allocates nothing, never reads or writes out of bounds,
// and returns ErrCorrupt if src is not a well-formed stream producing
// exactly len(dst) bytes.
func Decompress(dst, src []byte) error {
	di, si := 0, 0
	for si < len(src) {
		token := src[si]
		si++

		lit := int(token >> 4)
		if lit == 15 {
			var ok bool
			lit, si, ok = readLenExt(src, si, lit)
			if !ok {
				return ErrCorrupt
			}
		}
		if lit > 0 {
			if lit > len(src)-si || lit > len(dst)-di {
				return ErrCorrupt
			}
			if lit <= 8 && len(src)-si >= 8 && len(dst)-di >= 8 {
				// A short run is one word copy; the bytes past the run
				// are overwritten by what follows.
				binary.LittleEndian.PutUint64(dst[di:], binary.LittleEndian.Uint64(src[si:]))
			} else {
				copy(dst[di:], src[si:si+lit])
			}
			si += lit
			di += lit
		}
		if si == len(src) {
			// Final sequence: literals only.
			if token&0xf != 0 {
				return ErrCorrupt
			}
			break
		}

		if len(src)-si < 2 {
			return ErrCorrupt
		}
		offset := int(src[si]) | int(src[si+1])<<8
		si += 2
		if offset == 0 || offset > di {
			return ErrCorrupt
		}
		mlen := int(token & 0xf)
		if mlen == 15 {
			var ok bool
			mlen, si, ok = readLenExt(src, si, mlen)
			if !ok {
				return ErrCorrupt
			}
		}
		mlen += minMatch
		if mlen > len(dst)-di {
			return ErrCorrupt
		}
		ref := di - offset
		if offset >= 8 && mlen <= 16 && len(dst)-di >= 16 {
			// A short match whose source lies a word behind is two word
			// copies, the second reading what the first wrote where the
			// two overlap — the byte-wise semantics of a match.
			binary.LittleEndian.PutUint64(dst[di:], binary.LittleEndian.Uint64(dst[ref:]))
			binary.LittleEndian.PutUint64(dst[di+8:], binary.LittleEndian.Uint64(dst[ref+8:]))
			di += mlen
		} else if offset >= mlen {
			copy(dst[di:di+mlen], dst[ref:ref+mlen])
			di += mlen
		} else {
			// Overlapping match: each copy's source [ref:di) grows as
			// di advances, so the work doubles per round.
			mend := di + mlen
			for di < mend {
				di += copy(dst[di:mend], dst[ref:di])
			}
		}
	}
	if di != len(dst) {
		return ErrCorrupt
	}
	return nil
}

// readLenExt consumes length-extension bytes following a nibble of 15.
func readLenExt(src []byte, si, v int) (int, int, bool) {
	for {
		if si >= len(src) {
			return 0, 0, false
		}
		b := src[si]
		si++
		v += int(b)
		if b != 255 {
			return v, si, true
		}
	}
}
