package evstore

import (
	"context"
	"fmt"
	"os"
)

// decodeAheadDepth is how many blocks the prefetch worker may hold
// read+decompressed ahead of the consumer. Decompression is the only
// stage that moves off the critical path — columnar decode and
// classification stay sequential per collector timeline — so a small
// depth is enough to hide it; deeper queues just pin more payload
// buffers.
const decodeAheadDepth = 2

// prefetcher owns the decode-ahead state of one blockReader: the
// worker-side staging buffer (disjoint from the reader's synchronous
// one, so the two paths never share mutable state), the payload
// buffers rotated through the pipeline, and a scratch list for the
// matching blocks of the current partition.
type prefetcher struct {
	cbuf   []byte
	bufs   [][]byte    // idle payload buffers, retained across partitions
	blocks []blockMeta // scratch for the matching-block list
}

// fetchedBlock is one prefetched unit: the decompressed payload (or
// the buffer to recycle plus an error) and the block it came from.
type fetchedBlock struct {
	payload []byte
	meta    blockMeta
	err     error
}

// fetch reads and decompresses one block into buf, growing it as
// needed; the (possibly reallocated) buffer is always returned so the
// caller keeps it in rotation.
func (pf *prefetcher) fetch(f *os.File, bm blockMeta, buf []byte) ([]byte, error) {
	if cap(buf) < bm.ulen {
		buf = make([]byte, bm.ulen)
	}
	buf = buf[:bm.ulen]
	if bm.codec == CodecRaw {
		if bm.clen != bm.ulen {
			return buf, fmt.Errorf("evstore: raw block length %d, footer says %d", bm.clen, bm.ulen)
		}
		_, err := f.ReadAt(buf, bm.offset)
		return buf, err
	}
	if cap(pf.cbuf) < bm.clen {
		pf.cbuf = make([]byte, bm.clen)
	}
	cbuf := pf.cbuf[:bm.clen]
	if _, err := f.ReadAt(cbuf, bm.offset); err != nil {
		return buf, err
	}
	return buf, decompress(bm.codec, buf, cbuf)
}

// run pipelines one partition's matching blocks: a worker goroutine
// reads and decompresses up to decodeAheadDepth blocks ahead while the
// consumer decodes, filters, and classifies the current one. Payload
// buffers rotate through a bounded free list; block N's buffer
// re-enters the free list only after handle(N) has returned, which
// preserves the batch-valid-until-next-decode contract exactly as the
// synchronous path does (there, the next readBlockPayload overwrites
// the shared buffer). Cancellation is honoured at block boundaries.
func (pf *prefetcher) run(ctx context.Context, f *os.File, blocks []blockMeta,
	handle func(payload []byte, bm blockMeta, prefetched bool) (bool, error)) (more bool, err error) {
	const nbuf = decodeAheadDepth + 1
	results := make(chan fetchedBlock, decodeAheadDepth)
	free := make(chan []byte, nbuf)
	for i := 0; i < nbuf; i++ {
		var buf []byte
		if n := len(pf.bufs); n > 0 {
			buf, pf.bufs = pf.bufs[n-1], pf.bufs[:n-1]
		}
		free <- buf
	}
	stop := make(chan struct{})
	go func() {
		defer close(results)
		for _, bm := range blocks {
			var buf []byte
			select {
			case buf = <-free:
			case <-stop:
				return
			}
			fb := fetchedBlock{meta: bm}
			fb.payload, fb.err = pf.fetch(f, bm, buf)
			select {
			case results <- fb:
			case <-stop:
				return
			}
			if fb.err != nil {
				return
			}
		}
	}()

	var prev []byte
	defer func() {
		// Join the worker — closing stop unblocks it, and results
		// closing marks its exit — then pull every buffer back into
		// pf.bufs for the next partition. (A buffer the worker held at
		// the moment of an early stop is simply dropped to the GC.)
		close(stop)
		for fb := range results {
			if fb.payload != nil {
				pf.bufs = append(pf.bufs, fb.payload)
			}
		}
		if prev != nil {
			pf.bufs = append(pf.bufs, prev)
		}
		for {
			select {
			case buf := <-free:
				if buf != nil {
					pf.bufs = append(pf.bufs, buf)
				}
			default:
				return
			}
		}
	}()

	for {
		if err := ctx.Err(); err != nil {
			return false, err
		}
		fb, ok := <-results
		if !ok {
			return true, nil
		}
		if prev != nil {
			// Never blocks: with nbuf buffers total and one held as
			// prev, at most decodeAheadDepth can be elsewhere.
			free <- prev
		}
		prev = fb.payload
		if fb.err != nil {
			return false, fmt.Errorf("%s: %w", f.Name(), fb.err)
		}
		more, err := handle(fb.payload, fb.meta, true)
		if err != nil || !more {
			return more, err
		}
	}
}
