package stream

import (
	"iter"

	"repro/internal/classify"
)

// mergeCursor is one source's head inside the merge heap.
type mergeCursor struct {
	src  int // input position, the tie-break key
	cur  classify.Event
	next func() (classify.Event, bool)
}

// Merge combines time-sorted sources into one globally time-ordered
// source via a k-way heap merge. Ties keep the input-source order, so the
// merge is stable and deterministic. Each source is pulled
// incrementally: at any moment only the heads of the inputs are buffered
// here (the inputs themselves decide how much state backs their
// iteration).
func Merge(sources ...EventSource) EventSource {
	switch len(sources) {
	case 0:
		return Empty()
	case 1:
		return sources[0]
	}
	return func(yield func(classify.Event) bool) {
		stops := make([]func(), 0, len(sources))
		defer func() {
			for _, stop := range stops {
				stop()
			}
		}()
		h := make([]mergeCursor, 0, len(sources))
		for i, s := range sources {
			next, stop := iter.Pull(s)
			stops = append(stops, stop)
			if e, ok := next(); ok {
				h = append(h, mergeCursor{src: i, cur: e, next: next})
			}
		}
		for i := len(h)/2 - 1; i >= 0; i-- {
			siftDown(h, i)
		}
		for len(h) > 0 {
			if !yield(h[0].cur) {
				return
			}
			if e, ok := h[0].next(); ok {
				h[0].cur = e
			} else {
				h[0] = h[len(h)-1]
				h = h[:len(h)-1]
				if len(h) == 0 {
					return
				}
			}
			siftDown(h, 0)
		}
	}
}

// cursorLess orders heap entries by (time, input position).
func cursorLess(a, b mergeCursor) bool {
	if !a.cur.Time.Equal(b.cur.Time) {
		return a.cur.Time.Before(b.cur.Time)
	}
	return a.src < b.src
}

// siftDown restores the min-heap property below index i.
func siftDown(h []mergeCursor, i int) {
	for {
		left, right := 2*i+1, 2*i+2
		min := i
		if left < len(h) && cursorLess(h[left], h[min]) {
			min = left
		}
		if right < len(h) && cursorLess(h[right], h[min]) {
			min = right
		}
		if min == i {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}
