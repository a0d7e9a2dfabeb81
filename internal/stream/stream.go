// Package stream makes the update stream the pipeline's first-class
// object: producers (workload generators, MRT archive readers) lazily
// yield normalized classify.Events one at a time, combinators merge,
// filter, window, and concatenate them, and analyses consume them in a
// single pass without materializing whole datasets in memory.
//
// An EventSource is an iter.Seq, so consumers range over it directly and
// early exit propagates back to the producer. Sources from the workload
// generators are replayable — ranging a second time regenerates the same
// events — while archive-backed sources (pipeline.FileSource) are
// single-use per normalizer; each source documents which it is.
package stream

import (
	"iter"
	"time"

	"repro/internal/classify"
)

// EventSource is a lazy, single-pass stream of normalized events.
type EventSource = iter.Seq[classify.Event]

// Empty is the stream with no events.
func Empty() EventSource {
	return func(func(classify.Event) bool) {}
}

// FromSlice adapts a materialized event slice into a source.
func FromSlice(events []classify.Event) EventSource {
	return func(yield func(classify.Event) bool) {
		for _, e := range events {
			if !yield(e) {
				return
			}
		}
	}
}

// Collect materializes a source into a slice.
func Collect(src EventSource) []classify.Event {
	var out []classify.Event
	for e := range src {
		out = append(out, e)
	}
	return out
}

// Count drains the source and returns the number of events.
func Count(src EventSource) int {
	n := 0
	for range src {
		n++
	}
	return n
}

// Filter yields only the events for which keep returns true.
func Filter(src EventSource, keep func(classify.Event) bool) EventSource {
	return func(yield func(classify.Event) bool) {
		for e := range src {
			if keep(e) && !yield(e) {
				return
			}
		}
	}
}

// Window restricts a source to events with from <= Time < to, the
// half-open counting-window convention of the workload configs.
func Window(src EventSource, from, to time.Time) EventSource {
	return Filter(src, func(e classify.Event) bool {
		return !e.Time.Before(from) && e.Time.Before(to)
	})
}

// Tee invokes fn on every event flowing through and yields the stream
// unchanged — progress counters and probes without a second pass. fn
// runs before the event is yielded downstream.
func Tee(src EventSource, fn func(classify.Event)) EventSource {
	return func(yield func(classify.Event) bool) {
		for e := range src {
			fn(e)
			if !yield(e) {
				return
			}
		}
	}
}

// Concat yields each source in turn, exhausting one before starting the
// next. The result is ordered per input source but not globally
// time-ordered; it suits session-local analyses (classification state is
// keyed per (session, prefix), so any order that preserves each stream's
// internal order yields identical results) while keeping only one
// source's working set live at a time. Use Merge for global time order.
func Concat(sources ...EventSource) EventSource {
	return func(yield func(classify.Event) bool) {
		for _, src := range sources {
			for e := range src {
				if !yield(e) {
					return
				}
			}
		}
	}
}
