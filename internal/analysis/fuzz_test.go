package analysis

import (
	"fmt"
	"testing"

	"repro/internal/classify"
	"repro/internal/stream"
)

// FuzzAnalyzerRestore feeds every analyzer's Restore — which decodes
// sidecar states from disk and shard envelopes from the network —
// arbitrary bytes, into a Fresh receiver and into a non-empty one.
// Neither Restore nor Finish may panic, and both receivers must agree
// on accepting the input. An accepted input must fold in exactly as
// Merge of a Fresh copy restored from it does; a refused one must leave
// the non-empty receiver's result unchanged.
//
//	go test -run '^$' -fuzz FuzzAnalyzerRestore -fuzztime 60s -fuzzminimizetime 1s ./internal/analysis/
func FuzzAnalyzerRestore(f *testing.F) {
	sources, protos := mergeLawFixture(f)
	full := classify.FreshAll(protos)
	RunAll(stream.Concat(sources...), nil, full...)
	for _, a := range full {
		snap := a.Snapshot(nil)
		f.Add(snap)
		f.Add(snap[:len(snap)/2])
	}
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f})

	// The non-empty receiver holds the first source's state, rebuilt
	// per input from its snapshot.
	part := classify.FreshAll(protos)
	RunAll(stream.Concat(sources[:1]...), nil, part...)
	bases := make([][]byte, len(part))
	for i, a := range part {
		bases[i] = a.Snapshot(nil)
	}
	base := func(t *testing.T, i int) Analyzer {
		a := protos[i].Fresh()
		if err := a.Restore(bases[i]); err != nil {
			t.Fatalf("%T: base state refused: %v", protos[i], err)
		}
		return a
	}
	render := func(a Analyzer) string { return fmt.Sprint(a.Finish()) }

	f.Fuzz(func(t *testing.T, data []byte) {
		for i, proto := range protos {
			fresh := proto.Fresh()
			freshErr := fresh.Restore(data)
			render(fresh)

			folded := base(t, i)
			err := folded.Restore(data)
			if (err == nil) != (freshErr == nil) {
				t.Fatalf("%T: a Fresh receiver says %v, a non-empty one %v", proto, freshErr, err)
			}
			got := render(folded)
			var want string
			if err == nil {
				merged, other := base(t, i), proto.Fresh()
				if err := other.Restore(data); err != nil {
					t.Fatalf("%T: accepted input refused on a second Restore: %v", proto, err)
				}
				merged.Merge(other)
				want = render(merged)
			} else {
				want = render(base(t, i))
			}
			if got != want {
				t.Fatalf("%T (accepted: %t): restore into a non-empty receiver gave\n%s\nwant\n%s", proto, err == nil, got, want)
			}
		}
	})
}
