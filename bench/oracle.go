package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/classify"
	"repro/internal/evstore"
	"repro/internal/serve"
)

// oracle recomputes answers in the harness over a pristine copy of the
// store and compares them with what the daemon served. table2 is checked
// against the counts of a cold evstore.ScanParallel over the same spec
// (the repository's bit-identical claim); every other kind against a
// cache-cold in-process serve.Server over the copy. References are
// memoised per spec, so hot's 64 keys are computed once.
type oracle struct {
	dir    string
	server *serve.Server
	refs   map[string][]byte // spec cache key -> compact JSON of data
}

func newOracle(ctx context.Context, pristine string) (*oracle, error) {
	s, _, err := serve.New(ctx, serve.Config{Dir: pristine})
	if err != nil {
		return nil, fmt.Errorf("bench: oracle server: %w", err)
	}
	return &oracle{dir: pristine, server: s, refs: make(map[string][]byte)}, nil
}

// reference returns the compact JSON the daemon's `data` must equal.
func (o *oracle) reference(ctx context.Context, spec serve.QuerySpec) ([]byte, error) {
	key := spec.CacheKey()
	if ref, ok := o.refs[key]; ok {
		return ref, nil
	}
	var data any
	if spec.Kind == serve.KindTable2 {
		counts := &classify.CountsAnalyzer{}
		q := evstore.Query{Collectors: spec.Collectors, PeerAS: spec.PeerAS, PrefixRange: spec.PrefixRange}
		if _, err := evstore.ScanParallel(ctx, o.dir, q, spec.Window, 0, counts); err != nil {
			return nil, err
		}
		data = countsData(counts.Counts)
	} else {
		ans, err := o.server.Answer(ctx, spec)
		if err != nil {
			return nil, err
		}
		if ans.Source == "cache" {
			return nil, fmt.Errorf("bench: oracle answer for %s came from a cache", key)
		}
		data = ans.Data
	}
	ref, err := json.Marshal(data)
	if err != nil {
		return nil, err
	}
	o.refs[key] = ref
	return ref, nil
}

// countsData mirrors serve's unexported shaping of classify.Counts into
// the table2 payload, so the cold scan's counts compare field by field
// with what was served.
func countsData(c classify.Counts) serve.CountsData {
	d := serve.CountsData{
		Announcements: c.Announcements(),
		Withdrawals:   c.Withdrawals,
		ByType:        make(map[string]int, 6),
		Shares:        make(map[string]float64, 6),
		NoPathChange:  c.NoPathChangeShare(),
		MEDOnlyNN:     c.MEDOnlyNN,
	}
	for _, ty := range classify.Types() {
		d.ByType[ty.String()] = c.Of(ty)
		d.Shares[ty.String()] = c.Share(ty)
	}
	return d
}

// check compares one served body with its reference.
func (o *oracle) check(ctx context.Context, r keptResponse) error {
	var env answerEnvelope
	if err := json.Unmarshal(r.body, &env); err != nil {
		return fmt.Errorf("%s: bad envelope: %w", r.req.path, err)
	}
	if env.Kind != r.req.spec.Kind {
		return fmt.Errorf("%s: answered kind %q", r.req.path, env.Kind)
	}
	ref, err := o.reference(ctx, r.req.spec)
	if err != nil {
		return fmt.Errorf("%s: reference: %w", r.req.path, err)
	}
	var got bytes.Buffer
	if err := json.Compact(&got, env.Data); err != nil {
		return fmt.Errorf("%s: bad data: %w", r.req.path, err)
	}
	if !bytes.Equal(got.Bytes(), ref) {
		return fmt.Errorf("%s: served data differs from the reference (%d vs %d bytes)", r.req.path, got.Len(), len(ref))
	}
	return nil
}

// verify checks every kept response for which frozen holds and returns
// how many it checked and the mismatches.
func (o *oracle) verify(ctx context.Context, kept []keptResponse, frozen func(request) bool) (checked int, mismatches []error) {
	for _, r := range kept {
		if frozen != nil && !frozen(r.req) {
			continue
		}
		checked++
		if err := o.check(ctx, r); err != nil {
			mismatches = append(mismatches, err)
		}
	}
	return checked, mismatches
}

// frozenUnderChurn reports whether a key's answer cannot change while
// the churn workload appends: it names its collectors and none of them
// is the growing one. All-collector keys gain churn events at every
// seal, so they are checked only after the plane has drained.
func frozenUnderChurn(r request) bool {
	if r.spec.Kind == serve.KindFigure3 {
		return r.spec.Collector != churnCollector
	}
	if len(r.spec.Collectors) == 0 {
		return false
	}
	for _, c := range r.spec.Collectors {
		if c == churnCollector {
			return false
		}
	}
	return true
}
