package serve

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"sync"
	"time"
)

// Coordinator is the scatter-gather engine: it fans one QuerySpec out
// to every shard backend in parallel and merges the accumulators they
// return under the Analyzer Merge laws. Because shard assignment keeps
// each collector's whole timeline on one shard (the ScanShards
// invariant carried across processes), classifier state never crosses a
// shard boundary and the merged result is bit-identical to a
// single-node answer over the union store.
//
// Shard loss degrades, it does not fail: as long as at least one shard
// answers, the coordinator returns the merged state of the shards it
// reached, with per-shard provenance naming exactly who is missing.
// Partial envelopes are never cached by the Server above (as answers
// or as state), so a recovered shard is back in the next answer.
type Coordinator struct {
	backends []Backend

	mu sync.Mutex
	// gens is the last known generation per shard (0 = never seen).
	// The joint hash over it is the coordinator's own generation: it
	// moves exactly when some shard's store moves, which is what keys
	// the answer cache above.
	gens map[string]uint64
}

// NewCoordinator returns a coordinator over the given shard backends.
func NewCoordinator(backends ...Backend) *Coordinator {
	return &Coordinator{backends: backends, gens: make(map[string]uint64, len(backends))}
}

// Name identifies the engine in provenance and stats.
func (c *Coordinator) Name() string { return "coordinator" }

func (c *Coordinator) setGen(name string, gen uint64) {
	c.mu.Lock()
	c.gens[name] = gen
	c.mu.Unlock()
}

// generation hashes the joint (shard, last-known-generation) vector.
func (c *Coordinator) generation() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	names := make([]string, 0, len(c.gens))
	for n := range c.gens {
		names = append(names, n)
	}
	sort.Strings(names)
	h := fnv.New64a()
	for _, n := range names {
		io.WriteString(h, n)
		var g uint64 = c.gens[n]
		for i := 0; i < 8; i++ {
			h.Write([]byte{byte(g >> (8 * i))})
		}
	}
	if s := h.Sum64(); s != 0 {
		return s
	}
	return 1
}

// State fans the spec out to every shard and merges the states that
// came back.
func (c *Coordinator) State(ctx context.Context, spec QuerySpec) (*StateEnvelope, error) {
	named, err := stateAnalyzers(spec)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	type result struct {
		env *StateEnvelope
		err error
	}
	results := make([]result, len(c.backends))
	c.fanOut(func(i int, b Backend) {
		env, err := b.State(ctx, spec)
		results[i] = result{env, err}
	})

	out := &StateEnvelope{Backend: c.Name(), Source: "snapshots"}
	answered, empty := 0, 0
	var firstErr error
	for i, r := range results {
		prov := ShardProvenance{Backend: c.backends[i].Name()}
		switch {
		case r.err == nil:
			// The first answering shard's set is the accumulator.
			if out.Named == nil {
				out.Named = r.env.Named
			} else {
				for k, na := range r.env.Named {
					out.Named[k].Proto.Merge(na.Proto)
				}
			}
			answered++
			prov.Generation = r.env.Generation
			prov.Source = r.env.Source
			prov.Elapsed = r.env.Elapsed
			c.setGen(prov.Backend, r.env.Generation)
			out.Plan.Add(r.env.Plan)
			out.Scan.Add(r.env.Scan)
			// Shard-side merges plus this tier's restore of each key.
			out.Merges += r.env.Merges + len(named)
			if r.env.Source == "scan" {
				out.Source = "scan"
			}
		case errors.Is(r.err, ErrEmptyStore):
			// An empty shard contributes nothing — that is a complete
			// answer over its (zero) partitions, not degradation.
			answered++
			empty++
			prov.Source = "empty"
		default:
			if firstErr == nil {
				firstErr = r.err
			}
			prov.Err = r.err.Error()
		}
		out.Shards = append(out.Shards, prov)
	}
	if answered == 0 {
		return nil, fmt.Errorf("serve: all %d shards failed: %w", len(c.backends), firstErr)
	}
	if answered == empty {
		return nil, ErrEmptyStore
	}
	out.Generation = c.generation()
	out.Elapsed = time.Since(start)
	return out, nil
}

// fanOut calls f once per shard, concurrently, and waits for all.
func (c *Coordinator) fanOut(f func(i int, b Backend)) {
	var wg sync.WaitGroup
	for i, b := range c.backends {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(i, b)
		}()
	}
	wg.Wait()
}

// Refresh fans out to every shard; it fails only when every shard is
// unreachable (a cluster with any live shard can still serve).
func (c *Coordinator) Refresh(ctx context.Context) (RefreshStats, error) {
	results := make([]RefreshStats, len(c.backends))
	errs := make([]error, len(c.backends))
	c.fanOut(func(i int, b Backend) {
		results[i], errs[i] = b.Refresh(ctx)
	})
	rs := RefreshStats{}
	okCount := 0
	var firstErr error
	for i, err := range errs {
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		okCount++
		rs.SnapshotBuildStats.Partitions += results[i].SnapshotBuildStats.Partitions
		rs.Built += results[i].Built
		rs.Reused += results[i].Reused
		rs.Events += results[i].Events
		if results[i].Changed {
			rs.Changed = true
		}
		if g := results[i].Generation; g != 0 {
			c.setGen(c.backends[i].Name(), g)
		}
	}
	if okCount == 0 {
		return rs, fmt.Errorf("serve: all %d shards failed to refresh: %w", len(c.backends), firstErr)
	}
	rs.Generation = c.generation()
	return rs, nil
}

// Watch polls shard generations on the given interval, invoking
// onChange whenever any shard's store moved or every shard stopped
// answering.
func (c *Coordinator) Watch(ctx context.Context, interval time.Duration, onChange func(RefreshStats, error)) error {
	return pollWatch(ctx, interval, c.Refresh, onChange)
}

// Health aggregates shard healths: OK only when every shard answers.
func (c *Coordinator) Health(ctx context.Context) (BackendHealth, error) {
	h := BackendHealth{Backend: c.Name(), OK: true}
	h.Shards = make([]BackendHealth, len(c.backends))
	c.fanOut(func(i int, b Backend) {
		sh, err := b.Health(ctx)
		if err != nil {
			sh = BackendHealth{Backend: b.Name(), OK: false}
		}
		h.Shards[i] = sh
	})
	for _, sh := range h.Shards {
		if !sh.OK {
			h.OK = false
			continue
		}
		h.Partitions += sh.Partitions
		h.Snapshotted += sh.Snapshotted
		if sh.Generation != 0 {
			c.setGen(sh.Backend, sh.Generation)
		}
	}
	h.Generation = c.generation()
	return h, nil
}
