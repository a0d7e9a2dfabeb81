package pipeline

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/classify"
	"repro/internal/mrt"
	"repro/internal/registry"
	"repro/internal/stream"
)

// errStopped signals that the consumer stopped ranging a source early; it
// never escapes this package.
var errStopped = errors.New("pipeline: source stopped")

// Source returns an event source that drains r through the normalizer,
// yielding each normalized event as it is decoded — no event slice is
// ever materialized. A stream error aborts iteration and is reported via
// *errp (which may be nil to ignore errors; the first error wins); early
// consumer exit is not an error. The source is single-use: the reader is
// consumed, and the normalizer's same-second timestamp disambiguation
// and Stats are stateful, so a second pass over the same records through
// the same normalizer would skew both.
func (n *Normalizer) Source(collector string, r *mrt.Reader, errp *error) stream.EventSource {
	return func(yield func(classify.Event) bool) {
		err := n.ProcessReader(collector, r, func(e classify.Event) error {
			if !yield(e) {
				return errStopped
			}
			return nil
		})
		if err != nil && !errors.Is(err, errStopped) && errp != nil && *errp == nil {
			*errp = err
		}
	}
}

// FileSource returns a source over one MRT archive: the file is opened
// lazily when the source is ranged and closed when iteration ends, so a
// directory of archives can be merged while holding only one record per
// file in flight. Once *errp is set (by this or any sibling source
// sharing it), ranging yields nothing — a failed archive stops a
// Concat/Merge over DirSources rather than silently skipping it. Like
// Source, an archive is single-use per normalizer; re-reading it
// requires a fresh Normalizer.
func FileSource(norm *Normalizer, collector, path string, errp *error) stream.EventSource {
	return func(yield func(classify.Event) bool) {
		if errp != nil && *errp != nil {
			return
		}
		f, err := os.Open(path)
		if err != nil {
			if errp != nil && *errp == nil {
				*errp = err
			}
			return
		}
		defer f.Close()
		var srcErr error
		norm.Source(collector, mrt.NewReader(f), &srcErr)(yield)
		if srcErr != nil && errp != nil && *errp == nil {
			*errp = fmt.Errorf("%s: %w", path, srcErr)
		}
	}
}

// CollectorName derives the collector name from an archive file name,
// stripping the ".updates.mrt" / ".mrt" suffixes the writers use.
func CollectorName(path string) string {
	name := strings.TrimSuffix(filepath.Base(path), ".mrt")
	return strings.TrimSuffix(name, ".updates")
}

// ArchiveSource opens dir's MRT archives behind one concatenated source
// running through a fresh normalizer seeded with the standard synthetic
// registry (allocations backdated to 2009) — the default §4
// configuration shared by the cmd tools. routeServers (may be nil)
// configures the route-server ASN fixup. Archive errors surface through
// check, which reports the first one once the source has been drained;
// the normalizer is returned for Stats inspection. Like all archive
// sources, the result is single-use.
func ArchiveSource(dir string, routeServers map[uint32]bool) (src stream.EventSource, norm *Normalizer, check func() error, err error) {
	norm = NewNormalizer(registry.Synthetic(time.Date(2009, 1, 1, 0, 0, 0, 0, time.UTC)))
	norm.RouteServers = routeServers
	errp := new(error)
	_, sources, err := DirSources(norm, dir, errp)
	if err != nil {
		return nil, nil, nil, err
	}
	return stream.Concat(sources...), norm, func() error { return *errp }, nil
}

// DirSources returns one lazily opened FileSource per "*.mrt" archive in
// dir (sorted by file name, collector names derived from the file names).
// Merging or concatenating them feeds analyses straight from the archives
// written by `evstore gen` without loading whole files. All sources share
// *errp: the first archive error wins and halts the remaining sources,
// and the whole set is single-use per normalizer.
func DirSources(norm *Normalizer, dir string, errp *error) ([]string, []stream.EventSource, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.mrt"))
	if err != nil {
		return nil, nil, err
	}
	if len(paths) == 0 {
		return nil, nil, errors.New("pipeline: no .mrt files in " + dir)
	}
	sort.Strings(paths)
	names := make([]string, len(paths))
	sources := make([]stream.EventSource, len(paths))
	for i, p := range paths {
		names[i] = CollectorName(p)
		sources[i] = FileSource(norm, names[i], p, errp)
	}
	return names, sources, nil
}
