package evstore

import "os"

// FooterParses returns how many partition footers this process has
// parsed so far: what a query or a Refresh read from footers is the
// difference across it.
func FooterParses() int64 { return footerParses.Load() }

// DropSnapshot makes ix forget the sidecar it holds for partPath, so
// tests can plan a scan where no sidecar is trusted (a partition whose
// sidecar is missing or stale at the index's last refresh).
func DropSnapshot(ix *SnapshotIndex, partPath string) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	v := *ix.view
	v.snaps = make(map[string]*PartitionSnapshot, len(ix.view.snaps))
	for path, snap := range ix.view.snaps {
		if path != partPath {
			v.snaps[path] = snap
		}
	}
	ix.view = &v
}

// SetFooterCounts rewrites partPath's footer in place with edit applied
// to the per-block event counts — the doctored footer a decode must not
// trust over the blocks themselves. Payload bytes and (for same-width
// varints) the file size are untouched.
func SetFooterCounts(partPath string, edit func(counts []int)) error {
	p, err := parseFooter(partPath)
	if err != nil {
		return err
	}
	counts := make([]int, len(p.blocks))
	for i, bm := range p.blocks {
		counts[i] = bm.sum.count
	}
	edit(counts)
	for i := range p.blocks {
		p.blocks[i].sum.count = counts[i]
	}
	raw, err := os.ReadFile(partPath)
	if err != nil {
		return err
	}
	last := p.blocks[len(p.blocks)-1]
	return os.WriteFile(partPath, appendFooter(raw[:last.offset+int64(last.clen)], p.blocks), 0o644)
}
