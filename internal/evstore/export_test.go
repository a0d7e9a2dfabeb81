package evstore

import "os"

// DropSnapshot makes ix forget the sidecar it holds for partPath — the
// state a partition sealed after a refresh's build pass is in until the
// next refresh — so tests can plan a scan where no sidecar exists.
func DropSnapshot(ix *SnapshotIndex, partPath string) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	snaps := make(map[string]*PartitionSnapshot, len(ix.snaps))
	for path, snap := range ix.snaps {
		if path != partPath {
			snaps[path] = snap
		}
	}
	ix.snaps = snaps
}

// SetFooterCounts rewrites partPath's footer in place with edit applied
// to the per-block event counts — the doctored footer a decode must not
// trust over the blocks themselves. Payload bytes and (for same-width
// varints) the file size are untouched.
func SetFooterCounts(partPath string, edit func(counts []int)) error {
	p, f, err := readPartition(partPath)
	if err != nil {
		return err
	}
	f.Close()
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
