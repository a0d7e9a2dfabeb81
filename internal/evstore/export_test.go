package evstore

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
