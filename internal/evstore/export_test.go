package evstore

// SetLegacyV1 makes w write the pre-codec v1 partition format
// (EVP1/EVF1, every block deflate, no codec ids) — the compatibility
// tests' way of creating the stores old releases wrote.
func SetLegacyV1(w *Writer) { w.legacyV1 = true }

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
