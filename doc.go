// Package repro reproduces "Keep your Communities Clean: Exploring the
// Routing Message Impact of BGP Communities" (Krenc, Beverly, Smaragdakis —
// CoNEXT 2020) as a Go library: BGP-4 and MRT codecs, a vendor-faithful
// BGP speaker simulator with the paper's lab experiments and a scenario
// sweep (internal/simnet over internal/topo), synthetic collector
// workloads, the §4 cleaning pipeline, and the §5 classifier feeding
// mergeable analyzers — each table and figure is an accumulator
// (Observe/Merge/Finish/Fresh plus Snapshot/Restore), so N questions run
// in one classification pass (analysis.RunAll).
//
// Measurement at scale goes through internal/evstore, a columnar event
// store whose one planner and shard executor (plan.go) answers every
// store analysis — cold, sequential, or warm from per-partition snapshot
// sidecars — bit-identically to that sequential pass. internal/ingest
// (cmd/bgpcollect) seals live feeds into the store; internal/serve
// (cmd/commservd, single node or coordinator + shards) keeps the
// sidecars warm and answers windowed HTTP queries behind a cache;
// internal/obs and bench/ (see BENCHMARK.json) make the daemons
// observable and their performance comparable commit to commit. README.md has the layout; bench_test.go
// regenerates each table and figure.
package repro
