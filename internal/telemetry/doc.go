// Package telemetry is the farm's observability layer: hot-path
// counters, a structured run journal, a live HTTP introspection
// endpoint and a recorded benchmark trajectory.
//
// The package is a stdlib-only leaf — fleet, testbed and core all
// import it, so it must import none of them.
//
// # Counters
//
// Counters is a fixed set of atomic counters the packet path and the
// worker loop bump as they run: frames and bytes carried on the radio
// medium (tapped in testbed), packets, malformed packets and mutations
// generated by the core fuzzer, and jobs/findings from the fleet's
// emit path. Every method is safe on a nil receiver, so instrumented
// code calls them unconditionally — an un-instrumented run pays one
// nil check per event and allocates nothing.
//
// # Run journal
//
// Journal serializes a farm run as timestamped JSONL: one envelope
// record per line ({"time", "type", "data"}), carrying the farm
// header, every job start, every job result, every de-duplicated
// finding and periodic counter samples (Sample / StartSampler). The
// farm's record payloads are declared in internal/fleet/record; the
// fleet package re-folds a persisted journal into the same Report the
// live farm produced (fleet.ReplayJournal), and the schema is pinned by
// a golden test there. DecodeJournal reads a journal back, delivering
// the complete records of one whose last line was torn mid-write
// (ErrTornJournal).
//
// # Live endpoint
//
// NewHandler / Serve expose a running farm over HTTP: the counters as
// expvar (/debug/vars, published under "l2farm") and as Prometheus
// text format (/metrics), a caller-supplied aggregate snapshot as JSON
// (/snapshot), and net/http/pprof (/debug/pprof/) so CPU and
// allocation profiles of a live farm are one `go tool pprof` away.
// cmd/l2farm wires this behind its -telemetry flag.
//
// # Bench trajectory
//
// BenchSnapshot is the schema of a committed BenchmarkFleet measurement
// (BENCH_<pr>.json at the repository root, recorded by the root
// package's TestBenchSnapshot): packets per second, MB and allocations
// consumed per run, per worker count, so the performance trajectory of
// the fleet orchestrator is a diffable file rather than a number in a
// PR description. ReadBenchSnapshot loads one and
// RenderBenchTrajectory renders a series of them.
package telemetry
