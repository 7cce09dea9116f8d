// Package telemetry is the farm's observability layer: farm counters,
// a structured run journal, a live HTTP introspection endpoint and a
// recorded benchmark trajectory.
//
// The package is a stdlib-only leaf. The farm (internal/fleet), the
// journal analyzer (telemetry/analyze), the root facade, cmd/benchtab,
// cmd/l2journal and perfbench import it; the packet path — internal/bt,
// core, campaign, testbed, metrics and the engine packages — does not,
// and the root package's TestPacketPathImportsNoTelemetry keeps it that
// way.
//
// # Counters
//
// Counters is a fixed set of atomic counters. A job's traffic lands
// once, when the job completes, through Merge: the fleet's engine
// adapters merge the L2Fuzz core's packet, malformed and mutation
// totals from their run reports (so those three count L2Fuzz and
// Campaign jobs only), and the fleet's runJob merges the frames and
// bytes a tap on the job's radio medium counted. Jobs and findings
// land from the fleet's emit path as they happen. Every method is
// safe on a nil receiver, so a farm without telemetry calls them
// unconditionally and allocates nothing.
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
