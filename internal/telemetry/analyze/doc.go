// Package analyze replays a farm run's journal.jsonl into the paper's
// evaluation figures: coverage-over-time series (cumulative malformed
// packets, distinct protocol states, de-duplicated findings against
// wall time — Figures 8–10), per-device/kind/variant wall-time
// histograms, and a per-worker utilization timeline. Everything derives
// from the journal alone — the analyzer never re-runs jobs — and the
// final point of every cumulative series equals the corresponding total
// of the report fleet.ReplayJournal folds from the same journal, a
// correspondence the package's tests pin exactly.
//
// The journal's records are decoded into the farm's own record types
// (internal/fleet/record), the package the farm writes them with, so
// the analyzer depends on the record format and never imports the
// fleet package. It reads schema versions 2 to 4, and like the fleet's
// replay it rejects a job result with a negative duration and returns
// the complete records of a journal with a torn last line. Renderers
// produce aligned text tables (Render*), CSV (*CSV) and self-contained
// SVG documents (*SVG), all deterministic functions of the parsed run
// so outputs are diffable and goldenable. CompareTrend diffs two runs'
// coverage curves — exact on final totals, tolerance-banded on
// normalized area-under-curve — which is the CI regression gate
// cmd/l2journal exposes as "l2journal trend". Diff compares two runs of
// one config job by job on the fields the record types declare
// deterministic ("l2journal diff", the same-behaviour check).
package analyze
