package telemetry

import (
	"encoding/json"
	"fmt"
	"os"
)

// BenchRow is one measured configuration of a bench snapshot.
type BenchRow struct {
	// Name labels the row, e.g. "workers=4" or "workers=4/telemetry".
	Name string `json:"name"`
	// Workers is the farm's worker count for this row.
	Workers int `json:"workers"`
	// Telemetry marks rows measured with counters and journaling on.
	Telemetry bool `json:"telemetry,omitempty"`
	// Packets and Findings describe the measured run's output.
	Packets  int64 `json:"packets"`
	Findings int   `json:"findings"`
	// WallSeconds is the run's wall-clock duration.
	WallSeconds float64 `json:"wallSeconds"`
	// PktsPerSec is Packets / WallSeconds.
	PktsPerSec float64 `json:"pktsPerSec"`
	// MBPerOp is megabytes allocated over the run.
	MBPerOp float64 `json:"mbPerOp"`
	// AllocsPerOp is heap allocations over the run.
	AllocsPerOp int64 `json:"allocsPerOp"`
	// ParentOnly marks rows whose MBPerOp/AllocsPerOp cover only the
	// measuring (parent) process: process-isolated executor rows run the
	// actual fuzzing in worker subprocesses, whose allocations
	// runtime.MemStats cannot see. Renderers must not compare such a
	// row's allocation columns against in-process rows.
	ParentOnly bool `json:"parentOnly,omitempty"`
}

// BenchSnapshot is a committed benchmark trajectory datum
// (BENCH_<pr>.json): one row per measured configuration plus enough
// host context to compare run-over-run.
type BenchSnapshot struct {
	// Bench names the benchmark the rows came from.
	Bench string `json:"bench"`
	// Go, GOOS, GOARCH, CPUs and MaxProcs pin the measuring host.
	Go       string     `json:"go"`
	GOOS     string     `json:"goos"`
	GOARCH   string     `json:"goarch"`
	CPUs     int        `json:"cpus"`
	MaxProcs int        `json:"maxprocs"`
	Rows     []BenchRow `json:"rows"`
}

// ReadBenchSnapshot reads a committed snapshot.
func ReadBenchSnapshot(path string) (BenchSnapshot, error) {
	var s BenchSnapshot
	data, err := os.ReadFile(path)
	if err != nil {
		return s, fmt.Errorf("telemetry: %w", err)
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("telemetry: %s: %w", path, err)
	}
	return s, nil
}
