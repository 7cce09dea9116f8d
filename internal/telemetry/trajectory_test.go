package telemetry

import (
	"strings"
	"testing"
)

func trajFixture() []TrajectorySnapshot {
	return []TrajectorySnapshot{
		{Label: "6", Snapshot: BenchSnapshot{Bench: "BenchmarkFleet", Rows: []BenchRow{
			{Name: "workers=4", Workers: 4, PktsPerSec: 100000, MBPerOp: 700, AllocsPerOp: 29000000},
			{Name: "workers=4/proc", Workers: 4, PktsPerSec: 9000, MBPerOp: 0.2, AllocsPerOp: 1300, ParentOnly: true},
		}}},
		{Label: "9", Snapshot: BenchSnapshot{Bench: "BenchmarkFleet", Rows: []BenchRow{
			{Name: "pre/workers=4", Workers: 4, PktsPerSec: 100000, MBPerOp: 700, AllocsPerOp: 29000000},
			{Name: "workers=4", Workers: 4, PktsPerSec: 200000, MBPerOp: 140, AllocsPerOp: 1600000},
			{Name: "workers=4/proc", Workers: 4, PktsPerSec: 9500, MBPerOp: 0.2, AllocsPerOp: 1300, ParentOnly: true},
		}}},
	}
}

func TestRenderBenchTrajectory(t *testing.T) {
	out := RenderBenchTrajectory(trajFixture())
	for _, want := range []string{
		"workers=4\n",           // row block present
		"(parent process only)", // ParentOnly annotation
		"pkts/s +100%",          // delta vs the PR 6 row
		"allocs -94%",           // the pooling win
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("trajectory missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "pre/") {
		t.Fatalf("pre/ baseline rows must be skipped:\n%s", out)
	}
	if RenderBenchTrajectory(nil) != "benchmark trajectory: no snapshots" {
		t.Fatalf("empty input not handled")
	}
}

// TestParentOnlyRoundTrip pins the schema: the parentOnly marker must
// survive the JSON snapshot format, or proc rows silently read back as
// full-process measurements.
func TestParentOnlyRoundTrip(t *testing.T) {
	s := BenchSnapshot{Bench: "BenchmarkFleet", Rows: []BenchRow{
		{Name: "workers=4/proc", Workers: 4, ParentOnly: true, Packets: 100},
	}}
	got, err := ReadBenchSnapshot(writeSnapshot(t, s))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Rows[0].ParentOnly {
		t.Fatalf("ParentOnly lost in round trip: %+v", got.Rows[0])
	}
}
