package telemetry

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// writeSnapshot writes s as a committed BENCH_<pr>.json is written,
// indented JSON plus a newline, and returns the file's path.
func writeSnapshot(t *testing.T, s BenchSnapshot) string {
	t.Helper()
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestBenchSnapshotRoundTrip(t *testing.T) {
	s := BenchSnapshot{
		Bench: "BenchmarkFleet", Go: "go1.24.0", GOOS: "linux", GOARCH: "amd64", CPUs: 2, MaxProcs: 2,
		Rows: []BenchRow{
			{Name: "workers=1", Workers: 1, Packets: 100, PktsPerSec: 50},
			{Name: "workers=4/telemetry", Workers: 4, Telemetry: true, Packets: 400},
		},
	}
	got, err := ReadBenchSnapshot(writeSnapshot(t, s))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Fatalf("round trip diverged:\ngot  %+v\nwant %+v", got, s)
	}
}
