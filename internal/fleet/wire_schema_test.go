package fleet

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"

	"l2fuzz/internal/fleet/record"
)

// TestWireSchemaGolden pins the worker wire protocol's message schema:
// the union of JSON field paths (with value kinds) per message type,
// over a finding-producing job matrix executed through workerRun — the
// exact code path a worker subprocess runs. A message gaining, losing
// or re-typing a field is a protocol change and must regenerate the
// golden deliberately (and bump wireVersion when old peers would
// mis-read the frames).
func TestWireSchemaGolden(t *testing.T) {
	paths := make(map[string]bool)
	flatten := func(prefix string, v any) {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("marshal %s: %v", prefix, err)
		}
		var decoded any
		if err := json.Unmarshal(data, &decoded); err != nil {
			t.Fatalf("unmarshal %s: %v", prefix, err)
		}
		flattenJSON(prefix, decoded, paths)
	}

	flatten("hello", wireHello{Version: wireVersion, PID: 4242})
	cfg, err := journalMatrix(1).withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	fc := wireFarm{Version: wireVersion, CampaignRuns: 2, Variants: AblationVariants(), Targets: cfg.targets, Record: true, Counters: true}
	full := fc
	full.MeasurementGrade = true
	flatten("farm", full)

	findings := 0
	for _, job := range buildJobs(cfg) {
		wj := wireJob{Job: record.Job(job)}
		flatten("job", wj)
		wr := workerRun(fc, wj)
		if wr.Err != "" {
			t.Fatalf("job %d failed: %s", wj.Index, wr.Err)
		}
		findings += len(wr.Findings)
		flatten("result", wr)
	}
	if findings == 0 {
		t.Fatal("matrix produced no findings; the occurrence schema would be unpinned")
	}
	// An errored result, for the err field omitempty hides on success.
	bogus := wireJob{Job: record.Job(buildJobs(cfg)[0])}
	bogus.Kind = Kind("no-such-kind")
	if wr := workerRun(fc, bogus); wr.Err == "" {
		t.Fatal("bogus kind produced no error; the err schema would be unpinned")
	} else {
		flatten("result", wr)
	}

	sorted := make([]string, 0, len(paths))
	for p := range paths {
		sorted = append(sorted, p)
	}
	sort.Strings(sorted)
	got := strings.Join(sorted, "\n") + "\n"

	golden := "testdata/wire_schema.golden"
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (rerun with -update to regenerate): %v", err)
	}
	if got != string(want) {
		t.Errorf("wire schema drifted from golden:\ngot:\n%s\nwant:\n%s", got, want)
	}
}
