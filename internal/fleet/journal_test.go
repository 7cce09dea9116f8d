package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"l2fuzz/internal/telemetry"
)

// journalMatrix is a small finding-producing matrix for the journal
// tests: two catalog devices across the three finding-capable kinds,
// two shards each.
func journalMatrix(workers int) Config {
	return Config{
		Devices:          []string{"D2", "D5"},
		Kinds:            []Kind{KindL2Fuzz, KindRFCOMM, KindCampaign},
		Shards:           2,
		BaseSeed:         7,
		Workers:          workers,
		MaxPacketsPerJob: 20_000,
		CampaignRuns:     2,
	}
}

// TestJournalReplayReproducesReport is the tentpole's acceptance
// criterion: folding a persisted journal back through ReplayJournal
// must reproduce the live farm's Report — including the per-job wall
// times read back from the journal — byte-identically in its rendered
// form and deeply equal as a structure. Only the farm-level Wall is
// exempt: the live farm stamps it from its own clock.
func TestJournalReplayReproducesReport(t *testing.T) {
	var buf bytes.Buffer
	cfg := journalMatrix(4)
	cfg.Journal = telemetry.NewJournal(&buf)
	live, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Journal.Err(); err != nil {
		t.Fatalf("journal error after run: %v", err)
	}
	if len(live.Findings) == 0 {
		t.Fatal("matrix produced no findings; the replay comparison would be vacuous")
	}

	replayed, err := ReplayJournal(journalMatrix(4), bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	live.Wall = 0
	if !reflect.DeepEqual(live, replayed) {
		t.Errorf("replayed report differs from live report:\nlive:     %+v\nreplayed: %+v", live, replayed)
	}
	if l, r := live.Render(), replayed.Render(); l != r {
		t.Errorf("rendered reports differ:\nlive:\n%s\nreplayed:\n%s", l, r)
	}
	if live.TotalJobWall == 0 {
		t.Error("live report has no summed job wall time; the wall comparison was vacuous")
	}
}

// TestJournalReplayRejectsMismatches pins the replay guardrails: a
// journal must carry a farm header and that header must describe the
// matrix the replay config builds.
func TestJournalReplayRejectsMismatches(t *testing.T) {
	var buf bytes.Buffer
	cfg := journalMatrix(2)
	cfg.Journal = telemetry.NewJournal(&buf)
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}

	wrong := journalMatrix(2)
	wrong.Shards = 1
	if _, err := ReplayJournal(wrong, bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("replay with a mismatched matrix succeeded")
	}
	reseeded := journalMatrix(2)
	reseeded.BaseSeed++
	if _, err := ReplayJournal(reseeded, bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("replay under another base seed succeeded")
	}
	outside := regexp.MustCompile(`("type":"job-done","data":\{"job":\{"index":)\d+`).ReplaceAll(buf.Bytes(), []byte("${1}99"))
	if _, err := ReplayJournal(journalMatrix(2), bytes.NewReader(outside)); err == nil {
		t.Error("replay of results for jobs outside the matrix succeeded")
	}
	if _, err := ReplayJournal(journalMatrix(2), strings.NewReader("")); err == nil {
		t.Error("replay of an empty journal succeeded")
	}
}

// TestJournalTornPrefixReplays pins crash consistency: a journal cut at
// any point still decodes and replays its complete records. A cut at a
// line boundary, or one byte before it, leaves only complete records;
// a cut mid-line delivers the records before the torn line and reports
// telemetry.ErrTornJournal. The replay folds exactly the complete
// job-done records.
func TestJournalTornPrefixReplays(t *testing.T) {
	var buf bytes.Buffer
	cfg := journalMatrix(2)
	cfg.Journal = telemetry.NewJournal(&buf)
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	lines := bytes.SplitAfter(data, []byte("\n"))
	lines = lines[:len(lines)-1] // the empty remainder after the last newline
	start, doneLines := 0, 0
	for i, line := range lines {
		end := start + len(line) // just past this line's newline
		for _, cut := range []struct {
			at       int
			complete int
		}{
			{end, i + 1},
			{end - 1, i + 1},
			{start + len(line)/2, i},
		} {
			torn := cut.complete == i
			got := 0
			err := telemetry.DecodeJournal(bytes.NewReader(data[:cut.at]), func(telemetry.Record) error {
				got++
				return nil
			})
			if got != cut.complete || errors.Is(err, telemetry.ErrTornJournal) != torn || (err != nil && !torn) {
				t.Fatalf("cut at byte %d: %d records, err %v; want %d records, torn %v", cut.at, got, err, cut.complete, torn)
			}
			want := doneLines
			if !torn && bytes.Contains(line, []byte(`"type":"job-done"`)) {
				want++
			}
			rep, err := ReplayJournal(journalMatrix(2), bytes.NewReader(data[:cut.at]))
			if cut.complete == 0 {
				if err == nil {
					t.Fatalf("cut at byte %d, inside the header: replay succeeded", cut.at)
				}
				continue
			}
			if rep == nil || errors.Is(err, telemetry.ErrTornJournal) != torn || (err != nil && !torn) {
				t.Fatalf("cut at byte %d: replay err %v, torn %v", cut.at, err, torn)
			}
			if rep.Completed+rep.Failed != want {
				t.Fatalf("cut at byte %d: replay folded %d jobs, want the %d complete job-done records", cut.at, rep.Completed+rep.Failed, want)
			}
		}
		if bytes.Contains(line, []byte(`"type":"job-done"`)) {
			doneLines++
		}
		start = end
	}
	if doneLines != 12 {
		t.Fatalf("journal holds %d job-done records, want the matrix's 12", doneLines)
	}
}

// TestJournalSchemaGolden pins the journal's record schema: the union
// of JSON field paths (with value kinds) per record type, over a
// finding-producing farm plus a counter sample. A record gaining,
// losing or re-typing a field must regenerate the golden deliberately.
func TestJournalSchemaGolden(t *testing.T) {
	var buf bytes.Buffer
	cfg := journalMatrix(4)
	cfg.Journal = telemetry.NewJournal(&buf)
	cfg.Counters = &telemetry.Counters{}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Findings) == 0 {
		t.Fatal("matrix produced no findings; the finding record schema would be unpinned")
	}
	if err := cfg.Journal.Sample(cfg.Counters); err != nil {
		t.Fatal(err)
	}

	paths := make(map[string]bool)
	err = telemetry.DecodeJournal(bytes.NewReader(buf.Bytes()), func(rec telemetry.Record) error {
		var payload any
		if err := json.Unmarshal(rec.Data, &payload); err != nil {
			return err
		}
		flattenJSON(rec.Type, payload, paths)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sorted := make([]string, 0, len(paths))
	for p := range paths {
		sorted = append(sorted, p)
	}
	sort.Strings(sorted)
	got := strings.Join(sorted, "\n") + "\n"

	golden := "testdata/journal_schema.golden"
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
		t.Errorf("journal schema drifted from golden:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// flattenJSON records every field path of a decoded JSON value with its
// terminal kind, e.g. "job-done.summary.States[]:string".
func flattenJSON(prefix string, v any, out map[string]bool) {
	switch x := v.(type) {
	case map[string]any:
		for k, child := range x {
			flattenJSON(prefix+"."+k, child, out)
		}
	case []any:
		for _, child := range x {
			flattenJSON(prefix+"[]", child, out)
		}
	case string:
		out[prefix+":string"] = true
	case float64:
		out[prefix+":number"] = true
	case bool:
		out[prefix+":boolean"] = true
	case nil:
		out[prefix+":null"] = true
	default:
		out[fmt.Sprintf("%s:%T", prefix, v)] = true
	}
}

// ciBaseline is the committed CI-baseline journal: schema version 3,
// recorded on worker subprocesses under ciConfig.
const ciBaseline = "../telemetry/analyze/testdata/ci-baseline.jsonl"

// ciConfig mirrors the CI journaled-farm step's l2farm flags, under
// which ciBaseline was recorded.
func ciConfig() Config {
	return Config{
		Devices:          []string{"D2", "D5"},
		Kinds:            []Kind{KindL2Fuzz, KindRFCOMM, KindSDP, KindSM},
		BaseSeed:         1,
		Workers:          4,
		MaxPacketsPerJob: 20_000,
	}
}

// ciJournal runs ciConfig in process and returns its journal.
func ciJournal(t testing.TB) (*Report, []byte) {
	t.Helper()
	var buf bytes.Buffer
	cfg := ciConfig()
	cfg.Journal = telemetry.NewJournal(&buf)
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Journal.Err(); err != nil {
		t.Fatal(err)
	}
	return rep, buf.Bytes()
}

// TestV3BaselineReplaysLikeALocalRun is the cross-version check of the
// journal reader: the committed version-3 baseline, whose job records
// carry their spec inline, replays under the CI farm's config into the
// report of a fresh local run, wall times and workers scrubbed, and so
// does that run's own version-4 journal, which lists the specs once.
func TestV3BaselineReplaysLikeALocalRun(t *testing.T) {
	v3, err := os.ReadFile(ciBaseline)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(v3, []byte(`"version":3`)) || !bytes.Contains(v3, []byte(`"spec":{`)) {
		t.Fatal("the baseline is no longer a version-3 journal with inline specs")
	}
	live, v4 := ciJournal(t)
	if bytes.Contains(v4, []byte(`"spec":`)) || !bytes.Contains(v4, []byte(`"specs":[`)) {
		t.Fatal("a version-4 journal must carry its specs in the header only")
	}
	live.ScrubWall()
	stripWorkers(live)
	for name, journal := range map[string][]byte{"v3 baseline": v3, "v4 run": v4} {
		rep, err := ReplayJournal(ciConfig(), bytes.NewReader(journal))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rep.ScrubWall()
		stripWorkers(rep)
		if !reflect.DeepEqual(rep.Jobs, live.Jobs) {
			t.Errorf("%s: replayed job results differ from the local run's:\nreplayed: %+v\nlocal:    %+v", name, rep.Jobs, live.Jobs)
		}
		if !reflect.DeepEqual(rep, live) {
			t.Errorf("%s: replayed report differs from the local run's:\nreplayed: %+v\nlocal:    %+v", name, rep, live)
		}
	}

	// A version-4 header's specs must be the config's targets.
	other := bytes.Replace(v4, []byte(`"SignalingMTU":672`), []byte(`"SignalingMTU":48`), 1)
	if bytes.Equal(other, v4) {
		t.Fatal("no spec field to change in the v4 journal")
	}
	if _, err := ReplayJournal(ciConfig(), bytes.NewReader(other)); err == nil || !strings.Contains(err.Error(), "specs") {
		t.Errorf("replay of a journal of other target specs: got %v, want a spec mismatch", err)
	}
}
