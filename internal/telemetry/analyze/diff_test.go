package analyze_test

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"l2fuzz/internal/fleet"
	"l2fuzz/internal/telemetry"
	"l2fuzz/internal/telemetry/analyze"
)

// TestDiffNamesTheChangedField runs Diff on the committed baseline
// against copies of it with one record changed: each difference is
// named by its job (or signature) and its first differing field, and
// the baseline against itself has none.
func TestDiffNamesTheChangedField(t *testing.T) {
	base, err := os.ReadFile(filepath.Join("testdata", "ci-baseline.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	job2 := regexp.MustCompile(`(?m)^.*"type":"job-done","data":\{"job":\{"index":2,.*$`)
	if !job2.Match(base) {
		t.Fatal("the baseline holds no job-done record of job 2")
	}
	edit := func(line *regexp.Regexp, from, to string) func([]byte) []byte {
		return func(j []byte) []byte {
			return line.ReplaceAllFunc(j, func(l []byte) []byte {
				return regexp.MustCompile(from).ReplaceAll(l, []byte(to))
			})
		}
	}
	for _, tc := range []struct {
		name string
		edit func([]byte) []byte
		want []string
	}{
		{"unchanged", func(j []byte) []byte { return j }, nil},
		{"wall-clock fields", edit(job2, `"wallNs":\d+`, `"wallNs":1`), nil},
		{"a seed", edit(job2, `"seed":\d+`, `"seed":42`), []string{"job 2 (D2 SDP baseline/0): job.seed:"}},
		{"a budget", edit(job2, `"maxPackets":\d+`, `"maxPackets":7`), []string{"job 2 (D2 SDP baseline/0): job.maxPackets: 20000 != 7"}},
		{"a count", edit(job2, `"packetsSent":(\d+)`, `"packetsSent":1${1}`), []string{"job 2 (D2 SDP baseline/0): packetsSent:"}},
		{"a summary field", edit(job2, `"Malformed":\d+`, `"Malformed":7`), []string{"job 2 (D2 SDP baseline/0): summary.Malformed:"}},
		{"a lost job", edit(job2, `.+`, ``), []string{"job 2 (D2 SDP baseline/0): only in A"}},
		{"a finding", edit(regexp.MustCompile(`(?m)^.*"type":"finding".*"state":14,"psm":1,.*$`), `"Known":false`, `"Known":true`),
			[]string{"finding Connection Failed in OPEN on PSM(0x0001): record.Known: false != true"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			changed := tc.edit(bytes.Clone(base))
			a, err := analyze.Parse(bytes.NewReader(base))
			if err != nil {
				t.Fatal(err)
			}
			b, err := analyze.Parse(bytes.NewReader(changed))
			if err != nil {
				t.Fatal(err)
			}
			got := analyze.Diff(a, b)
			if len(got) != len(tc.want) {
				t.Fatalf("Diff = %q, want %d lines", got, len(tc.want))
			}
			for i, w := range tc.want {
				if !strings.HasPrefix(got[i], w) {
					t.Errorf("Diff line %d = %q, want it to start %q", i, got[i], w)
				}
			}
		})
	}
}

// TestDiffAcrossSchemaVersions is the CI diff step in Go: the committed
// version-3 baseline, recorded on worker subprocesses, agrees with a
// fresh in-process run's version-4 journal, and two version-4 journals
// are compared on their header specs too.
func TestDiffAcrossSchemaVersions(t *testing.T) {
	var buf bytes.Buffer
	cfg := ciConfig()
	cfg.Journal = telemetry.NewJournal(&buf)
	if _, err := fleet.Run(cfg); err != nil {
		t.Fatal(err)
	}
	v4, err := analyze.Parse(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(v4.Header.Specs) != 2 {
		t.Fatalf("v4 header carries %d specs, want the 2 targets'", len(v4.Header.Specs))
	}
	if d := analyze.Diff(fixtureRun(t), v4); len(d) != 0 {
		t.Errorf("v3 baseline and v4 run differ:\n%s", strings.Join(d, "\n"))
	}
	other, err := analyze.Parse(bytes.NewReader(bytes.Replace(buf.Bytes(), []byte(`"SignalingMTU":672`), []byte(`"SignalingMTU":48`), 1)))
	if err != nil {
		t.Fatal(err)
	}
	if d := analyze.Diff(v4, other); len(d) != 1 || d[0] != "spec D2: Config.Profile.SignalingMTU: 672 != 48" {
		t.Errorf("Diff of a changed header spec = %q", d)
	}
}
