package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	"l2fuzz/internal/telemetry/analyze"
)

// l2farmEnv makes a re-executed test binary run as l2farm, so the
// tests drive the real command line without building a binary.
const l2farmEnv = "L2FARM_TEST_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(l2farmEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// l2farm runs this test binary as l2farm with args.
func l2farm(args ...string) (string, error) {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), l2farmEnv+"=1")
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// TestRefusedFarmLeavesNoJournal pins that a farm refused at start
// leaves no run directory under -journal: an empty journal there would
// be the newest run, and l2journal would read it instead of the last
// complete one.
func TestRefusedFarmLeavesNoJournal(t *testing.T) {
	dir := t.TempDir()
	if out, err := l2farm("-devices", "D2", "-max-packets", "2000", "-quiet", "-journal", dir); err != nil {
		t.Fatalf("complete farm: %v\n%s", err, out)
	}
	complete, err := analyze.ResolveJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-devices", "D9", "-quiet", "-journal", dir},
		{"-devices", "D2", "-quiet", "-exec", "proc", "-procs", "-3", "-journal", dir},
	} {
		out, err := l2farm(args...)
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("l2farm %v: %v, want exit status 1\n%s", args, err, out)
		}
		if strings.Contains(out, "journaling to") {
			t.Errorf("l2farm %v announced a journal for a refused farm:\n%s", args, out)
		}
		if got, err := analyze.ResolveJournal(dir); err != nil || got != complete {
			t.Errorf("after l2farm %v the journal resolves to %q (%v), want the complete run %q", args, got, err, complete)
		}
		if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 {
			t.Errorf("after l2farm %v the journal directory holds %d entries (%v), want the complete run alone", args, len(entries), err)
		}
	}
}
