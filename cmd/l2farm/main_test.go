package main

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"l2fuzz/internal/corpus"
	"l2fuzz/internal/fleet"
	"l2fuzz/internal/telemetry"
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
		{"-devices", "D2", "-quiet", "-exec", "proc", "-telemetry", "bad::addr", "-journal", dir},
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

// crashFarmArgs runs the fleet package's crash-consistency matrix
// (crashFarmConfig there) through l2farm's flags: armed D2 and D5 under
// L2Fuzz and RFCOMM with small budgets, so corpus writes land
// throughout the run, into ./corpus with a journal under ./runs.
var crashFarmArgs = []string{
	"-devices", "D2,D5", "-fuzzers", "l2fuzz,rfcomm", "-shards", "4",
	"-max-packets", "30000", "-workers", "2", "-seed", "19", "-quiet",
	"-corpus", "corpus", "-journal", "runs",
}

// crashFarmConfig is the farm config crashFarmArgs builds, which its
// journal replays under.
func crashFarmConfig() fleet.Config {
	return fleet.Config{
		Devices:          []string{"D2", "D5"},
		Kinds:            []fleet.Kind{fleet.KindL2Fuzz, fleet.KindRFCOMM},
		Shards:           4,
		BaseSeed:         19,
		Workers:          2,
		MaxPacketsPerJob: 30_000,
	}
}

// runCrashFarm runs l2farm with crashFarmArgs in dir and waits for it
// to announce its journal, which it does only once the farm has
// started. A non-negative kill is the delay after which the child is
// sent SIGKILL; otherwise it runs to the end. It returns the child's
// time from the announcement to its exit and whether the farm finished,
// which is when it has printed its report.
func runCrashFarm(t *testing.T, dir string, kill time.Duration) (time.Duration, bool) {
	t.Helper()
	cmd := exec.Command(os.Args[0], crashFarmArgs...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), l2farmEnv+"=1")
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	var log strings.Builder
	sc := bufio.NewScanner(stderr)
	for sc.Scan() && !strings.Contains(sc.Text(), "journaling to") {
		log.WriteString(sc.Text() + "\n")
	}
	if sc.Err() != nil || !strings.Contains(sc.Text(), "journaling to") {
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatalf("l2farm did not start its farm: %v\n%s", sc.Err(), log.String())
	}
	start := time.Now()
	if kill >= 0 {
		time.Sleep(kill)
		cmd.Process.Kill() // fails harmlessly if the child has exited
	}
	io.Copy(&log, stderr)
	waitErr := cmd.Wait()
	elapsed := time.Since(start)
	finished := stdout.Len() > 0
	if kill < 0 && (waitErr != nil || !finished) {
		t.Fatalf("l2farm failed: %v\n%s", waitErr, log.String())
	}
	return elapsed, finished
}

// checkCrashFarm asserts that what a killed l2farm left in dir is
// readable: every key the store lists loads, validates and replays to
// its own signature, and the journal decodes, at worst with a torn last
// record, and replays under the farm's config. Replay is deterministic,
// so an entry whose file is in replayed, byte for byte, is not replayed
// again. It returns the number of stored entries.
func checkCrashFarm(t *testing.T, dir string, replayed map[string]bool) int {
	t.Helper()
	corpusDir := filepath.Join(dir, "corpus")
	store, err := corpus.Open(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	keys, err := store.Keys()
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range keys {
		e, err := store.GetKey(key)
		if err == nil {
			err = e.Validate()
		}
		if err != nil {
			t.Errorf("entry %s: %v", key, err)
			continue
		}
		data, err := os.ReadFile(filepath.Join(corpusDir, key+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if replayed[string(data)] {
			continue
		}
		replayed[string(data)] = true
		res, err := corpus.Replay(e, corpus.ReplayConfig{})
		if err != nil {
			t.Errorf("entry %s: replay: %v", key, err)
		} else if !res.Reproduced || res.Signature != e.Signature {
			t.Errorf("entry %s replays to %v (reproduced %v), want %v", key, res.Signature, res.Reproduced, e.Signature)
		}
	}

	path, err := analyze.ResolveJournal(filepath.Join(dir, "runs"))
	if err != nil {
		t.Fatal(err)
	}
	journal, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	err = telemetry.DecodeJournal(bytes.NewReader(journal), func(telemetry.Record) error { return nil })
	if err != nil && !errors.Is(err, telemetry.ErrTornJournal) {
		t.Errorf("journal does not decode: %v", err)
	}
	rep, err := fleet.ReplayJournal(crashFarmConfig(), bytes.NewReader(journal))
	if rep == nil || err != nil && !errors.Is(err, telemetry.ErrTornJournal) {
		t.Errorf("journal does not replay: report %v, %v", rep != nil, err)
	}
	return len(keys)
}

// TestKilledL2farmLeavesReadableArtefacts SIGKILLs the l2farm command
// while it writes a corpus and a journal, at seeded delays spread
// across one timed full run. The store is a finding's repro trace's
// only holder, so whatever a kill leaves there must load and replay.
// Kills that land after the farm finished are still checked but do not
// count: the test fails if none landed mid-farm.
func TestKilledL2farmLeavesReadableArtefacts(t *testing.T) {
	replayed := make(map[string]bool)
	dir := t.TempDir()
	full, _ := runCrashFarm(t, dir, -1)
	if n := checkCrashFarm(t, dir, replayed); n == 0 {
		t.Fatal("the full farm stored no entries; the kills would check nothing")
	}
	const kills = 8
	rng := rand.New(rand.NewSource(19))
	mid := 0
	for i := 0; i < kills; i++ {
		dir := t.TempDir()
		delay := time.Duration(rng.Int63n(int64(full)))
		_, finished := runCrashFarm(t, dir, delay)
		entries := checkCrashFarm(t, dir, replayed)
		if !finished {
			mid++
		}
		t.Logf("kill at %v of %v: finished=%v, %d entries", delay.Round(time.Millisecond), full.Round(time.Millisecond), finished, entries)
	}
	t.Logf("%d of %d kills landed mid-farm", mid, kills)
	if mid == 0 {
		t.Fatalf("none of %d kills landed before the farm finished; the test checked nothing mid-farm", kills)
	}
}
