package fleet

// Crash consistency: a farm killed with SIGKILL at any instant must
// leave a corpus and a journal the tools can still read. The test
// re-execs this test binary (see TestMain) as a farm writing both, and
// kills it at seeded points across one timed full run.

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"l2fuzz/internal/corpus"
	"l2fuzz/internal/telemetry"
)

// crashFarmRole is the workerEnv value that makes TestMain run
// crashFarm.
const crashFarmRole = "crash-farm"

// crashFarmConfig is the killed farm's matrix: armed D2 and D5 under
// L2Fuzz and RFCOMM with small budgets, so findings, and with them
// corpus writes, land throughout the run.
func crashFarmConfig() Config {
	return Config{
		Devices:          []string{"D2", "D5"},
		Kinds:            []Kind{KindL2Fuzz, KindRFCOMM},
		Shards:           4,
		BaseSeed:         19,
		Workers:          2,
		MaxPacketsPerJob: 30_000,
	}
}

// crashFarm runs crashFarmConfig with a corpus in ./corpus and a
// journal in ./run. It prints "started" once the journal header is
// written and "done" once the farm has finished.
func crashFarm(out io.Writer) error {
	store, err := corpus.Open("corpus")
	if err != nil {
		return err
	}
	j, err := telemetry.OpenJournal("run")
	if err != nil {
		return err
	}
	cfg := crashFarmConfig()
	cfg.Corpus, cfg.Journal = store, j
	farm, err := Start(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "started")
	for range farm.Events() {
	}
	farm.Wait()
	if err := j.Close(); err != nil {
		return err
	}
	fmt.Fprintln(out, "done")
	return nil
}

// runCrashFarm starts a crashFarm child in dir and waits for it to
// start. kill, if non-nil, receives the delay after which the child is
// killed; the child otherwise runs to the end. It returns the child's
// time from start to exit and whether it finished the farm.
func runCrashFarm(t *testing.T, dir string, kill *time.Duration) (time.Duration, bool) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), workerEnv+"="+crashFarmRole)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(stdout)
	if line, err := r.ReadString('\n'); err != nil || line != "started\n" {
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatalf("crash farm did not start: %q, %v", line, err)
	}
	start := time.Now()
	if kill != nil {
		time.Sleep(*kill)
		cmd.Process.Kill() // fails harmlessly if the child has exited
	}
	rest, _ := io.ReadAll(r)
	waitErr := cmd.Wait()
	elapsed := time.Since(start)
	finished := string(rest) == "done\n"
	if kill == nil && (waitErr != nil || !finished) {
		t.Fatalf("crash farm failed: %v, output %q", waitErr, rest)
	}
	return elapsed, finished
}

// checkKilledFarm asserts what a killed farm leaves behind is readable:
// the store lists no temp file and every listed entry loads, validates
// and replays to its own signature; the journal decodes, at worst with
// a torn last line, and replays into a report. Replay is deterministic,
// so an entry whose file is in replayed, byte for byte, is not replayed
// again. It returns the number of stored entries and of temp files
// left behind.
func checkKilledFarm(t *testing.T, dir string, replayed map[string]bool) (entries, temps int) {
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
		if strings.Contains(key, ".tmp-") {
			t.Errorf("store lists temp file %q", key)
			continue
		}
		e, err := store.GetKey(key)
		if err != nil {
			t.Errorf("entry %s: %v", key, err)
			continue
		}
		if err := e.Validate(); err != nil {
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
	names, err := os.ReadDir(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range names {
		if strings.Contains(de.Name(), ".tmp-") {
			temps++
		}
	}

	journal, err := os.ReadFile(filepath.Join(dir, "run", telemetry.JournalFile))
	if err != nil {
		t.Fatal(err)
	}
	err = telemetry.DecodeJournal(bytes.NewReader(journal), func(telemetry.Record) error { return nil })
	if err != nil && !errors.Is(err, telemetry.ErrTornJournal) {
		t.Errorf("journal does not decode: %v", err)
	}
	rep, err := ReplayJournal(crashFarmConfig(), bytes.NewReader(journal))
	if rep == nil || err != nil && !errors.Is(err, telemetry.ErrTornJournal) {
		t.Errorf("journal does not replay: report %v, %v", rep != nil, err)
	}
	return len(keys), temps
}

// TestKilledFarmLeavesReadableArtefacts SIGKILLs a farm writing a
// corpus and a journal at seeded delays spread across one timed full
// run, and checks what each kill leaves behind. Kills that land after
// the farm finished are still checked but do not count: the test fails
// if none landed mid-farm.
func TestKilledFarmLeavesReadableArtefacts(t *testing.T) {
	full, _ := runCrashFarm(t, t.TempDir(), nil)
	const kills = 8
	rng := rand.New(rand.NewSource(19))
	mid, temps := 0, 0
	replayed := make(map[string]bool)
	for i := 0; i < kills; i++ {
		dir := t.TempDir()
		delay := time.Duration(rng.Int63n(int64(full)))
		_, finished := runCrashFarm(t, dir, &delay)
		entries, left := checkKilledFarm(t, dir, replayed)
		if !finished {
			mid++
		}
		temps += left
		t.Logf("kill at %v of %v: finished=%v, %d entries, %d temp files", delay.Round(time.Millisecond), full.Round(time.Millisecond), finished, entries, left)
	}
	t.Logf("%d of %d kills landed mid-farm; %d temp files left behind", mid, kills, temps)
	if mid == 0 {
		t.Fatalf("none of %d kills landed before the farm finished; the test checked nothing mid-farm", kills)
	}
}
