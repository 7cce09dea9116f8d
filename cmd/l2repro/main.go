// Command l2repro works a persistent finding corpus (the directory a
// corpus-backed farm — l2farm -corpus — writes): it lists stored
// findings and replays, minimizes or triages one of them by signature
// key on a fresh simulated rig.
//
// Replay re-drives the entry's recorded operation sequence — pages,
// link drops, exact wire packets — against a freshly built testbed of
// the same target and verifies the crash still fires with the recorded
// (state, PSM, error-class) signature, classifying the outcome exactly
// as the original detection did. Minimize delta-debugs the trace to a
// minimal operation sequence that still reproduces the signature (the
// minimal witness), and -write stores the minimized trace back.
// Triage feeds the freshly reproduced device dump to the root-cause
// analyzer and prints its report.
//
// Regress is the corpus as a regression gate: it replays every stored
// entry in parallel and exits nonzero if any signature stops
// reproducing — wired into CI, yesterday's findings stay reproducible
// on today's code or the build fails. -jobs bounds the replay
// parallelism (0 = GOMAXPROCS). With -minimize the gate is stricter:
// every reproducing witness must also still delta-debug to a minimal
// trace, so a minimizer/replayer divergence fails the build as well.
//
// A zero -jobs or -max-replays means its default; a negative one is
// refused with an error naming the flag.
//
// Every entry rebuilds its own target: a catalog device ("D1".."D8") by
// its ID, a custom target from the spec the entry embeds. -device-file
// (the JSON format l2farm accepts) rebuilds the entries recorded
// against its spec's name from that spec instead, and leaves entries of
// other targets as they are.
//
// Usage:
//
//	l2repro -corpus DIR list
//	l2repro -corpus DIR [-device-file spec.json] [-dump] replay KEY
//	l2repro -corpus DIR [-device-file spec.json] [-write] [-max-replays N] minimize KEY
//	l2repro -corpus DIR [-device-file spec.json] triage KEY
//	l2repro -corpus DIR [-device-file spec.json] [-jobs N] [-minimize] regress
//
// Examples:
//
//	l2farm -corpus findings/ -fuzzers all
//	l2repro -corpus findings/ list
//	l2repro -corpus findings/ replay connection-reset--open--0x0003
//	l2repro -corpus findings/ -write minimize connection-reset--open--0x0003
//	l2repro -corpus findings/ triage connection-failed--wait-config--0x1001
//	l2repro -corpus findings/ regress     # CI gate: all entries must reproduce
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync"

	"l2fuzz"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "l2repro:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		corpusDir  = flag.String("corpus", "", "corpus directory (required; the directory l2farm -corpus wrote)")
		deviceFile = flag.String("device-file", "", "JSON target spec that rebuilds the entries recorded against its name")
		dump       = flag.Bool("dump", false, "replay: print the reproduced crash artefact")
		write      = flag.Bool("write", false, "minimize: store the minimized trace back into the corpus")
		maxReplays = flag.Int("max-replays", 0, "minimize/regress -minimize: cap verification replays (0 = library default)")
		jobs       = flag.Int("jobs", 0, "regress: parallel replay workers (0 = GOMAXPROCS)")
		regressMin = flag.Bool("minimize", false, "regress: additionally require every witness to still minimize")
	)
	flag.Parse()
	if *corpusDir == "" {
		return fmt.Errorf("-corpus DIR is required")
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"jobs", *jobs}, {"max-replays", *maxReplays}} {
		if f.v < 0 {
			return fmt.Errorf("negative -%s %d", f.name, f.v)
		}
	}
	args := flag.Args()
	if len(args) == 0 {
		return fmt.Errorf("want a command: list, regress, replay KEY, minimize KEY, or triage KEY")
	}
	store, err := l2fuzz.OpenCorpus(*corpusDir)
	if err != nil {
		return err
	}

	var spec *l2fuzz.DeviceSpec
	if *deviceFile != "" {
		data, err := os.ReadFile(*deviceFile)
		if err != nil {
			return err
		}
		s, err := l2fuzz.ParseDeviceSpec(data)
		if err != nil {
			return fmt.Errorf("%s: %w", *deviceFile, err)
		}
		spec = &s
	}
	rcfg := l2fuzz.CorpusReplayConfig{Spec: spec}

	cmd, args := args[0], args[1:]
	if cmd == "list" {
		if len(args) != 0 {
			return fmt.Errorf("list takes no arguments")
		}
		return list(store)
	}
	if cmd == "regress" {
		if len(args) != 0 {
			return fmt.Errorf("regress takes no arguments")
		}
		return regress(store, rcfg, *jobs, *regressMin, *maxReplays)
	}
	if len(args) != 1 {
		return fmt.Errorf("%s takes exactly one signature key (see: l2repro -corpus %s list)", cmd, *corpusDir)
	}
	entry, err := store.GetKey(args[0])
	if err != nil {
		return err
	}
	switch cmd {
	case "replay":
		return replay(entry, rcfg, *dump)
	case "minimize":
		return minimize(store, entry, rcfg, *write, *maxReplays)
	case "triage":
		return triage(entry, rcfg)
	default:
		return fmt.Errorf("unknown command %q (have list, replay, minimize, triage, regress)", cmd)
	}
}

func list(store *l2fuzz.CorpusStore) error {
	entries, err := store.Entries()
	if err != nil {
		return err
	}
	if len(entries) == 0 {
		fmt.Println("corpus is empty")
		return nil
	}
	fmt.Printf("%d stored finding(s):\n", len(entries))
	for _, e := range entries {
		status := fmt.Sprintf("%d ops", len(e.Trace.Ops))
		if e.Trace.Truncated {
			status += " (truncated)"
		}
		fmt.Printf("  %-45s %s (%s) via %s on %s, seed %d, %s\n",
			l2fuzz.CorpusKey(e.Signature), e.Signature, e.Finding.Error.Severity(),
			e.Kind, e.Trace.Target, e.Trace.Seed, status)
	}
	return nil
}

// regress replays every stored entry on a bounded worker pool and
// fails if any signature stops reproducing — the corpus as a CI
// regression gate. With minimize set, each reproducing entry must
// additionally survive delta-debugging: an entry whose minimization
// errors out fails the gate too (a witness that reproduces but can no
// longer be minimized usually means the replay path and the minimizer
// disagree about the trace). Output follows the store's listing order
// regardless of replay scheduling.
func regress(store *l2fuzz.CorpusStore, rcfg l2fuzz.CorpusReplayConfig, jobs int, minimize bool, maxReplays int) error {
	entries, err := store.Entries()
	if err != nil {
		return err
	}
	if len(entries) == 0 {
		fmt.Println("corpus is empty; nothing to regress")
		return nil
	}
	if jobs == 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	type outcome struct {
		res    *l2fuzz.CorpusReplayResult
		err    error
		min    *l2fuzz.CorpusMinimizeResult
		minErr error
	}
	outcomes := make([]outcome, len(entries))
	sem := make(chan struct{}, jobs)
	var wg sync.WaitGroup
	for i, e := range entries {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			res, err := l2fuzz.ReplayCorpusEntry(e, rcfg)
			o := outcome{res: res, err: err}
			if minimize && err == nil && res.Reproduced {
				o.min, o.minErr = l2fuzz.MinimizeCorpusEntry(e, l2fuzz.CorpusMinimizeConfig{
					ReplayConfig: rcfg,
					MaxReplays:   maxReplays,
				})
			}
			outcomes[i] = o
		}()
	}
	wg.Wait()
	failed := 0
	for i, e := range entries {
		key := l2fuzz.CorpusKey(e.Signature)
		switch o := outcomes[i]; {
		case o.err != nil:
			failed++
			fmt.Printf("  FAIL %-45s replay error: %v\n", key, o.err)
		case !o.res.Reproduced:
			failed++
			fmt.Printf("  FAIL %-45s recorded %s, observed %s\n", key, e.Signature, o.res.Signature)
		case o.minErr != nil:
			failed++
			fmt.Printf("  FAIL %-45s reproduces but no longer minimizes: %v\n", key, o.minErr)
		case o.min != nil:
			fmt.Printf("  ok   %-45s %s (minimal witness: %d -> %d ops)\n",
				key, e.Signature, o.min.Before, o.min.After)
		default:
			fmt.Printf("  ok   %-45s %s\n", key, e.Signature)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d stored finding(s) no longer reproduce", failed, len(entries))
	}
	fmt.Printf("all %d stored finding(s) reproduce\n", len(entries))
	return nil
}

func replay(entry l2fuzz.CorpusEntry, rcfg l2fuzz.CorpusReplayConfig, dump bool) error {
	res, err := l2fuzz.ReplayCorpusEntry(entry, rcfg)
	if err != nil {
		return err
	}
	printReplay(entry, res)
	if dump && res.Dump != "" {
		fmt.Printf("\ncrash artefact:\n%s", res.Dump)
	}
	if !res.Reproduced {
		return fmt.Errorf("finding did not reproduce")
	}
	return nil
}

func printReplay(entry l2fuzz.CorpusEntry, res *l2fuzz.CorpusReplayResult) {
	verdict := "NOT REPRODUCED"
	if res.Reproduced {
		verdict = "reproduced"
	}
	fmt.Printf("replayed %d ops against %s: %s\n", len(entry.Trace.Ops), entry.Trace.Target, verdict)
	fmt.Printf("  recorded: %s\n", entry.Signature)
	fmt.Printf("  observed: %s (device crashed: %v)\n", res.Signature, res.Crashed)
}

func minimize(store *l2fuzz.CorpusStore, entry l2fuzz.CorpusEntry, rcfg l2fuzz.CorpusReplayConfig, write bool, maxReplays int) error {
	res, err := l2fuzz.MinimizeCorpusEntry(entry, l2fuzz.CorpusMinimizeConfig{
		ReplayConfig: rcfg,
		MaxReplays:   maxReplays,
	})
	if err != nil {
		return err
	}
	fmt.Printf("minimized %s: %d ops -> %d ops (%d verification replays)\n",
		entry.Signature, res.Before, res.After, res.Replays)
	if !write {
		return nil
	}
	if err := store.Put(res.Entry); err != nil {
		return err
	}
	fmt.Printf("stored minimized trace under %s\n", l2fuzz.CorpusKey(res.Entry.Signature))
	return nil
}

func triage(entry l2fuzz.CorpusEntry, rcfg l2fuzz.CorpusReplayConfig) error {
	res, err := l2fuzz.ReplayCorpusEntry(entry, rcfg)
	if err != nil {
		return err
	}
	printReplay(entry, res)
	fmt.Printf("\n%s\n", res.RootCause.Render())
	if !res.Reproduced {
		return fmt.Errorf("finding did not reproduce; root cause is from the stored finding only")
	}
	return nil
}
