// Command l2journal renders a recorded farm run (an l2farm -journal
// directory, or the journal.jsonl inside one) into the paper's
// evaluation figures — entirely from the journal, without re-running
// anything.
//
// Subcommands:
//
//	figures   the coverage-over-time curves (cumulative packets,
//	          malformed packets, distinct states, findings vs wall
//	          time; Figures 8–10)
//	latency   per-device/kind/variant wall-time histograms with the
//	          span-derived phase split (queue/dispatch/execute/
//	          transport)
//	workers   the per-worker utilization timeline
//	trend     diff two runs' coverage curves: exact on final totals,
//	          tolerance-banded on normalized area-under-curve; exits
//	          nonzero on regression (the CI gate over the journaled
//	          farm artifact)
//	diff      compare two runs of one config job by job: every job
//	          result's deterministic fields, the finding signatures
//	          and the target specs; prints the first differing field
//	          of each differing job and exits nonzero on any
//	          difference (the "same behaviour" check)
//
// Every subcommand takes a journal path: the journal.jsonl itself, a
// run directory holding one, or a directory of run directories (the
// l2farm -journal layout — the newest run is picked). -format selects
// aligned text tables (default), CSV, or a self-contained SVG chart;
// -o writes to a file instead of stdout.
//
// Usage:
//
//	l2journal figures [-format text|csv|svg] [-o FILE] JOURNAL
//	l2journal latency [-by device|kind|variant] [-format text|csv|svg] [-o FILE] JOURNAL
//	l2journal workers [-format text|csv|svg] [-o FILE] JOURNAL
//	l2journal trend [-total-tol 0] [-auc-tol 0.35] [-format text|csv] [-o FILE] BASELINE CURRENT
//	l2journal diff A B
//
// Examples:
//
//	l2farm -journal runs -quiet && l2journal figures runs
//	l2journal figures -format svg -o coverage.svg runs
//	l2journal latency -by kind runs
//	l2journal trend testdata/baseline.jsonl runs
//	l2journal diff testdata/baseline.jsonl runs
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"l2fuzz/internal/telemetry"
	"l2fuzz/internal/telemetry/analyze"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "l2journal: want a subcommand: figures, latency, workers, trend, diff")
		os.Exit(2)
	}
	err := run(os.Args[1], os.Args[2:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "l2journal:", err)
		os.Exit(1)
	}
}

// errRegressed marks a trend regression: reported without the
// "l2journal:" prefix noise, but still a nonzero exit.
type errRegressed struct{}

func (errRegressed) Error() string { return "coverage trend regressed against the baseline" }

func run(sub string, args []string) error {
	switch sub {
	case "figures":
		return figures(args)
	case "latency":
		return latency(args)
	case "workers":
		return workers(args)
	case "trend":
		return trend(args)
	case "diff":
		return diff(args)
	default:
		return fmt.Errorf("unknown subcommand %q (have figures, latency, workers, trend, diff)", sub)
	}
}

// outputFlags is the -format/-o pair every subcommand shares.
func outputFlags(fs *flag.FlagSet, svg bool) (format, out *string) {
	formats := "text, csv"
	if svg {
		formats += ", svg"
	}
	format = fs.String("format", "text", "output format: "+formats)
	out = fs.String("o", "", "write to this file instead of stdout")
	return format, out
}

// emit writes the rendered bytes to -o or stdout.
func emit(out string, data []byte) error {
	if out == "" {
		_, err := os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(out, data, 0o644)
}

// emitTo runs a writer-based renderer against -o or stdout.
func emitTo(out string, render func(io.Writer) error) error {
	if out == "" {
		return render(os.Stdout)
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	if err := render(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// parseJournalArg resolves the single positional journal path.
func parseJournalArg(fs *flag.FlagSet) (*analyze.Run, error) {
	if fs.NArg() != 1 {
		return nil, fmt.Errorf("want exactly one journal path (a journal.jsonl, a run directory, or an l2farm -journal directory)")
	}
	return parseFile(fs.Arg(0))
}

// parseFile parses one journal. A torn last line — a farm killed
// mid-write — is a warning: the run of the complete records renders.
func parseFile(path string) (*analyze.Run, error) {
	run, err := analyze.ParseFile(path)
	if errors.Is(err, telemetry.ErrTornJournal) {
		fmt.Fprintf(os.Stderr, "l2journal: warning: %s: %v; rendering the complete records\n", path, err)
		return run, nil
	}
	return run, err
}

func figures(args []string) error {
	fs := flag.NewFlagSet("figures", flag.ExitOnError)
	format, out := outputFlags(fs, true)
	fs.Parse(args)
	run, err := parseJournalArg(fs)
	if err != nil {
		return err
	}
	cov := run.Coverage()
	switch *format {
	case "text":
		return emit(*out, []byte(analyze.RenderCoverage(cov)))
	case "csv":
		return emitTo(*out, func(w io.Writer) error { return analyze.CoverageCSV(w, cov) })
	case "svg":
		return emit(*out, analyze.CoverageSVG(cov))
	default:
		return fmt.Errorf("unknown -format %q (have text, csv, svg)", *format)
	}
}

func latency(args []string) error {
	fs := flag.NewFlagSet("latency", flag.ExitOnError)
	by := fs.String("by", "device", "breakdown axis: device, kind, variant")
	format, out := outputFlags(fs, true)
	fs.Parse(args)
	run, err := parseJournalArg(fs)
	if err != nil {
		return err
	}
	rows, err := run.Latency(analyze.GroupBy(*by))
	if err != nil {
		return err
	}
	switch *format {
	case "text":
		return emit(*out, []byte(analyze.RenderLatency(analyze.GroupBy(*by), rows)))
	case "csv":
		return emitTo(*out, func(w io.Writer) error { return analyze.LatencyCSV(w, analyze.GroupBy(*by), rows) })
	case "svg":
		return emit(*out, analyze.LatencySVG(analyze.GroupBy(*by), rows))
	default:
		return fmt.Errorf("unknown -format %q (have text, csv, svg)", *format)
	}
}

func workers(args []string) error {
	fs := flag.NewFlagSet("workers", flag.ExitOnError)
	format, out := outputFlags(fs, true)
	fs.Parse(args)
	run, err := parseJournalArg(fs)
	if err != nil {
		return err
	}
	rows := run.WorkerTimelines()
	switch *format {
	case "text":
		return emit(*out, []byte(analyze.RenderWorkers(rows, run.Duration)))
	case "csv":
		return emitTo(*out, func(w io.Writer) error { return analyze.WorkersCSV(w, rows) })
	case "svg":
		return emit(*out, analyze.WorkersSVG(rows, run.Duration))
	default:
		return fmt.Errorf("unknown -format %q (have text, csv, svg)", *format)
	}
}

func trend(args []string) error {
	fs := flag.NewFlagSet("trend", flag.ExitOnError)
	totalTol := fs.Float64("total-tol", 0, "allowed relative drop of each series' final total (the farm is seed-deterministic, so 0 means exact)")
	aucTol := fs.Float64("auc-tol", analyze.DefaultAUCTol, "allowed relative drop of each series' normalized area-under-curve")
	format, out := outputFlags(fs, false)
	fs.Parse(args)
	if fs.NArg() != 2 {
		return fmt.Errorf("want BASELINE and CURRENT journal paths")
	}
	base, err := parseFile(fs.Arg(0))
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	cur, err := parseFile(fs.Arg(1))
	if err != nil {
		return fmt.Errorf("current: %w", err)
	}
	t := analyze.CompareTrend(base.Coverage(), cur.Coverage(),
		analyze.TrendOptions{TotalTol: *totalTol, AUCTol: *aucTol})
	switch *format {
	case "text":
		if err := emit(*out, []byte(analyze.RenderTrend(t))); err != nil {
			return err
		}
	case "csv":
		if err := emitTo(*out, func(w io.Writer) error { return analyze.TrendCSV(w, t) }); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown -format %q (have text, csv)", *format)
	}
	if t.Regressed {
		return errRegressed{}
	}
	return nil
}

func diff(args []string) error {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 2 {
		return fmt.Errorf("want two journal paths, A and B")
	}
	a, err := parseFile(fs.Arg(0))
	if err != nil {
		return fmt.Errorf("A: %w", err)
	}
	b, err := parseFile(fs.Arg(1))
	if err != nil {
		return fmt.Errorf("B: %w", err)
	}
	lines := analyze.Diff(a, b)
	for _, l := range lines {
		fmt.Println(l)
	}
	if len(lines) > 0 {
		return fmt.Errorf("%d differences between %s and %s", len(lines), fs.Arg(0), fs.Arg(1))
	}
	fmt.Printf("same behaviour: %d jobs, %d finding signatures\n", len(a.Jobs), len(a.Findings))
	return nil
}
