// Command benchtab regenerates the tables and figures of the paper's
// evaluation section (§IV) from the simulation and prints them in the
// same rows/series the paper reports.
//
// Usage:
//
//	benchtab -exp tableV
//	benchtab -exp tableVI [-seed 11]
//	benchtab -exp tableVII [-packets 100000]
//	benchtab -exp fig8 | fig9 [-packets 100000]
//	benchtab -exp fig10 | fig11   (one 30,000-packet test cycle)
//	benchtab -exp trajectory [-benchdir .] [-csv]
//	benchtab -exp all
//
// The trajectory experiment is not part of the paper: it renders the
// repo's own cross-PR performance trajectory from every committed
// BENCH_<pr>.json snapshot (pkts/s, MB/op, allocs/op and deltas per PR).
// With -csv it emits the same points as machine-readable CSV through
// the analyzer's shared CSV pipeline, column-compatible with the
// l2journal per-run exports.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"l2fuzz/internal/harness"
	"l2fuzz/internal/telemetry"
	"l2fuzz/internal/telemetry/analyze"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchtab:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		exp      = flag.String("exp", "all", "experiment: tableV, tableVI, tableVII, fig8, fig9, fig10, fig11, trajectory, all")
		seed     = flag.Int64("seed", 11, "random seed")
		packets  = flag.Int("packets", 100_000, "per-fuzzer packet budget for Table VII and Figures 8/9")
		benchdir = flag.String("benchdir", ".", "directory holding BENCH_<pr>.json snapshots for -exp trajectory")
		csvOut   = flag.Bool("csv", false, "emit -exp trajectory as CSV instead of the text table")
	)
	flag.Parse()

	run := map[string]bool{*exp: true}
	if *exp == "all" {
		for _, e := range []string{"tableV", "tableVI", "tableVII", "fig8", "fig9", "fig10", "fig11"} {
			run[e] = true
		}
	}
	ran := false

	if run["trajectory"] {
		snaps, err := loadTrajectory(*benchdir)
		if err != nil {
			return err
		}
		if *csvOut {
			if err := trajectoryCSV(os.Stdout, snaps); err != nil {
				return err
			}
		} else {
			fmt.Println(telemetry.RenderBenchTrajectory(snaps))
		}
		ran = true
	}
	if *csvOut && !run["trajectory"] {
		return fmt.Errorf("-csv only applies to -exp trajectory")
	}

	if run["tableV"] {
		fmt.Println(harness.RenderTableV(harness.TableV()))
		ran = true
	}
	if run["tableVI"] {
		cfg := harness.DefaultTableVIConfig()
		cfg.Seed = *seed
		rows, err := harness.TableVI(cfg)
		if err != nil {
			return err
		}
		fmt.Println(harness.RenderTableVI(rows))
		ran = true
	}
	if run["tableVII"] {
		cfg := harness.DefaultTableVIIConfig()
		cfg.Seed, cfg.Packets = *seed, *packets
		rows, err := harness.TableVII(cfg)
		if err != nil {
			return err
		}
		fmt.Println(harness.RenderTableVII(rows))
		ran = true
	}
	fcfg := harness.DefaultFigureConfig()
	fcfg.Seed, fcfg.Packets, fcfg.SampleEvery = *seed, *packets, *packets/10
	if run["fig8"] {
		series, err := harness.Figure8(fcfg)
		if err != nil {
			return err
		}
		fmt.Println(harness.RenderSeries(
			"Figure 8: MP Ratio measurement (cumulative, log-scaled in the paper)",
			"#Transmitted Packets", "#Transmitted Malformed Packets", series))
		ran = true
	}
	if run["fig9"] {
		series, err := harness.Figure9(fcfg)
		if err != nil {
			return err
		}
		fmt.Println(harness.RenderSeries(
			"Figure 9: PR Ratio measurement (cumulative)",
			"#Received Packets", "#Received Rejection Packets", series))
		ran = true
	}
	if run["fig10"] || run["fig11"] {
		rows, err := harness.Figure10(fcfg)
		if err != nil {
			return err
		}
		if run["fig10"] {
			fmt.Println(harness.RenderFigure10(rows))
		}
		if run["fig11"] {
			fmt.Println(harness.RenderFigure11(rows))
		}
		ran = true
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", *exp)
	}
	return nil
}

// loadTrajectory loads every BENCH_<pr>.json under dir, sorted by PR
// number.
func loadTrajectory(dir string) ([]telemetry.TrajectorySnapshot, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return nil, err
	}
	type entry struct {
		pr   int
		path string
	}
	var entries []entry
	for _, p := range paths {
		label := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(p), "BENCH_"), ".json")
		pr, err := strconv.Atoi(label)
		if err != nil {
			continue // not a BENCH_<pr>.json snapshot
		}
		entries = append(entries, entry{pr: pr, path: p})
	}
	if len(entries) == 0 {
		return nil, fmt.Errorf("no BENCH_<pr>.json snapshots under %s", dir)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].pr < entries[j].pr })
	var snaps []telemetry.TrajectorySnapshot
	for _, e := range entries {
		s, err := telemetry.ReadBenchSnapshot(e.path)
		if err != nil {
			return nil, err
		}
		snaps = append(snaps, telemetry.TrajectorySnapshot{Label: strconv.Itoa(e.pr), Snapshot: s})
	}
	return snaps, nil
}

// trajectoryCSV writes the trajectory points through the analyzer's
// shared CSV pipeline: one row per (PR, bench row) measurement.
func trajectoryCSV(w io.Writer, snaps []telemetry.TrajectorySnapshot) error {
	header := []string{"pr", "bench", "row", "pkts_per_sec", "mb_per_op", "allocs_per_op", "parent_only"}
	var rows [][]string
	for _, ts := range snaps {
		for _, r := range ts.Snapshot.Rows {
			if strings.HasPrefix(r.Name, "pre/") {
				continue // same-host baselines, not trajectory points
			}
			rows = append(rows, []string{
				ts.Label,
				ts.Snapshot.Bench,
				r.Name,
				strconv.FormatFloat(r.PktsPerSec, 'f', 1, 64),
				strconv.FormatFloat(r.MBPerOp, 'f', 3, 64),
				strconv.FormatInt(r.AllocsPerOp, 10),
				strconv.FormatBool(r.ParentOnly),
			})
		}
	}
	return analyze.WriteCSV(w, header, rows)
}
