package harness

import (
	"fmt"
	"strings"

	"l2fuzz/internal/bt/sm"
	"l2fuzz/internal/fleet"
	"l2fuzz/internal/metrics"
)

// FigureSeries is one fuzzer's cumulative series for Figures 8/9.
type FigureSeries struct {
	// Fuzzer is the fuzzer kind.
	Fuzzer fleet.Kind
	// Points is the sampled cumulative series.
	Points []metrics.SamplePoint
}

// FigureConfig parameterises the series experiments.
type FigureConfig struct {
	// Seed drives all randomness.
	Seed int64
	// Packets is the per-fuzzer budget (100,000 in the paper).
	Packets int
	// SampleEvery thins the series to one point per this many packets.
	SampleEvery int
}

// coveragePackets bounds the state-coverage runs (Figures 10/11): the
// paper analyses traces "at the end of a single test cycle", not over
// the full 100,000-packet measurement. 30,000 packets covers at least
// one full cycle for every fuzzer.
const coveragePackets = 30_000

// DefaultFigureConfig mirrors the paper's axes (samples every 10,000
// packets up to 100,000).
func DefaultFigureConfig() FigureConfig {
	return FigureConfig{Seed: 11, Packets: 100_000, SampleEvery: 10_000}
}

// Figure8 regenerates the cumulative transmitted-malformed-packet series
// per fuzzer (paper Figure 8: #Transmitted Malformed Packets vs
// #Transmitted Packets, log scale).
func Figure8(cfg FigureConfig) ([]FigureSeries, error) {
	return seriesExperiment(cfg, func(s *metrics.Sniffer) []metrics.SamplePoint {
		return s.MPSeries(cfg.SampleEvery)
	})
}

// Figure9 regenerates the cumulative rejection series per fuzzer
// (paper Figure 9: #Received Rejection Packets vs #Received Packets).
func Figure9(cfg FigureConfig) ([]FigureSeries, error) {
	return seriesExperiment(cfg, func(s *metrics.Sniffer) []metrics.SamplePoint {
		return s.PRSeries(cfg.SampleEvery)
	})
}

func seriesExperiment(cfg FigureConfig, extract func(*metrics.Sniffer) []metrics.SamplePoint) ([]FigureSeries, error) {
	var out []FigureSeries
	err := eachFuzzer(cfg.Seed, cfg.Packets, func(kind fleet.Kind, s *metrics.Sniffer) {
		out = append(out, FigureSeries{Fuzzer: kind, Points: extract(s)})
	})
	return out, err
}

// RenderSeries prints a figure's series as aligned columns.
func RenderSeries(title, xLabel, yLabel string, series []FigureSeries) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%s vs %s\n", title, yLabel, xLabel)
	for _, s := range series {
		fmt.Fprintf(&b, "%-10s:", s.Fuzzer)
		if len(s.Points) == 0 {
			b.WriteString(" (no packets)")
		}
		for _, p := range s.Points {
			fmt.Fprintf(&b, " (%d, %d)", p.X, p.Y)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Figure10Row is one bar of the state-coverage comparison.
type Figure10Row struct {
	// Fuzzer is the fuzzer kind.
	Fuzzer fleet.Kind
	// States is the trace-inferred number of covered L2CAP states.
	States int
	// Visited lists the covered states (Figure 11's highlight set).
	Visited []sm.State
}

// Figure10 regenerates the per-fuzzer state-coverage measurement
// (paper Figure 10: 13 / 7 / 6 / 3) and, with the visited sets, the
// per-state map of Figure 11. Only the seed applies: every fuzzer runs
// one test cycle of coveragePackets packets.
func Figure10(cfg FigureConfig) ([]Figure10Row, error) {
	var rows []Figure10Row
	err := eachFuzzer(cfg.Seed, coveragePackets, func(kind fleet.Kind, s *metrics.Sniffer) {
		visited := s.StatesVisited()
		rows = append(rows, Figure10Row{Fuzzer: kind, States: len(visited), Visited: visited})
	})
	return rows, err
}

// RenderFigure10 prints the bar chart as text.
func RenderFigure10(rows []Figure10Row) string {
	var b strings.Builder
	b.WriteString("Figure 10: L2CAP state coverage by different fuzzers\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %2d %s\n", r.Fuzzer, r.States, strings.Repeat("#", r.States))
	}
	return b.String()
}

// RenderFigure11 prints, for every L2CAP state, which fuzzers cover it —
// the textual form of the paper's highlighted state machines.
func RenderFigure11(rows []Figure10Row) string {
	var b strings.Builder
	b.WriteString("Figure 11: testable L2CAP states per fuzzer\n")
	fmt.Fprintf(&b, "%-22s", "State")
	for _, r := range rows {
		fmt.Fprintf(&b, " %-10s", r.Fuzzer)
	}
	b.WriteString("\n")
	covered := make(map[fleet.Kind]map[sm.State]bool)
	for _, r := range rows {
		set := make(map[sm.State]bool)
		for _, s := range r.Visited {
			set[s] = true
		}
		covered[r.Fuzzer] = set
	}
	for _, s := range sm.AllStates() {
		fmt.Fprintf(&b, "%-22s", s)
		for _, r := range rows {
			mark := "."
			if covered[r.Fuzzer][s] {
				mark = "X"
			}
			fmt.Fprintf(&b, " %-10s", mark)
		}
		b.WriteString("\n")
	}
	return b.String()
}
