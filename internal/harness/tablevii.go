package harness

import (
	"fmt"
	"strings"

	"l2fuzz/internal/fleet"
	"l2fuzz/internal/metrics"
)

// TableVIIRow is one row of the mutation-efficiency comparison
// (paper Table VII).
type TableVIIRow struct {
	// Fuzzer is the fuzzer kind.
	Fuzzer fleet.Kind
	// Summary holds the measured counters and ratios.
	Summary metrics.Summary
}

// TableVIIConfig parameterises the comparison.
type TableVIIConfig struct {
	// Seed drives all randomness.
	Seed int64
	// Packets is the per-fuzzer transmission budget; the paper used
	// 100,000 sent packets per fuzzer.
	Packets int
}

// DefaultTableVIIConfig mirrors the paper's 100,000-packet measurement.
func DefaultTableVIIConfig() TableVIIConfig {
	return TableVIIConfig{Seed: 11, Packets: 100_000}
}

// TableVII measures MP ratio, PR ratio and mutation efficiency for the
// four fuzzers against the measurement-grade Pixel 3.
func TableVII(cfg TableVIIConfig) ([]TableVIIRow, error) {
	var rows []TableVIIRow
	err := eachFuzzer(cfg.Seed, cfg.Packets, func(kind fleet.Kind, s *metrics.Sniffer) {
		rows = append(rows, TableVIIRow{Fuzzer: kind, Summary: s.Summary()})
	})
	return rows, err
}

// RenderTableVII prints the rows the way the paper's Table VII reads,
// with the packets-per-second column §IV-C reports in prose.
func RenderTableVII(rows []TableVIIRow) string {
	var b strings.Builder
	b.WriteString("Table VII: Results of the mutation efficiency measurement\n")
	fmt.Fprintf(&b, "%-10s %-9s %-9s %-19s %-8s %-7s\n",
		"Fuzzer", "MP Ratio", "PR Ratio", "Mutation efficiency", "pps", "States")
	for _, r := range rows {
		s := r.Summary
		fmt.Fprintf(&b, "%-10s %-9s %-9s %-19s %-8.2f %-7d\n",
			r.Fuzzer,
			fmt.Sprintf("%.2f%%", 100*s.MPRatio),
			fmt.Sprintf("%.2f%%", 100*s.PRRatio),
			fmt.Sprintf("%.2f%%", 100*s.MutationEfficiency),
			s.PacketsPerSecond, s.StatesCovered)
	}
	b.WriteString("*MP Ratio = Malformed Packet Ratio\n")
	b.WriteString("*PR Ratio = Packet Rejection Ratio\n")
	b.WriteString("*Mutation efficiency = MP Ratio * (1 - PR Ratio)\n")
	return b.String()
}
