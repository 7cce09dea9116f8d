package harness

import (
	"fmt"
	"strings"
	"time"

	"l2fuzz/internal/bt/device"
	"l2fuzz/internal/fleet"
)

// TableVIRow is one row of the vulnerability-detection results
// (paper Table VI).
type TableVIRow struct {
	// Device is the catalog ID, D1..D8.
	Device string
	// Vuln reports whether L2Fuzz detected a vulnerability.
	Vuln bool
	// Description is "DoS", "Crash" or "N/A".
	Description string
	// Elapsed is the simulated time to detection.
	Elapsed time.Duration
	// PacketsSent counts packets until detection or budget exhaustion.
	PacketsSent int
	// ErrorClass is the black-box connection-error classification.
	ErrorClass string
	// DumpKind is the ground-truth crash artefact on the device
	// ("tombstone", "gp-fault", "none", or "-" when nothing crashed).
	DumpKind string
	// ExpectedVuln is the paper's Table VI expectation for the device.
	ExpectedVuln bool
}

// TableVIConfig parameterises the per-device runs.
type TableVIConfig struct {
	// Seed drives all randomness.
	Seed int64
	// RobustBudget caps packets on devices expected to survive: the
	// paper never reports how long it fuzzed D4/D6/D7, so a smaller
	// budget keeps regeneration tractable.
	RobustBudget int
}

// vulnerableBudget caps packets on devices expected to crash.
const vulnerableBudget = 6_000_000

// DefaultTableVIConfig returns the budgets used for the recorded
// experiment.
func DefaultTableVIConfig() TableVIConfig {
	return TableVIConfig{Seed: 11, RobustBudget: 400_000}
}

// TableVI runs L2Fuzz against all eight catalog devices (defects armed)
// and reports one row per device.
func TableVI(cfg TableVIConfig) ([]TableVIRow, error) {
	var rows []TableVIRow
	for _, id := range device.CatalogIDs() {
		row, err := TableVIRun(id, cfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// TableVIRun produces one Table VI row.
func TableVIRun(deviceID string, cfg TableVIConfig) (TableVIRow, error) {
	spec, err := device.CatalogSpec(deviceID, false)
	if err != nil {
		return TableVIRow{}, err
	}
	// Mix the device ID into the seed so every device sees a distinct
	// mutation stream, as distinct physical runs would.
	seed := cfg.Seed
	for _, c := range deviceID {
		seed = seed*131 + int64(c)
	}
	budget := cfg.RobustBudget
	if spec.ExpectVuln {
		budget = vulnerableBudget
	}
	res, rig, err := runCell(fleet.KindL2Fuzz, deviceID, false, seed, budget)
	if err != nil {
		return TableVIRow{}, err
	}

	row := TableVIRow{
		Device:       deviceID,
		Description:  "N/A",
		PacketsSent:  res.PacketsSent,
		ErrorClass:   "-",
		DumpKind:     "-",
		ExpectedVuln: spec.ExpectVuln,
	}
	if len(res.Findings) > 0 {
		f := res.Findings[0].Finding
		row.Vuln = true
		row.Description = f.Severity()
		row.Elapsed = res.Elapsed
		row.ErrorClass = f.Error.String()
	}
	if dump := rig.Device.CrashDump(); dump != nil {
		switch dump.Kind {
		case device.DumpTombstone:
			row.DumpKind = "tombstone"
		case device.DumpGPFault:
			row.DumpKind = "gp-fault"
		default:
			row.DumpKind = "none"
		}
	}
	return row, nil
}

// RenderTableVI prints the rows the way the paper's Table VI reads.
func RenderTableVI(rows []TableVIRow) string {
	var b strings.Builder
	b.WriteString("Table VI: Vulnerability detection results of L2Fuzz\n")
	fmt.Fprintf(&b, "%-6s %-5s %-11s %-14s %-18s %-10s %-9s\n",
		"Device", "Vuln?", "Description", "Elapsed Time", "Error Class", "Dump", "Packets")
	for _, r := range rows {
		vuln := "No"
		elapsed := "N/A"
		if r.Vuln {
			vuln = "Yes"
			elapsed = formatElapsed(r.Elapsed)
		}
		fmt.Fprintf(&b, "%-6s %-5s %-11s %-14s %-18s %-10s %-9d\n",
			r.Device, vuln, r.Description, elapsed, r.ErrorClass, r.DumpKind, r.PacketsSent)
	}
	return b.String()
}

// formatElapsed renders a duration the way the paper does (1 m 25 s).
func formatElapsed(d time.Duration) string {
	d = d.Round(time.Second)
	h := d / time.Hour
	m := (d % time.Hour) / time.Minute
	s := (d % time.Minute) / time.Second
	switch {
	case h > 0:
		return fmt.Sprintf("%d h %d m", h, m)
	case m > 0:
		return fmt.Sprintf("%d m %d s", m, s)
	default:
		return fmt.Sprintf("%d s", s)
	}
}
