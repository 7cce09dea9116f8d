package harness

import (
	"os"
	"path/filepath"
	"testing"

	"l2fuzz/internal/bt/sm"
	"l2fuzz/internal/fleet"
)

func TestTableVShape(t *testing.T) {
	rows := TableV()
	if len(rows) != 8 {
		t.Fatalf("Table V has %d rows, want 8", len(rows))
	}
	wantStacks := map[string]string{
		"D1": "BlueDroid", "D2": "BlueDroid", "D3": "BlueDroid",
		"D4": "iOS stack", "D5": "RTKit stack", "D6": "BTW",
		"D7": "Windows stack", "D8": "BlueZ",
	}
	for _, r := range rows {
		if r.Stack != wantStacks[r.ID] {
			t.Errorf("%s: stack = %q, want %q", r.ID, r.Stack, wantStacks[r.ID])
		}
		if r.Ports <= 0 {
			t.Errorf("%s: no ports", r.ID)
		}
	}
	checkGolden(t, "table_v.golden", RenderTableV(rows))
}

func TestTableVIMatchesPaperFindings(t *testing.T) {
	cfg := DefaultTableVIConfig()
	cfg.RobustBudget = 50_000 // keep the test fast; robustness is binary
	rows, err := TableVI(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("%d rows, want 8", len(rows))
	}
	byID := make(map[string]TableVIRow)
	for _, r := range rows {
		byID[r.Device] = r
	}

	// Paper Table VI: vulnerabilities on D1, D2, D3 (DoS) and D5, D8
	// (Crash); nothing on D4, D6, D7.
	for id, wantDesc := range map[string]string{
		"D1": "DoS", "D2": "DoS", "D3": "DoS", "D5": "Crash", "D8": "Crash",
	} {
		r := byID[id]
		if !r.Vuln {
			t.Errorf("%s: no vulnerability found, paper found one", id)
			continue
		}
		if r.Description != wantDesc {
			t.Errorf("%s: description = %q, want %q", id, r.Description, wantDesc)
		}
	}
	for _, id := range []string{"D4", "D6", "D7"} {
		if byID[id].Vuln {
			t.Errorf("%s: found a vulnerability, paper found none", id)
		}
	}

	// Crash artefacts: Android tombstones on D1-D3, a GP-fault dump on
	// D8, nothing recoverable from D5's dead firmware.
	for _, id := range []string{"D1", "D2", "D3"} {
		if byID[id].DumpKind != "tombstone" {
			t.Errorf("%s: dump = %q, want tombstone", id, byID[id].DumpKind)
		}
	}
	if byID["D8"].DumpKind != "gp-fault" {
		t.Errorf("D8: dump = %q, want gp-fault", byID["D8"].DumpKind)
	}

	// Elapsed-time shape: D5 fastest; D3 slower than D1 and D2; D8
	// slowest by a wide margin (paper: 40s / ~1.5m / 7m / 2h40m).
	if !(byID["D5"].Elapsed < byID["D1"].Elapsed && byID["D5"].Elapsed < byID["D2"].Elapsed) {
		t.Errorf("D5 (%v) should be fastest (D1 %v, D2 %v)",
			byID["D5"].Elapsed, byID["D1"].Elapsed, byID["D2"].Elapsed)
	}
	if !(byID["D3"].Elapsed > byID["D1"].Elapsed && byID["D3"].Elapsed > byID["D2"].Elapsed) {
		t.Errorf("D3 (%v) should be slower than D1 (%v) and D2 (%v)",
			byID["D3"].Elapsed, byID["D1"].Elapsed, byID["D2"].Elapsed)
	}
	if byID["D8"].Elapsed <= 2*byID["D3"].Elapsed {
		t.Errorf("D8 (%v) should dominate D3 (%v)", byID["D8"].Elapsed, byID["D3"].Elapsed)
	}

	checkGolden(t, "table_vi.golden", RenderTableVI(rows))
}

func TestTableVIIMatchesPaperShape(t *testing.T) {
	cfg := DefaultTableVIIConfig()
	cfg.Packets = 40_000 // ratios stabilise well before 100k
	rows, err := TableVII(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows, want 4", len(rows))
	}
	byName := make(map[fleet.Kind]TableVIIRow)
	for _, r := range rows {
		byName[r.Fuzzer] = r
	}
	l2 := byName[fleet.KindL2Fuzz].Summary
	df := byName[fleet.KindDefensics].Summary
	bf := byName[fleet.KindBFuzz].Summary
	bs := byName[fleet.KindBSS].Summary

	// MP Ratio ordering (paper: 69.96 ≫ 2.38 > 1.50 > 0).
	if !(l2.MPRatio > 10*df.MPRatio && df.MPRatio > bf.MPRatio && bf.MPRatio > bs.MPRatio) {
		t.Errorf("MP ordering broken: L2=%.4f Def=%.4f BF=%.4f BSS=%.4f",
			l2.MPRatio, df.MPRatio, bf.MPRatio, bs.MPRatio)
	}
	if bs.MPRatio != 0 {
		t.Errorf("BSS MP ratio = %.4f, want 0 (paper: no malformed packets)", bs.MPRatio)
	}
	// The headline claim: up to ~46× more malformed packets than the
	// best baseline.
	if l2.MPRatio < 20*df.MPRatio {
		t.Errorf("L2Fuzz/Defensics malformed factor = %.1f, want ≥ 20",
			l2.MPRatio/df.MPRatio)
	}

	// PR Ratio ordering (paper: BFuzz 91.6 ≫ L2Fuzz 32.5 ≫ Defensics 1.7 ≥ BSS 0).
	if !(bf.PRRatio > l2.PRRatio && l2.PRRatio > df.PRRatio && df.PRRatio >= bs.PRRatio) {
		t.Errorf("PR ordering broken: BF=%.4f L2=%.4f Def=%.4f BSS=%.4f",
			bf.PRRatio, l2.PRRatio, df.PRRatio, bs.PRRatio)
	}
	if bs.PRRatio != 0 {
		t.Errorf("BSS PR ratio = %.4f, want 0", bs.PRRatio)
	}

	// Mutation efficiency ordering (paper: 47.22 ≫ 2.33 > 0.12 > 0).
	if !(l2.MutationEfficiency > df.MutationEfficiency &&
		df.MutationEfficiency > bf.MutationEfficiency &&
		bf.MutationEfficiency > bs.MutationEfficiency) {
		t.Errorf("efficiency ordering broken: L2=%.4f Def=%.4f BF=%.4f BSS=%.4f",
			l2.MutationEfficiency, df.MutationEfficiency,
			bf.MutationEfficiency, bs.MutationEfficiency)
	}

	// Packet rates (paper: 524.27 / 3.37 / 454.54 / 1.95 pps).
	if l2.PacketsPerSecond < 300 || l2.PacketsPerSecond > 900 {
		t.Errorf("L2Fuzz pps = %.2f, want within 300-900", l2.PacketsPerSecond)
	}
	if df.PacketsPerSecond < 3 || df.PacketsPerSecond > 4 {
		t.Errorf("Defensics pps = %.2f, want ~3.37", df.PacketsPerSecond)
	}
	if bf.PacketsPerSecond < 200 || bf.PacketsPerSecond > 700 {
		t.Errorf("BFuzz pps = %.2f, want within 200-700", bf.PacketsPerSecond)
	}
	if bs.PacketsPerSecond < 1.5 || bs.PacketsPerSecond > 2.5 {
		t.Errorf("BSS pps = %.2f, want ~1.95", bs.PacketsPerSecond)
	}

	checkGolden(t, "table_vii.golden", RenderTableVII(rows))
}

func TestFigure8And9Series(t *testing.T) {
	cfg := DefaultFigureConfig()
	cfg.Packets = 30_000
	cfg.SampleEvery = 5_000

	fig8, err := Figure8(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fig9, err := Figure9(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, series := range [][]FigureSeries{fig8, fig9} {
		if len(series) != 4 {
			t.Fatalf("%d series, want 4", len(series))
		}
		for _, s := range series {
			// Cumulative series must be monotone in both coordinates.
			for i := 1; i < len(s.Points); i++ {
				if s.Points[i].X < s.Points[i-1].X || s.Points[i].Y < s.Points[i-1].Y {
					t.Errorf("%s: non-monotone series at %d", s.Fuzzer, i)
				}
			}
		}
	}
	// Figure 8 end-points: L2Fuzz accumulates far more malformed packets.
	ends := make(map[fleet.Kind]int)
	for _, s := range fig8 {
		if len(s.Points) > 0 {
			ends[s.Fuzzer] = s.Points[len(s.Points)-1].Y
		}
	}
	if !(ends[fleet.KindL2Fuzz] > 10*ends[fleet.KindDefensics] && ends[fleet.KindDefensics] > ends[fleet.KindBFuzz] &&
		ends[fleet.KindBFuzz] > ends[fleet.KindBSS]) {
		t.Errorf("Figure 8 end-point ordering broken: %v", ends)
	}
	if ends[fleet.KindBSS] != 0 {
		t.Errorf("BSS accumulated %d malformed packets, want 0", ends[fleet.KindBSS])
	}

	checkGolden(t, "figure_8_9.golden",
		RenderSeries("Figure 8", "#Transmitted Packets", "#Transmitted Malformed Packets", fig8)+
			RenderSeries("Figure 9", "#Received Packets", "#Received Rejection Packets", fig9))
}

func TestFigure10And11Coverage(t *testing.T) {
	cfg := DefaultFigureConfig()
	rows, err := Figure10(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := map[fleet.Kind]int{
		fleet.KindL2Fuzz:    13,
		fleet.KindDefensics: 7,
		fleet.KindBFuzz:     6,
		fleet.KindBSS:       3,
	}
	for _, r := range rows {
		if r.States != want[r.Fuzzer] {
			t.Errorf("%s: %d states, want %d (paper Figure 10)", r.Fuzzer, r.States, want[r.Fuzzer])
		}
		if len(r.Visited) != r.States {
			t.Errorf("%s: visited list has %d entries, count says %d", r.Fuzzer, len(r.Visited), r.States)
		}
	}
	// L2Fuzz covers move and creation jobs no baseline reaches.
	var l2 Figure10Row
	for _, r := range rows {
		if r.Fuzzer == fleet.KindL2Fuzz {
			l2 = r
		}
	}
	cov := make(map[sm.State]bool)
	for _, s := range l2.Visited {
		cov[s] = true
	}
	for _, s := range []sm.State{sm.StateWaitCreate, sm.StateWaitMove, sm.StateWaitMoveConfirm} {
		if !cov[s] {
			t.Errorf("L2Fuzz missing %v, which only it covers per the paper", s)
		}
	}

	checkGolden(t, "figure_10_11.golden", RenderFigure10(rows)+RenderFigure11(rows))
}

// checkGolden compares an experiment's rendered text with its golden
// under testdata/: the paper-shape checks above hold the orderings, the
// goldens hold every cell.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("rendered %s drifted:\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}

func TestRunCellRefusesBadCells(t *testing.T) {
	for _, c := range []struct {
		name   string
		kind   fleet.Kind
		device string
		budget int
	}{
		{"unknown kind", "NotAFuzzer", "D2", 10},
		{"unknown device", fleet.KindL2Fuzz, "D99", 10},
		{"zero budget", fleet.KindL2Fuzz, "D2", 0},
	} {
		if _, _, err := runCell(c.kind, c.device, true, 1, c.budget); err == nil {
			t.Errorf("%s: cell accepted", c.name)
		}
	}
}
