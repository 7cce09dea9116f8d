package campaign

import (
	"strings"
	"testing"

	"l2fuzz/internal/bt/device"
	"l2fuzz/internal/bt/host"
	"l2fuzz/internal/bt/radio"
	"l2fuzz/internal/bt/sm"
)

func campaignRig(t *testing.T, deviceID string) (*device.Device, *host.Client) {
	t.Helper()
	m := radio.NewMedium(nil, radio.DefaultTiming())
	spec, err := device.CatalogSpec(deviceID, false)
	if err != nil {
		t.Fatal(err)
	}
	d, err := device.New(m, spec.Config)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := host.NewClient(m, radio.MustBDAddr("00:1B:DC:00:00:05"), "campaign")
	if err != nil {
		t.Fatal(err)
	}
	return d, cl
}

func TestCampaignFindsAndReproducesD2(t *testing.T) {
	d, cl := campaignRig(t, "D2")
	cfg := Config{Seed: 1, MaxRuns: 4}
	report, err := New(cl, d, cfg).Run()
	if err != nil {
		t.Fatalf("Run() error = %v", err)
	}
	if report.Runs == 0 || len(report.Findings) == 0 {
		t.Fatalf("campaign found nothing: %+v", report)
	}
	if report.Resets == 0 {
		t.Error("no automatic resets performed")
	}
	total := 0
	for _, f := range report.Findings {
		total += f.Count
		if sm.JobOf(f.Finding.State) != sm.JobConfiguration {
			t.Errorf("finding in %v, want configuration-job states only on D2", f.Finding.State)
		}
		if f.Dump == "" {
			t.Error("finding recorded without its crash dump")
		}
	}
	if total != report.Resets {
		t.Errorf("finding occurrences (%d) != resets (%d)", total, report.Resets)
	}
	// A black-box signature is (state, port, error class): one underlying
	// defect may appear under several signatures (different ports reach
	// the same code), but never more than runs.
	if len(report.Findings) > report.Runs {
		t.Errorf("%d signatures from %d runs; de-duplication broken?", len(report.Findings), report.Runs)
	}
	// The device must be healthy at campaign end only if the final run
	// was dry; either way the report is self-consistent.
	if report.TotalPackets == 0 || report.TotalElapsed == 0 {
		t.Error("aggregates not recorded")
	}
	t.Logf("campaign: %d runs, %d resets, %d distinct findings (%d total), %d packets, %v",
		report.Runs, report.Resets, len(report.Findings), total,
		report.TotalPackets, report.TotalElapsed)
}

func TestCampaignSurvivesFirmwareCrashingDevice(t *testing.T) {
	// D5 vanishes from the air on each finding; the campaign must
	// re-register it and keep going.
	d, cl := campaignRig(t, "D5")
	cfg := Config{Seed: 2, MaxRuns: 3}
	report, err := New(cl, d, cfg).Run()
	if err != nil {
		t.Fatalf("Run() error = %v", err)
	}
	if len(report.Findings) == 0 {
		t.Fatal("campaign found nothing on D5")
	}
	total := 0
	for _, f := range report.Findings {
		total += f.Count
	}
	if total < 2 {
		t.Errorf("defect triggered %d times across %d runs, want ≥ 2 (auto-reset works)",
			total, report.Runs)
	}
}

func TestCampaignCutsTraceEpochAtEveryRunBoundary(t *testing.T) {
	// Two dry runs on a robust device: without the per-run epoch cut the
	// recorder would accumulate both runs' operations; with it, what
	// remains at campaign end is the final run's trace alone.
	d, cl := campaignRig(t, "D4")
	rec := host.NewTraceRecorder(1 << 20)
	cl.SetRecorder(rec)
	cfg := Config{Seed: 3, MaxRuns: 8, MaxPacketsPerRun: 5_000}
	report, err := New(cl, d, cfg).Run()
	if err != nil {
		t.Fatal(err)
	}
	if report.Runs != 2 {
		t.Fatalf("runs = %d, want 2 dry runs", report.Runs)
	}
	ops, _ := rec.Snapshot()
	got := len(ops)
	if got == 0 {
		t.Fatal("recorder saw no operations")
	}
	// Each run records at least MaxPacketsPerRun operations (every send
	// is one op), so a recorder holding both runs would exceed one run's
	// floor twice over.
	if got >= 2*cfg.MaxPacketsPerRun {
		t.Fatalf("recorder holds %d ops after 2 runs of ≥%d: epoch not cut at the run boundary",
			got, cfg.MaxPacketsPerRun)
	}
	t.Logf("recorder holds %d ops (one run's worth)", got)
}

func TestCampaignStopsOnDryStreak(t *testing.T) {
	d, cl := campaignRig(t, "D4") // robust iPhone
	cfg := Config{Seed: 3, MaxRuns: 8, MaxPacketsPerRun: 10_000}
	report, err := New(cl, d, cfg).Run()
	if err != nil {
		t.Fatal(err)
	}
	if report.Runs != 2 {
		t.Fatalf("runs = %d, want exactly the dry streak of 2", report.Runs)
	}
	if len(report.Findings) != 0 || report.Resets != 0 {
		t.Fatalf("phantom activity on robust device: %+v", report)
	}
}

// TestConfigBudgets pins the budget rule: a zero bound means its
// default, and a negative one fails Run with an error naming the field.
func TestConfigBudgets(t *testing.T) {
	d, cl := campaignRig(t, "D4")
	for _, tc := range []struct {
		field string
		at    func(*Config) *int
		def   int
	}{
		{"MaxRuns", func(c *Config) *int { return &c.MaxRuns }, defaultMaxRuns},
		{"MaxPacketsPerRun", func(c *Config) *int { return &c.MaxPacketsPerRun }, defaultMaxPacketsPerRun},
	} {
		var cfg Config
		if got := New(cl, d, cfg).cfg; *tc.at(&got) != tc.def {
			t.Errorf("%s 0: got %d, want the default %d", tc.field, *tc.at(&got), tc.def)
		}
		*tc.at(&cfg) = -3
		if _, err := New(cl, d, cfg).Run(); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s -3: error %v, want one naming the field", tc.field, err)
		}
	}
}
