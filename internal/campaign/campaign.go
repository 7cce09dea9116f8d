// Package campaign implements the long-term fuzzing the paper's §V
// names as its first limitation: "when a fatal bug is triggered on the
// target device, it forcibly shuts down Bluetooth. Therefore, the tester
// must manually reset the device to perform another test. We will
// consider overcoming this issue by leveraging a virtual environment."
//
// This reproduction *is* that virtual environment, so the campaign
// runner closes the loop: it runs L2Fuzz repeatedly against one target,
// automatically resets the device after every finding (the virtual
// analogue of the manual reboot), de-duplicates findings by their
// (state, port, error-class) signature, and keeps going until a run
// budget or a dry streak ends the campaign.
package campaign

import (
	"fmt"
	"time"

	"l2fuzz/internal/bt/device"
	"l2fuzz/internal/bt/host"
	"l2fuzz/internal/core"
)

// Config parameterises a campaign. A zero bound means its default; a
// negative one fails Run.
type Config struct {
	// Seed drives the first run; later runs derive fresh seeds from it.
	Seed int64
	// MaxRuns bounds the number of fuzzing runs; zero means 8.
	MaxRuns int
	// MaxPacketsPerRun bounds each run; zero means 250,000.
	MaxPacketsPerRun int
	// Ablation switches off design choices in every run, as a fleet
	// ablation variant does for its campaign jobs.
	Ablation core.Ablation
}

// The campaign defaults: up to eight runs of 250,000 packets, stopping
// after two consecutive dry ones.
const (
	defaultMaxRuns          = 8
	defaultMaxPacketsPerRun = 250_000
	// stopAfterDryRuns ends the campaign after this many consecutive
	// runs without a finding (the target has probably been exhausted).
	stopAfterDryRuns = 2
)

// FindingRecord is one de-duplicated finding with its occurrence count.
// The first occurrence's recorded repro trace, when the campaign client
// carries a host.TraceRecorder, rides along in Finding.Trace.
type FindingRecord struct {
	// Finding is the first occurrence.
	Finding core.Finding
	// Count is how many runs reproduced it.
	Count int
	// Dump is the device-side artefact of the first occurrence.
	Dump string
}

// Report is the campaign outcome.
type Report struct {
	// Runs counts completed fuzzing runs.
	Runs int
	// Resets counts automatic device resets performed.
	Resets int
	// TotalPackets sums packets across runs.
	TotalPackets int
	// TotalMalformed sums malformed test packets across runs.
	TotalMalformed int
	// TotalMutations sums generated test packets across runs.
	TotalMutations int
	// TotalElapsed sums simulated run time.
	TotalElapsed time.Duration
	// Findings are the de-duplicated findings in first-seen order.
	Findings []FindingRecord
}

// Runner drives a campaign against one device.
type Runner struct {
	cl  *host.Client
	dev *device.Device
	cfg Config
}

// New builds a runner, filling zero-valued config fields with their
// defaults. The device must live on the same medium as the client.
func New(cl *host.Client, dev *device.Device, cfg Config) *Runner {
	if cfg.MaxRuns == 0 {
		cfg.MaxRuns = defaultMaxRuns
	}
	if cfg.MaxPacketsPerRun == 0 {
		cfg.MaxPacketsPerRun = defaultMaxPacketsPerRun
	}
	return &Runner{cl: cl, dev: dev, cfg: cfg}
}

// Run executes the campaign.
func (r *Runner) Run() (*Report, error) {
	if r.cfg.MaxRuns < 0 {
		return nil, fmt.Errorf("campaign: negative MaxRuns %d", r.cfg.MaxRuns)
	}
	if r.cfg.MaxPacketsPerRun < 0 {
		return nil, fmt.Errorf("campaign: negative MaxPacketsPerRun %d", r.cfg.MaxPacketsPerRun)
	}
	report := &Report{}
	// De-duplication keys by the shared core.Signature, the same triple
	// the fleet and the persistent corpus key by, so a campaign finding
	// can never dedup differently from its farm-level record.
	seen := make(map[core.Signature]int) // signature → index into Findings
	dry := 0

	for run := 0; run < r.cfg.MaxRuns && dry < stopAfterDryRuns; run++ {
		// Every run is its own trace epoch, not just the runs that follow
		// a finding and reset. A dry run still leaves link and channel
		// state behind on the target, so a trace spanning the boundary
		// would replay against conditions the recorded prefix — now in an
		// earlier epoch — created. Cutting at the boundary keeps each
		// recorded trace self-contained from its run's first packet.
		if rec := r.cl.Recorder(); rec != nil {
			rec.Reset()
		}
		fz := core.New(r.cl, core.Config{
			Seed:       r.cfg.Seed + int64(run)*7919,
			MaxPackets: r.cfg.MaxPacketsPerRun,
			Ablation:   r.cfg.Ablation,
		})
		res, err := fz.Run(r.dev.Address())
		if err != nil {
			return nil, fmt.Errorf("campaign run %d: %w", run+1, err)
		}
		report.Runs++
		report.TotalPackets += res.PacketsSent
		report.TotalMalformed += res.MalformedSent
		report.TotalMutations += res.Mutations
		report.TotalElapsed += res.Elapsed

		if !res.Found {
			dry++
			continue
		}
		dry = 0
		sig := res.Finding.Signature()
		if idx, ok := seen[sig]; ok {
			report.Findings[idx].Count++
		} else {
			rec := FindingRecord{Finding: res.Finding, Count: 1}
			if dump := r.dev.CrashDump(); dump != nil {
				rec.Dump = dump.Render()
			}
			seen[sig] = len(report.Findings)
			report.Findings = append(report.Findings, rec)
		}

		// The automatic reset: the virtual analogue of walking over and
		// rebooting the phone, then dropping the tester's stale link.
		if err := r.dev.Reset(); err != nil {
			return nil, fmt.Errorf("campaign reset after run %d: %w", run+1, err)
		}
		r.cl.Disconnect(r.dev.Address())
		report.Resets++
	}
	return report, nil
}
