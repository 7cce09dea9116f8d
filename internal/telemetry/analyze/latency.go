package analyze

import (
	"fmt"
	"sort"
	"time"

	"l2fuzz/internal/fleet/record"
)

// GroupBy selects the latency breakdown axis.
type GroupBy string

const (
	ByDevice  GroupBy = "device"
	ByKind    GroupBy = "kind"
	ByVariant GroupBy = "variant"
)

// histBuckets is the wall-time histogram resolution: linear buckets
// over [0, max] across all groups, so rows are visually comparable.
const histBuckets = 10

// PhaseMeans is the mean per-phase latency of a group's jobs, from
// their trace spans: time queued, time waiting for a worker, execution
// proper, and executor transport overhead (the subprocess wire cost).
type PhaseMeans struct {
	Queue     time.Duration
	Dispatch  time.Duration
	Execute   time.Duration
	Transport time.Duration
}

// LatencyRow is one group's wall-time distribution.
type LatencyRow struct {
	Group        string
	Jobs, Failed int
	Min, Max     time.Duration
	Mean         time.Duration
	P50, P90     time.Duration
	// Hist counts jobs per wall-time bucket; BucketWidth is the shared
	// linear bucket width (run max / histBuckets).
	Hist        []int
	BucketWidth time.Duration
	Phases      PhaseMeans
}

// Latency breaks the run's per-job wall times down by the given axis.
// Failed jobs count in Jobs/Failed and the wall statistics — they
// occupied a worker — mirroring the report's per-group Wall sums. Rows
// sort by group name (kind rows by first appearance of the header's
// kind order when available).
func (r *Run) Latency(by GroupBy) ([]LatencyRow, error) {
	key := func(j record.Job) string { return j.Device }
	switch by {
	case ByDevice:
	case ByKind:
		key = func(j record.Job) string { return string(j.Kind) }
	case ByVariant:
		key = func(j record.Job) string { return j.Variant }
	default:
		return nil, fmt.Errorf("analyze: unknown latency axis %q (have device, kind, variant)", by)
	}

	var runMax time.Duration
	for _, jd := range r.Jobs {
		if jd.WallNs > runMax {
			runMax = jd.WallNs
		}
	}
	width := runMax / histBuckets
	if width <= 0 {
		width = 1
	}

	groups := make(map[string][]JobDone)
	for _, jd := range r.Jobs {
		k := key(jd.Job)
		groups[k] = append(groups[k], jd)
	}
	names := make([]string, 0, len(groups))
	for name := range groups {
		names = append(names, name)
	}
	sort.Strings(names)

	rows := make([]LatencyRow, 0, len(names))
	for _, name := range names {
		jobs := groups[name]
		row := LatencyRow{Group: name, Jobs: len(jobs), Hist: make([]int, histBuckets), BucketWidth: width}
		walls := make([]time.Duration, 0, len(jobs))
		var sum time.Duration
		var phases PhaseMeans
		spanned := 0
		for _, jd := range jobs {
			if jd.Failed() {
				row.Failed++
			}
			walls = append(walls, jd.WallNs)
			sum += jd.WallNs
			b := int(jd.WallNs / width)
			if b >= histBuckets {
				b = histBuckets - 1
			}
			row.Hist[b]++
			if !jd.Span.IsZero() {
				spanned++
				phases.Queue += jd.Span.QueueWait()
				phases.Dispatch += jd.Span.DispatchWait()
				phases.Execute += jd.Span.Execute()
				phases.Transport += jd.Span.Transport()
			}
		}
		sort.Slice(walls, func(i, j int) bool { return walls[i] < walls[j] })
		row.Min = walls[0]
		row.Max = walls[len(walls)-1]
		row.Mean = sum / time.Duration(len(walls))
		row.P50 = percentile(walls, 50)
		row.P90 = percentile(walls, 90)
		if spanned > 0 {
			n := time.Duration(spanned)
			row.Phases = PhaseMeans{
				Queue:     phases.Queue / n,
				Dispatch:  phases.Dispatch / n,
				Execute:   phases.Execute / n,
				Transport: phases.Transport / n,
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// percentile is the nearest-rank percentile of a sorted slice.
func percentile(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := (p*len(sorted) + 99) / 100
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}
