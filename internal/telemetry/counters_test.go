package telemetry

import (
	"sync"
	"testing"
)

func TestCountersNilSafe(t *testing.T) {
	var c *Counters
	c.AddFindings(3)
	c.CountJobStarted()
	c.CountJobDone(true)
	c.Merge(CounterSnapshot{Frames: 3, Bytes: 99, Packets: 5, Malformed: 2, Mutations: 2})
	if got := c.Snapshot(); got != (CounterSnapshot{}) {
		t.Fatalf("nil Counters snapshot = %+v, want zero", got)
	}
}

// TestCountersMerge pins the batch path: a private per-job counter
// merged into a shared set must land every field.
func TestCountersMerge(t *testing.T) {
	var job Counters
	job.Merge(CounterSnapshot{Frames: 4, Bytes: 512, Packets: 100, Malformed: 60, Mutations: 99})
	var farm Counters
	farm.CountJobStarted()
	farm.Merge(job.Snapshot())
	farm.CountJobDone(false)
	want := CounterSnapshot{
		Frames: 4, Bytes: 512, Packets: 100, Malformed: 60, Mutations: 99,
		JobsStarted: 1, JobsDone: 1,
	}
	if got := farm.Snapshot(); got != want {
		t.Fatalf("merged snapshot = %+v, want %+v", got, want)
	}
}

func TestCountersSnapshot(t *testing.T) {
	var c Counters
	c.Merge(CounterSnapshot{Frames: 1, Bytes: 100, Packets: 1, Malformed: 1, Mutations: 1})
	c.Merge(CounterSnapshot{Frames: 1, Bytes: 24, Packets: 9, Mutations: 1})
	c.AddFindings(2)
	c.CountJobStarted()
	c.CountJobStarted()
	c.CountJobDone(false)
	c.CountJobDone(true)
	want := CounterSnapshot{
		Frames:      2,
		Bytes:       124,
		Packets:     10,
		Malformed:   1,
		Mutations:   2,
		Findings:    2,
		JobsStarted: 2,
		JobsDone:    2,
		JobsFailed:  1,
	}
	if got := c.Snapshot(); got != want {
		t.Fatalf("snapshot = %+v, want %+v", got, want)
	}
}

func TestCountersConcurrent(t *testing.T) {
	var c Counters
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				c.Merge(CounterSnapshot{Frames: 1, Bytes: 10, Packets: 1})
			}
		}()
	}
	wg.Wait()
	s := c.Snapshot()
	if s.Frames != workers*per || s.Bytes != workers*per*10 || s.Packets != workers*per {
		t.Fatalf("concurrent snapshot = %+v", s)
	}
}
