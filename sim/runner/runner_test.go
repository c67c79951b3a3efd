package runner

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapOrdersResultsByIndex(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		got, err := Map(workers, 100, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != 100 {
			t.Fatalf("workers=%d: len = %d", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: got[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapEmptyAndDefaults(t *testing.T) {
	got, err := Map(4, 0, func(int) (int, error) { return 0, nil })
	if err != nil || got != nil {
		t.Errorf("Map(_, 0) = %v, %v", got, err)
	}
	// workers <= 0 selects GOMAXPROCS; workers > n is clamped.
	got, err = Map(0, 3, func(i int) (int, error) { return i, nil })
	if err != nil || len(got) != 3 {
		t.Errorf("Map(0, 3) = %v, %v", got, err)
	}
	got, err = Map(64, 2, func(i int) (int, error) { return i, nil })
	if err != nil || len(got) != 2 {
		t.Errorf("Map(64, 2) = %v, %v", got, err)
	}
}

func TestMapReturnsFailingJobError(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		// A single invalid job: the reported error must name it at any
		// worker count.
		_, err := Map(workers, 50, func(i int) (int, error) {
			if i == 7 {
				return 0, fmt.Errorf("job-%d: %w", i, boom)
			}
			return i, nil
		})
		if err == nil || !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want wrapped boom", workers, err)
		}
		if want := "runner: job 7:"; err.Error()[:len(want)] != want {
			t.Errorf("workers=%d: err = %q, want prefix %q", workers, err, want)
		}
		// Several invalid jobs: Map must still fail cleanly (which index
		// is reported may vary once claims stop early).
		_, err = Map(workers, 50, func(i int) (int, error) {
			if i%11 == 7 {
				return 0, fmt.Errorf("job-%d: %w", i, boom)
			}
			return i, nil
		})
		if err == nil || !errors.Is(err, boom) {
			t.Fatalf("workers=%d multi: err = %v, want wrapped boom", workers, err)
		}
	}
}

func TestMapStopsClaimingAfterFailure(t *testing.T) {
	var executed atomic.Int32
	_, err := Map(4, 64, func(i int) (int, error) {
		executed.Add(1)
		if i == 0 {
			return 0, errors.New("early failure")
		}
		time.Sleep(5 * time.Millisecond)
		return i, nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	// In-flight jobs finish but no new claims happen after the failure;
	// without cancellation all 64 would run.
	if n := executed.Load(); n > 32 {
		t.Errorf("%d of 64 jobs ran after an immediate failure", n)
	}
}

func TestMapRunsEveryJobExactlyOnce(t *testing.T) {
	var counts [257]atomic.Int32
	_, err := ForEachStats(8, len(counts), func(i int) error {
		counts[i].Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range counts {
		if n := counts[i].Load(); n != 1 {
			t.Errorf("job %d ran %d times", i, n)
		}
	}
}

func TestMapStealsSkewedWork(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	// All the expensive jobs have the lowest indices; workers claiming
	// from one shared counter spread them, so total wall-clock must be
	// far below the serial sum.
	const n = 8
	start := time.Now()
	_, err := ForEachStats(4, n, func(i int) error {
		if i < n/2 {
			time.Sleep(40 * time.Millisecond)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	// Serial time for the skewed half is 160 ms; spread across 4 workers
	// it is ~40-80 ms. Allow generous slack for CI machines.
	if elapsed > 140*time.Millisecond {
		t.Errorf("skewed jobs took %v; stealing appears broken", elapsed)
	}
}

func TestMapParallelSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	work := func(int) (int, error) {
		time.Sleep(25 * time.Millisecond)
		return 0, nil
	}
	t0 := time.Now()
	if _, err := Map(1, 8, work); err != nil {
		t.Fatal(err)
	}
	serial := time.Since(t0)
	t0 = time.Now()
	if _, err := Map(4, 8, work); err != nil {
		t.Fatal(err)
	}
	parallel := time.Since(t0)
	if parallel > serial*2/3 {
		t.Errorf("workers=4 took %v vs workers=1 %v; want clear speedup", parallel, serial)
	}
}

func TestMapStatsAccountsEveryClaim(t *testing.T) {
	const n = 64
	stats, err := ForEachStats(4, n, func(int) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if stats.Workers != 4 {
		t.Errorf("Workers = %d, want 4", stats.Workers)
	}
	if stats.Jobs != n {
		t.Errorf("Jobs = %d, want %d", stats.Jobs, n)
	}
}

func TestMapStatsSerialFastPath(t *testing.T) {
	stats, err := ForEachStats(1, 10, func(int) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if stats.Workers != 1 || stats.Jobs != 10 {
		t.Errorf("serial stats = %+v", stats)
	}
}

// Jobs start in index order: when job i starts, every lower index has
// been claimed, and only the other workers can hold a claimed job they
// have not started yet. No worker runs ahead of a lower job that nobody
// has started, which keeps the results sweep.Stream parks until their
// turn in grid order few.
func TestMapStartsJobsInIndexOrder(t *testing.T) {
	const n, workers = 64, 4
	var started [n]atomic.Bool
	var lag [n]int // lower-indexed jobs unstarted when job i started
	_, err := ForEachStats(workers, n, func(i int) error {
		started[i].Store(true)
		for j := range i {
			if !started[j].Load() {
				lag[i]++
			}
		}
		time.Sleep(time.Millisecond)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range lag {
		if l > workers-1 {
			t.Fatalf("job %d started with %d lower-indexed jobs unstarted, want at most %d", i, l, workers-1)
		}
	}
}
