package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func withJobs(t *testing.T, n int) {
	t.Helper()
	prev := SetJobs(n)
	t.Cleanup(func() { SetJobs(prev) })
}

func TestJobsDefault(t *testing.T) {
	withJobs(t, 0)
	if got, want := Jobs(), runtime.GOMAXPROCS(0); got != want {
		t.Errorf("Jobs() = %d, want GOMAXPROCS = %d", got, want)
	}
}

func TestSetJobsRoundTrip(t *testing.T) {
	withJobs(t, 0)
	if prev := SetJobs(3); prev != 0 {
		t.Errorf("first SetJobs returned %d, want 0 (default)", prev)
	}
	if Jobs() != 3 {
		t.Errorf("Jobs() = %d, want 3", Jobs())
	}
	if prev := SetJobs(-7); prev != 3 {
		t.Errorf("SetJobs returned %d, want 3", prev)
	}
	if got, want := Jobs(), runtime.GOMAXPROCS(0); got != want {
		t.Errorf("Jobs() after reset = %d, want %d", got, want)
	}
}

func TestDoRunsEveryIndexOnce(t *testing.T) {
	for _, jobs := range []int{1, 2, 8, 64} {
		t.Run(fmt.Sprintf("jobs=%d", jobs), func(t *testing.T) {
			withJobs(t, jobs)
			const n = 100
			counts := make([]atomic.Int32, n)
			if err := Do(n, func(i int) error {
				counts[i].Add(1)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			for i := range counts {
				if c := counts[i].Load(); c != 1 {
					t.Errorf("index %d ran %d times, want 1", i, c)
				}
			}
		})
	}
}

func TestDoEmpty(t *testing.T) {
	if err := Do(0, func(int) error { t.Error("fn called for n=0"); return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestDoReturnsLowestIndexError(t *testing.T) {
	withJobs(t, 8)
	errLow, errHigh := errors.New("low"), errors.New("high")
	err := Do(64, func(i int) error {
		switch i {
		case 7:
			return errLow
		case 40:
			return errHigh
		}
		return nil
	})
	if err != errLow {
		t.Errorf("Do returned %v, want the lowest-index error %v", err, errLow)
	}
}

func TestDoErrorDoesNotSkipOtherIndices(t *testing.T) {
	for _, jobs := range []int{1, 4} {
		t.Run(fmt.Sprintf("jobs=%d", jobs), func(t *testing.T) {
			withJobs(t, jobs)
			var ran atomic.Int32
			err := Do(32, func(i int) error {
				ran.Add(1)
				if i == 0 {
					return errors.New("boom")
				}
				return nil
			})
			if err == nil {
				t.Fatal("want error")
			}
			if ran.Load() != 32 {
				t.Errorf("%d indices ran, want all 32 (runs are independent)", ran.Load())
			}
		})
	}
}

func TestDoPanicPropagates(t *testing.T) {
	withJobs(t, 8)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("worker panic did not propagate to the caller")
		}
		if r != "kaboom-3" {
			t.Errorf("recovered %v, want the lowest-index panic kaboom-3", r)
		}
	}()
	_ = Do(16, func(i int) error {
		if i == 3 || i == 11 {
			panic(fmt.Sprintf("kaboom-%d", i))
		}
		return nil
	})
}

// TestDoErrorBeforePanic: the lowest failing index decides the outcome
// whether it errored or panicked, so an error at index 1 wins over a
// panic at index 5 at every worker count, as in a serial loop.
func TestDoErrorBeforePanic(t *testing.T) {
	for _, jobs := range []int{1, 4} {
		t.Run(fmt.Sprintf("jobs=%d", jobs), func(t *testing.T) {
			withJobs(t, jobs)
			errLow := errors.New("low")
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("Do re-panicked with %v, want index 1's error", r)
				}
			}()
			err := Do(8, func(i int) error {
				switch i {
				case 1:
					return errLow
				case 5:
					panic("kaboom-5")
				}
				return nil
			})
			if err != errLow {
				t.Errorf("Do returned %v, want index 1's error %v", err, errLow)
			}
		})
	}
}

func TestMapSlotsByIndex(t *testing.T) {
	for _, jobs := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("jobs=%d", jobs), func(t *testing.T) {
			withJobs(t, jobs)
			out, err := Map(50, func(i int) (int, error) { return i * i, nil })
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range out {
				if v != i*i {
					t.Errorf("out[%d] = %d, want %d", i, v, i*i)
				}
			}
		})
	}
}

func TestMapErrorDiscardsResults(t *testing.T) {
	withJobs(t, 4)
	out, err := Map(10, func(i int) (int, error) {
		if i == 5 {
			return 0, errors.New("nope")
		}
		return i, nil
	})
	if err == nil || out != nil {
		t.Errorf("Map = (%v, %v), want (nil, error)", out, err)
	}
}

// TestMapMatchesSerial is the executor's core promise: for a pure fn,
// the worker count changes nothing about the observed output.
func TestMapMatchesSerial(t *testing.T) {
	run := func(jobs int) []string {
		prev := SetJobs(jobs)
		defer SetJobs(prev)
		out, err := Map(40, func(i int) (string, error) {
			return fmt.Sprintf("run-%03d", i), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	serial := run(1)
	for _, jobs := range []int{2, 4, 16} {
		par := run(jobs)
		for i := range serial {
			if par[i] != serial[i] {
				t.Fatalf("jobs=%d diverges from serial at %d: %q vs %q", jobs, i, par[i], serial[i])
			}
		}
	}
}
