// Package parallel provides the host-side fan-out that runs independent
// simulations concurrently across OS threads.
//
// The sim.Engine is single-threaded by design (the simloop lint enforces
// it): all model state advances inside events popped from one
// deterministic queue, so a run can never be parallelized internally
// without losing the same-seed byte-identical guarantee. But the
// evaluation artifacts — the 5-design x 15-scenario mode sweep, the
// ablation sweeps, the fault grid — are embarrassingly parallel across
// runs: every experiments.Run builds a private platform, engine and RNG
// tree and shares nothing with its siblings. This package exploits
// exactly that run granularity and nothing finer.
//
// Determinism contract: Do/Map assign work by index and slot results
// back by index, so the caller observes the same values in the same
// order as a serial loop; on failure the error for the lowest index is
// returned, matching where a serial loop would have stopped. Worker
// count never influences any result, only wall time.
//
// This package must stay outside the simloop-policed engine packages:
// it owns the only goroutines in the repository's library code.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

var (
	jobsMu sync.Mutex
	// jobs is the worker budget; 0 means "decide at call time" so tests
	// and flags that never touch SetJobs track GOMAXPROCS changes.
	jobs int
)

// Jobs reports the current worker budget (default: runtime.GOMAXPROCS).
func Jobs() int {
	jobsMu.Lock()
	defer jobsMu.Unlock()
	if jobs <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return jobs
}

// SetJobs sets the worker budget for subsequent Do/Map calls. n <= 0
// restores the GOMAXPROCS default. It returns the previous setting
// (0 if the default was in effect) so callers can restore it.
func SetJobs(n int) int {
	jobsMu.Lock()
	defer jobsMu.Unlock()
	prev := jobs
	if n <= 0 {
		n = 0
	}
	jobs = n
	return prev
}

// Do runs fn(i) for every index i in [0, n) on up to Jobs() workers and
// waits for all of them. Every index runs exactly once regardless of
// failures elsewhere (runs are independent; partial sweeps are useless).
// Do then surfaces the outcome of the lowest failing index — the same
// outcome a serial `for i := 0; i < n; i++` loop would have stopped at —
// so fan-out never changes what the caller observes, only how long it
// takes: the error that index returned, or, if it panicked, a re-panic
// in the calling goroutine with its value.
//
// Workers claim indices from one shared counter, and the calling
// goroutine is one of them, so a budget of one worker runs every index
// in order on the caller's goroutine.
func Do(n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	errs := make([]error, n)
	panics := make([]any, n)
	var next atomic.Int64
	claim := func() {
		for {
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			protect(i, fn, errs, panics)
		}
	}
	w := min(Jobs(), n)
	var wg sync.WaitGroup
	wg.Add(w - 1)
	for k := 1; k < w; k++ {
		go func() {
			defer wg.Done()
			claim()
		}()
	}
	claim()
	wg.Wait()

	for i := range n {
		if panics[i] != nil {
			panic(panics[i])
		}
		if errs[i] != nil {
			return errs[i]
		}
	}
	return nil
}

// protect runs fn(i), recording its error or the value it panicked with
// (never nil since Go 1.21) so the caller's goroutine can rethrow it.
func protect(i int, fn func(int) error, errs []error, panics []any) {
	defer func() { panics[i] = recover() }()
	errs[i] = fn(i)
}

// Map runs fn over every index in [0, n) with Do's scheduling and error
// contract and returns the results slotted by index. On error the
// partial results are discarded, as a serial loop's caller would never
// have seen them.
func Map[T any](n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := Do(n, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
