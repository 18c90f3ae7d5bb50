// Package lockdiscipline is the analyzer fixture: mutex pairing,
// blocking-under-lock, and lock-order discipline.
package lockdiscipline

import (
	"os"
	"sync"
)

var (
	mu    sync.Mutex
	mu2   sync.Mutex
	a, b  sync.Mutex
	rw    sync.RWMutex
	ready bool
	cond  = sync.NewCond(&mu)
)

// leaky is the seeded missing-on-one-path Unlock: the c==false path
// returns holding mu.
func leaky(c bool) {
	mu.Lock() // want `mutex mu acquired here is not released on every path out of leaky \(missing Unlock or defer Unlock\)`
	if c {
		mu.Unlock()
	}
}

func balanced(c bool) {
	mu.Lock()
	if c {
		mu.Unlock()
		return
	}
	mu.Unlock()
}

func deferred() {
	mu.Lock()
	defer mu.Unlock()
	work()
}

// wrapped is the closure-deferred-unlock idiom: the literal only
// unlocks, which is its contract, not a finding.
func wrapped() {
	mu.Lock()
	defer func() { mu.Unlock() }()
	work()
}

func double() {
	mu.Lock()
	mu.Lock() // want `second Lock of mutex mu while already held \(self-deadlock\)`
	mu.Unlock()
}

func unlockTwice() {
	mu2.Lock()
	mu2.Unlock()
	mu2.Unlock() // want `Unlock of mutex mu2 which is not locked on this path`
}

func sendUnderLock(ch chan int) {
	mu.Lock()
	ch <- 1 // want `mutex mu held across channel send; release it before blocking`
	mu.Unlock()
}

func recvUnderLock(ch chan int) {
	mu.Lock()
	<-ch // want `mutex mu held across channel receive; release it before blocking`
	mu.Unlock()
}

func drainUnderLock(ch chan int) {
	mu.Lock()
	for range ch { // want `mutex mu held across channel receive; release it before blocking`
	}
	mu.Unlock()
}

// lossyPublish is the SSE broker idiom: a select with a default clause
// never blocks, so holding the lock across it is fine.
func lossyPublish(ch chan int) {
	mu.Lock()
	select {
	case ch <- 1:
	default:
	}
	mu.Unlock()
}

func blockingSelect(ch chan int) {
	mu.Lock()
	select { // want `mutex mu held across blocking select; release it before blocking`
	case <-ch:
	}
	mu.Unlock()
}

// flushUnderLock only sees the Sync through the intra-package call
// summary of flush.
func flushUnderLock(f *os.File) {
	mu.Lock()
	defer mu.Unlock()
	flush(f) // want `mutex mu held across \(\*os\.File\)\.Sync; release it before blocking`
}

func flush(f *os.File) { _ = f.Sync() }

// allowedFlush asserts the escape hatch: a deliberate
// fsync-under-mutex (WAL-style serialization) is silenced in place.
func allowedFlush(f *os.File) {
	mu.Lock()
	defer mu.Unlock()
	flush(f) //viplint:allow lockdiscipline -- WAL append: fsync must serialize with writers
}

type Pool struct{}

func (p *Pool) Submit(f func()) error { return nil }

func submitUnderLock(p *Pool) {
	mu.Lock()
	defer mu.Unlock()
	_ = p.Submit(work) // want `mutex mu held across Pool\.Submit; release it before blocking`
}

// waiter: (*sync.Cond).Wait releases the mutex while parked and is not
// a blocking op under the lock.
func waiter() {
	mu.Lock()
	for !ready {
		cond.Wait()
	}
	mu.Unlock()
}

func reader() {
	rw.RLock()
	defer rw.RUnlock()
	work()
}

// abOrder and baOrder nest the same two mutexes in opposite orders.
func abOrder() {
	a.Lock()
	b.Lock() // want `lock order inversion: lockdiscipline\.b acquired while holding lockdiscipline\.a here, but the opposite order at .*fixture\.go:\d+:\d+ \(deadlock under contention\)`
	b.Unlock()
	a.Unlock()
}

func baOrder() {
	b.Lock()
	a.Lock() // want `lock order inversion: lockdiscipline\.a acquired while holding lockdiscipline\.b here, but the opposite order at .*fixture\.go:\d+:\d+ \(deadlock under contention\)`
	a.Unlock()
	b.Unlock()
}

// spawn: the goroutine's locks are its own function's problem, and the
// spawn itself does not block the spawner.
func spawn() {
	mu.Lock()
	go func() {
		mu2.Lock()
		mu2.Unlock()
	}()
	mu.Unlock()
}

// The work-stealing shapes below seed a per-worker-heap dispatch pool:
// a thief locks a victim worker's heap, takes the earliest task, and
// must release before doing anything that can block.

var (
	victim sync.Mutex
	wake   = make(chan struct{}, 1)
)

// stealLeaky is the seeded stealing bug: the empty-victim path falls
// out of the function with the victim's heap lock still held.
func stealLeaky(nonEmpty bool) {
	victim.Lock() // want `mutex victim acquired here is not released on every path out of stealLeaky \(missing Unlock or defer Unlock\)`
	if nonEmpty {
		victim.Unlock()
	}
}

// handoffUnderVictimLock: handing the stolen task over a channel while
// still holding the victim's lock serializes every thief behind a
// possibly-full channel.
func handoffUnderVictimLock(tasks chan int) {
	victim.Lock()
	tasks <- 1 // want `mutex victim held across channel send; release it before blocking`
	victim.Unlock()
}

// lossyWake is the parked-worker wake idiom of such a pool: a select
// with a default clause never blocks, so signalling while the victim's
// lock is held is legal.
func lossyWake() {
	victim.Lock()
	select {
	case wake <- struct{}{}:
	default:
	}
	victim.Unlock()
}

// closeHandoff is the justified escape hatch: at Close time the buffer
// is sized to the worker count and provably non-full, so the send
// cannot block and the silence is deliberate.
func closeHandoff(tasks chan int) {
	victim.Lock()
	defer victim.Unlock()
	tasks <- 0 //viplint:allow lockdiscipline -- Close-time handoff: buffer sized to worker count, provably non-full
}

func work() {}
