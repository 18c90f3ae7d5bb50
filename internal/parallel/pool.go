package parallel

import (
	"context"
	"errors"
	"sync"
)

// This file adds the long-lived counterpart to Do/Map: a bounded-queue
// worker pool for host-side services (vipserve) that must admit work
// continuously, shed load when saturated, and dispatch in deadline
// order. It shares the package's placement rationale — these are the
// only goroutines in library code, kept strictly outside the
// single-threaded engine packages — but none of Do/Map's determinism
// contract: a service's dispatch order is load-dependent by design.
// Determinism is recovered one level down (every simulation run is
// seed-deterministic regardless of when or where it starts) and one
// level up (results are content-addressed, so replays are byte-equal).
//
// Dispatch layout: one mutex guards one EDF heap that every worker pops
// from, so a free worker always takes the earliest queued deadline —
// exact EDF across workers, the choice the paper's hardware scheduler
// makes when it hands an IP's lane contexts to the earliest deadline.
// Each task is a whole simulation run, so the lock's hold time (one
// heap push or pop) is never what a submitter waits on.

// ErrQueueFull is returned by Submit when the admission queue is at
// capacity. Callers translate it into backpressure (vipserve answers
// 429 with Retry-After) rather than blocking the submitter.
var ErrQueueFull = errors.New("parallel: admission queue full")

// ErrPoolClosed is returned by Submit after Close.
var ErrPoolClosed = errors.New("parallel: pool closed")

// task is one admitted unit of work.
type task struct {
	deadline int64 // EDF key; lower dispatches first
	seq      uint64
	ctx      context.Context
	fn       func(context.Context)
}

// taskHeap is a concrete 4-ary min-heap on (deadline, seq) — the same
// earliest-deadline-first policy the paper's hardware scheduler applies
// to virtual-lane contexts, applied here to queued simulation requests
// so interactive (near-deadline) submissions overtake bulk sweeps. Like
// internal/sim's event queue it stores tasks in a flat slice with no
// container/heap interface boxing, so the queue never allocates per
// task, and pop clears the vacated slot so a dispatched task's closure
// and context are not pinned by the backing array.
type taskHeap struct {
	ts []task
}

func (h *taskHeap) len() int { return len(h.ts) }

func (h *taskHeap) less(i, j int) bool {
	if h.ts[i].deadline != h.ts[j].deadline {
		return h.ts[i].deadline < h.ts[j].deadline
	}
	return h.ts[i].seq < h.ts[j].seq
}

func (h *taskHeap) push(t task) {
	h.ts = append(h.ts, t)
	i := len(h.ts) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !h.less(i, p) {
			break
		}
		h.ts[i], h.ts[p] = h.ts[p], h.ts[i]
		i = p
	}
}

func (h *taskHeap) pop() task {
	t := h.ts[0]
	n := len(h.ts) - 1
	h.ts[0] = h.ts[n]
	h.ts[n] = task{} // clear the slot so fn/ctx are not pinned
	h.ts = h.ts[:n]
	i := 0
	for {
		min := i
		for c := 4*i + 1; c <= 4*i+4 && c < n; c++ {
			if h.less(c, min) {
				min = c
			}
		}
		if min == i {
			break
		}
		h.ts[i], h.ts[min] = h.ts[min], h.ts[i]
		i = min
	}
	return t
}

// Stats is a snapshot of the pool's counters, taken under the pool's
// lock. A dispatch moves a task from Depth to Inflight under that same
// lock, so Depth+Inflight — the outstanding work — is never observed
// mid-transition.
type Stats struct {
	Depth          int    // admitted tasks not yet dispatched
	Inflight       int    // tasks currently executing in workers
	Cap            int    // admission capacity
	Dispatched     uint64 // tasks handed to workers since construction
	DeadlineMisses uint64 // tasks dispatched after their EDF deadline passed
}

// Pool is a fixed set of workers draining a bounded, EDF-ordered
// admission queue. Construct with NewPool; the zero value is unusable.
type Pool struct {
	mu   sync.Mutex
	work *sync.Cond // signalled when a task is queued or the pool closes
	idle *sync.Cond // broadcast when the queue drains and nothing runs

	q       taskHeap
	cap     int
	seq     uint64 // submission order, the EDF tie-break
	closed  bool
	running int // tasks currently executing in workers

	dispatched uint64
	misses     uint64

	// clock, when set, reads the caller's deadline ordinal "now" so the
	// pool can count tasks dispatched after their EDF deadline already
	// passed. The pool itself never reads a wall clock: the ordinal space
	// belongs to the submitter (vipserve passes unix-nanos).
	clock func() int64

	wg sync.WaitGroup
}

// NewPool starts a pool with the given worker count (<= 0 means the
// package's Jobs() budget) and admission-queue capacity (<= 0 means 64).
func NewPool(workers, queueCap int) *Pool {
	if workers <= 0 {
		workers = Jobs()
	}
	if queueCap <= 0 {
		queueCap = 64
	}
	p := &Pool{cap: queueCap}
	p.work = sync.NewCond(&p.mu)
	p.idle = sync.NewCond(&p.mu)
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

// Submit admits fn with an EDF deadline (any monotone ordinal; vipserve
// uses host unix-nanos). Every admitted task receives exactly one
// fn(ctx) call from a worker goroutine, in earliest-deadline-first
// order among queued tasks, ties broken by submission order. fn must
// begin by checking ctx.Err(): the context is the submitter's (so a
// caller that gave up cancels the work it queued), and a pool drained
// by Close delivers pending tasks a cancelled context instead of
// silently dropping them.
//
// Submit never blocks: a full queue returns ErrQueueFull immediately —
// that is the load-shedding signal — and a closed pool ErrPoolClosed.
func (p *Pool) Submit(ctx context.Context, deadline int64, fn func(context.Context)) error {
	if ctx == nil {
		ctx = context.Background()
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrPoolClosed
	}
	if p.q.len() >= p.cap {
		return ErrQueueFull
	}
	p.seq++
	p.q.push(task{deadline: deadline, seq: p.seq, ctx: ctx, fn: fn})
	p.work.Signal()
	return nil
}

// Stats returns a snapshot of the pool's counters, taken under the
// pool's lock; see the Stats type.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return Stats{
		Depth:          p.q.len(),
		Inflight:       p.running,
		Cap:            p.cap,
		Dispatched:     p.dispatched,
		DeadlineMisses: p.misses,
	}
}

// Cap reports the admission-queue capacity.
func (p *Pool) Cap() int { return p.cap }

// SetClock installs the deadline-ordinal clock used to detect late
// dispatches. It must read the same ordinal space Submit's deadlines use
// (vipserve: host unix-nanos). A nil clock (the default) disables
// deadline-miss accounting.
func (p *Pool) SetClock(fn func() int64) {
	p.mu.Lock()
	p.clock = fn
	p.mu.Unlock()
}

// Quiesce blocks until the pool is idle — admission queue empty and no
// task executing — or ctx is cancelled, returning ctx.Err() in that
// case. It does not stop admission: the caller owns that (vipserve
// flips to draining and rejects new submissions first), so Quiesce is
// the "finish what was accepted" half of a graceful drain. It is safe
// to call concurrently with Submit and Close.
func (p *Pool) Quiesce(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	stop := context.AfterFunc(ctx, func() {
		p.mu.Lock()
		p.idle.Broadcast()
		p.mu.Unlock()
	})
	defer stop()
	p.mu.Lock()
	defer p.mu.Unlock()
	for (p.q.len() > 0 || p.running > 0) && ctx.Err() == nil {
		p.idle.Wait()
	}
	return ctx.Err()
}

// Close stops admission and waits for the workers to drain the queue
// and exit. Tasks still queued at Close time are dispatched with a
// cancelled context, so their submitters observe completion (with
// ctx.Err() set) rather than a silent drop.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.work.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}

// closedCtx is the pre-cancelled context handed to tasks drained after
// Close.
var closedCtx = func() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}()

// worker pops earliest-deadline tasks until the pool is closed and
// drained.
func (p *Pool) worker() {
	defer p.wg.Done()
	for {
		p.mu.Lock()
		for p.q.len() == 0 && !p.closed {
			p.work.Wait()
		}
		if p.q.len() == 0 {
			p.mu.Unlock()
			return // closed and drained: nothing can arrive anymore
		}
		t := p.q.pop()
		p.dispatched++
		p.running++
		clock, ctx := p.clock, t.ctx
		if p.closed {
			ctx = closedCtx
		}
		p.mu.Unlock()

		// The clock is the caller's code, so it runs outside the lock; a
		// miss is rare (the queue must already be backed up past the
		// deadline), so it alone pays a second lock round.
		if clock != nil && t.deadline < clock() {
			p.mu.Lock()
			p.misses++
			p.mu.Unlock()
		}
		t.fn(ctx)

		p.mu.Lock()
		p.running--
		if p.q.len() == 0 && p.running == 0 {
			p.idle.Broadcast()
		}
		p.mu.Unlock()
	}
}
