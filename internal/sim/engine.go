package sim

import "fmt"

// defaultQueueCap pre-sizes the queue so steady-state scheduling never
// grows the backing array. Measured peaks over 200 ms: 27 pending
// events for 4×A5 on Baseline, 65 on VIP, 84 and 129 for 32 A5 players;
// 54 over the whole fig15 sweep. 256 leaves headroom.
const defaultQueueCap = 256

// EngineVersion names the current revision of the simulation model for
// content-addressed result reuse: cached reports are keyed by
// (scenario hash, EngineVersion), so a stale cache can never serve
// results computed by an older model. Bump the revision whenever a
// change alters any simulated output for some scenario — event
// ordering, cost models, defaults, report contents — and leave it
// alone for pure refactors, which the same-seed byte-identical
// reproducibility tests already police.
const EngineVersion = "vip-engine/1"

// Engine is a deterministic discrete-event scheduler. The zero value is
// ready to use; Now starts at 0. NewEngine additionally pre-sizes the
// event queue so the scheduling hot path is allocation-free.
//
// An Engine is single-threaded by design: one goroutine at a time may
// schedule or execute events. Each run owns one Engine; parallelism
// lives across runs (internal/parallel), never inside one.
type Engine struct {
	now Time
	q   eventQueue
	// Fired counts events executed, exposed for tests and throughput stats.
	fired uint64
}

// NewEngine returns an empty engine with the clock at zero and a
// pre-sized event queue.
func NewEngine() *Engine {
	e := &Engine{}
	e.q.events = make([]event, 0, defaultQueueCap)
	return e
}

// Now reports the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Pending reports the number of scheduled-but-unfired events.
func (e *Engine) Pending() int { return e.q.len() }

// Fired reports the total number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// At schedules fn to run at absolute time t, after every event already
// scheduled at or before t. Scheduling in the past (t < Now) panics: it
// would silently reorder causality.
func (e *Engine) At(t Time, fn func()) {
	if fn == nil {
		panic("sim: nil event function")
	}
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	e.q.push(event{at: t, fn: fn})
}

// After schedules fn to run d after the current time. Negative d panics.
func (e *Engine) After(d Time, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	e.At(e.now+d, fn)
}

// Step executes the single earliest pending event, advancing the clock to
// its timestamp. It reports whether an event was executed.
func (e *Engine) Step() bool {
	if e.q.len() == 0 {
		return false
	}
	ev := e.q.pop()
	e.now = ev.at
	e.fired++
	ev.fn()
	return true
}

// Run executes events in timestamp order until the queue empties or the
// next event lies strictly beyond until; the clock then rests at the time
// of the last executed event or at until, whichever is larger.
func (e *Engine) Run(until Time) {
	for e.q.len() > 0 && e.q.peek().at <= until {
		e.Step()
	}
	if e.now < until {
		e.now = until
	}
}

// Drain executes every pending event regardless of timestamp. Useful in
// tests; production runs should prefer Run with a horizon.
func (e *Engine) Drain() {
	for e.Step() {
	}
}
