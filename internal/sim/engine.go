package sim

import "fmt"

// defaultQueueCap pre-sizes the queue so steady-state scheduling never
// grows the backing array, and keeps that array (170 24-byte events,
// 4080 B) inside the 4 KB allocation size class. Measured peaks over
// 200 ms, in queued events: 21 for 4×A5 on Baseline, 33 on VIP, 78 and
// 98 for 32 A5 players; 29 over the whole 50 ms fig15 sweep.
const defaultQueueCap = 170

// EngineVersion names the current revision of the simulation model for
// content-addressed result reuse: cached reports are keyed by
// (scenario hash, EngineVersion), so a stale cache can never serve
// results computed by an older model. Bump the revision whenever a
// change alters any simulated output for some scenario — event
// ordering, cost models, defaults, report contents — and leave it
// alone for pure refactors, which the same-seed byte-identical
// reproducibility tests already police.
const EngineVersion = "vip-engine/1"

// Tag is the merge identity of events scheduled with AtMerge. NewTag
// hands out fresh ones; the zero Tag is never handed out.
type Tag uint32

// Engine is a deterministic discrete-event scheduler. The zero value is
// ready to use; Now starts at 0. NewEngine additionally pre-sizes the
// event queue so the scheduling hot path is allocation-free.
//
// One queued event may stand for several model events (see AfterN and
// AtMerge). Fired and Pending count model events, so they read the
// same as if every model event were queued on its own.
//
// An Engine is single-threaded by design: one goroutine at a time may
// schedule or execute events. Each run owns one Engine; parallelism
// lives across runs (internal/parallel), never inside one.
type Engine struct {
	now   Time
	q     eventQueue
	fired uint64 // model events executed
	tags  Tag    // the last tag NewTag handed out
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

// Pending reports the number of scheduled-but-unfired model events.
func (e *Engine) Pending() int { return e.q.modelEvents() }

// Fired reports the total number of model events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// At schedules fn to run at absolute time t, after every event already
// scheduled at or before t. Scheduling in the past (t < Now) panics: it
// would silently reorder causality.
func (e *Engine) At(t Time, fn func()) {
	e.check(t, fn)
	e.q.push(event{at: t, fn: fn, n: 1})
}

// After schedules fn to run d after the current time. Negative d panics.
func (e *Engine) After(d Time, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	e.At(e.now+d, fn)
}

// AfterN is After for n model events that one call of fn carries out:
// fn runs once, and Fired and Pending count n. n < 1 panics.
func (e *Engine) AfterN(d Time, n int, fn func()) {
	if d < 0 || n < 1 {
		panic(fmt.Sprintf("sim: AfterN with delay %v, weight %d", d, n))
	}
	e.check(e.now+d, fn)
	e.q.push(event{at: e.now + d, fn: fn, n: uint32(n)})
}

// NewTag returns a merge identity no other call has returned.
func (e *Engine) NewTag() Tag {
	e.tags++
	return e.tags
}

// AtMerge is At for an event that may merge into the one queued ahead
// of it: when the event that would fire immediately before this one
// has the same tag and instant, the two make one call of fn, and Fired
// and Pending still count both. The merge is exact when running fn
// twice back to back does what one run does, and every event scheduled
// with tag runs the same fn. Merged events stay adjacent until they
// fire: a later push at their instant lands behind both, and one at an
// earlier instant before both, so no event can come between them, and
// Run(until) runs both or neither. A zero tag panics.
func (e *Engine) AtMerge(t Time, tag Tag, fn func()) {
	if tag == 0 {
		panic("sim: AtMerge with the zero tag")
	}
	e.check(t, fn)
	e.q.pushMerge(event{at: t, fn: fn, n: 1, tag: tag})
}

// check panics on a nil fn or an instant before now. It stays small
// enough to inline into every scheduling call; badEvent, kept out of
// line, builds the message.
func (e *Engine) check(t Time, fn func()) {
	if fn == nil || t < e.now {
		e.badEvent(t, fn)
	}
}

//go:noinline
func (e *Engine) badEvent(t Time, fn func()) {
	if fn == nil {
		panic("sim: nil event function")
	}
	panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
}

// Step executes the earliest queued event, one call of its fn however
// many model events it stands for, advancing the clock to its
// timestamp. It reports whether an event was executed.
func (e *Engine) Step() bool {
	if e.q.len() == 0 {
		return false
	}
	ev := e.q.pop()
	e.now = ev.at
	e.fired += uint64(ev.n)
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
