package sim

// event is a single scheduled callback.
type event struct {
	at Time
	fn func()
}

// eventQueue is the engine's pending events as one slice kept sorted
// latest-first, so the earliest event is the last element. Engine owns
// the clock and scheduling discipline; eventQueue owns the ordered
// store and hides its layout, so the ordering algorithm can change
// without touching the scheduling rules.
//
// The layout fits the model's traffic: queues stay shallow (tens of
// events) and nearly every new event lands a few slots from the
// earliest end. pop is O(1); push costs O(distance from the earliest
// end). A new event goes behind every queued event at or before its
// instant, so events at one instant fire in scheduling order with no
// sequence number.
type eventQueue struct {
	events []event // sorted by at, latest first
}

// len reports the number of queued events.
func (q *eventQueue) len() int { return len(q.events) }

// push inserts ev after every queued event at or before ev.at, shifting
// later-first neighbours up one slot by hand: copy would go through
// runtime.typedslicecopy, whose call overhead dominates the short moves
// that are the common case.
func (q *eventQueue) push(ev event) {
	q.events = append(q.events, event{})
	i := len(q.events) - 1
	for i > 0 && q.events[i-1].at <= ev.at {
		q.events[i] = q.events[i-1]
		i--
	}
	q.events[i] = ev
}

// peek returns the earliest event without removing it. It must not be
// called on an empty queue.
func (q *eventQueue) peek() *event { return &q.events[len(q.events)-1] }

// pop removes and returns the earliest event, clearing the vacated slot
// so the event's closure is not pinned by the backing array. It must
// not be called on an empty queue.
func (q *eventQueue) pop() event {
	n := len(q.events) - 1
	ev := q.events[n]
	q.events[n] = event{}
	q.events = q.events[:n]
	return ev
}
