package sim

// event is one queued handler call. It stands for n model events: n is
// 1 for At and After, the caller's count for AfterN, and grows by one
// each time an AtMerge event joins it. tag is the merge identity of an
// AtMerge event; 0 never merges.
type event struct {
	at  Time
	fn  func()
	n   uint32
	tag Tag
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

// modelEvents reports the number of model events the queued events
// stand for. It walks the queue: only gauges and tests ask, and the
// model's queues stay tens of events deep.
func (q *eventQueue) modelEvents() int {
	n := 0
	for i := range q.events {
		n += int(q.events[i].n)
	}
	return n
}

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

// pushMerge is push for a tagged event: when the event that would fire
// immediately before ev has ev's tag and instant, ev joins it as one
// more model event instead of taking a slot of its own. It looks for
// that event from the latest end: the model's merging events (IP-core
// patience wake-ups) land late, under one slot from that end over the
// fig15 sweep and about 7 on 4×A5 VIP, against 13 and 16 from the
// earliest.
func (q *eventQueue) pushMerge(ev event) {
	n := len(q.events)
	i := 0
	for i < n && q.events[i].at > ev.at {
		i++
	}
	// q.events[i:] fire before ev, q.events[i] last of them.
	if i < n && q.events[i].tag == ev.tag && q.events[i].at == ev.at {
		q.events[i].n++
		return
	}
	q.events = append(q.events, event{})
	for j := n; j > i; j-- {
		q.events[j] = q.events[j-1]
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
