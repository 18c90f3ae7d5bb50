package ipcore

import (
	"fmt"

	"github.com/vipsim/vip/internal/sim"
)

// Lane is one virtual channel of an IP core: a job FIFO plus the
// flow-buffer that receives data from an upstream producer (paper §5.5,
// Figure 13). A conventional (non-virtualized) IP has exactly one lane;
// a VIP-enabled IP has one lane per concurrent flow it supports, each
// with its own request context, so the hardware scheduler can context
// switch between flows at sub-frame granularity.
type Lane struct {
	core *Core // consumer IP that owns this lane
	idx  int

	capBytes int // flow-buffer capacity
	used     int // bytes present in the buffer
	reserved int // bytes in flight across the SA

	jobs []*Job // FIFO of frame jobs bound to this lane

	// spaceWaiters are producer wake-ups pending the next space release;
	// they are delivered as flow-control signals through the SA. Delivery
	// swaps the list with spareWaiters, so neither array is reallocated.
	spaceWaiters, spareWaiters []func()

	maxUsed int // high-water mark of used

	// fault state (see core.go's hang/watchdog/quarantine machinery).
	hung        bool     // lane's request context is stuck
	hungPerm    bool     // the hang never self-clears and resets fail
	hangStart   sim.Time // when the current hang began
	hangGen     uint64   // invalidates stale self-clear/watchdog timers
	resets      int      // consecutive failed reset attempts
	quarantined bool     // taken out of service pending repair
}

// Index reports the lane's position within its core.
func (l *Lane) Index() int { return l.idx }

// Capacity reports the flow-buffer capacity in bytes.
func (l *Lane) Capacity() int { return l.capBytes }

// Used reports the bytes currently buffered.
func (l *Lane) Used() int { return l.used }

// QueueLen reports the number of incomplete jobs queued on the lane.
func (l *Lane) QueueLen() int {
	n := 0
	for _, j := range l.jobs {
		if !j.done {
			n++
		}
	}
	return n
}

// head returns the first incomplete job, or nil.
func (l *Lane) head() *Job {
	for len(l.jobs) > 0 && l.jobs[0].done {
		l.jobs = l.jobs[1:]
	}
	if len(l.jobs) == 0 {
		return nil
	}
	return l.jobs[0]
}

// Quarantined reports whether the lane is out of service pending repair.
func (l *Lane) Quarantined() bool { return l.quarantined }

// faulted reports whether the lane can serve work right now.
func (l *Lane) faulted() bool { return l.hung || l.quarantined }

// free reports bytes available for new reservations.
func (l *Lane) free() int { return l.capBytes - l.used - l.reserved }

// reserve claims space for an in-flight SA transfer.
func (l *Lane) reserve(n int) {
	if n > l.free() {
		panic(fmt.Sprintf("ipcore: lane %s/%d over-reserved (%d > free %d)", l.core.cfg.Name, l.idx, n, l.free()))
	}
	l.reserved += n
}

// depositReserved converts a reservation into buffered data and charges
// the buffer write energy.
func (l *Lane) depositReserved(n int) {
	if n > l.reserved {
		panic(fmt.Sprintf("ipcore: lane %s/%d deposit %d exceeds reservation %d", l.core.cfg.Name, l.idx, n, l.reserved))
	}
	l.reserved -= n
	l.used += n
	if l.used > l.maxUsed {
		l.maxUsed = l.used
	}
	l.core.chargeBufferAccess(n, true)
}

// consume removes data read by the consumer IP and wakes any producers
// waiting for space, via flow-control signals through the SA.
func (l *Lane) consume(n int) {
	if n > l.used {
		panic(fmt.Sprintf("ipcore: lane %s/%d consume %d exceeds used %d", l.core.cfg.Name, l.idx, n, l.used))
	}
	l.used -= n
	l.core.chargeBufferAccess(n, false)
	l.deliverSpaceSignals()
}

// flush discards all buffered bytes — the input of an aborted frame.
// Reservations in flight stay tracked; their SA callbacks discard them.
func (l *Lane) flush() { l.used = 0 }

// discardReserved drops an in-flight reservation whose job was aborted,
// returning the space to the flow-control budget.
func (l *Lane) discardReserved(n int) {
	if n > l.reserved {
		panic(fmt.Sprintf("ipcore: lane %s/%d discard %d exceeds reservation %d", l.core.cfg.Name, l.idx, n, l.reserved))
	}
	l.reserved -= n
	l.deliverSpaceSignals()
}

// waitForSpace registers a producer wake-up for the next space release.
func (l *Lane) waitForSpace(fn func()) {
	l.spaceWaiters = append(l.spaceWaiters, fn)
}

// notifyWaiters fires all pending space wake-ups; the core calls it when
// the lane's head job changes so producers blocked on consumer identity
// re-evaluate.
func (l *Lane) notifyWaiters() {
	l.deliverSpaceSignals()
}

// deliverSpaceSignals sends each pending wake-up as a flow-control credit
// through the SA. Under fault injection a credit can be lost in flight:
// the producer stays parked until the next space release (or a
// driver-level frame timeout) re-drives the flow.
func (l *Lane) deliverSpaceSignals() {
	if len(l.spaceWaiters) == 0 {
		return
	}
	ws := l.spaceWaiters
	l.spaceWaiters = l.spareWaiters[:0]
	for _, w := range ws {
		if l.core.cfg.Injector.CreditLoss() {
			l.spaceWaiters = append(l.spaceWaiters, w)
			continue
		}
		l.core.sa.Signal(w)
	}
	clear(ws)
	l.spareWaiters = ws[:0]
}
