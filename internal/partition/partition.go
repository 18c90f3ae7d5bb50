// Package partition is the parallel half of the engine split: a
// conservative-lookahead orchestrator that runs one sim.Engine per
// clock domain and advances all domains window by window, so a large
// simulation can use every host core without giving up the repo's
// byte-identical determinism contract.
//
// The synchronization discipline is the classic conservative
// (Chandy-Misra-Bryant style) window algorithm specialized to a fixed
// minimum cross-domain latency L, the "lookahead":
//
//   - every domain owns a private event heap (its *sim.Engine) and
//     executes only its own events;
//   - cross-domain interaction happens exclusively through Domain.Send,
//     which stamps the event with an arrival time >= sender-now + L and
//     hands it off through a bounded lock-free MPMC ring
//     (internal/parallel.Ring);
//   - the orchestrator repeatedly computes the global minimum pending
//     timestamp m over all domain heads and lets every domain execute
//     events with timestamp <= m + L - 1 in parallel. Any event sent
//     during such a window arrives at >= m + L, i.e. strictly after the
//     window, so no domain can ever receive an event in its past;
//   - between windows the orchestrator drains the rings and delivers
//     boundary events in (arrival time, source domain, source sequence)
//     order — a deterministic merge, independent of goroutine or ring
//     interleaving. A delivery before a domain's clock is a torn
//     window and panics: it means the declared lookahead overstated the
//     real minimum latency.
//
// Determinism: with the same inputs, every window boundary, every
// intra-domain (time, scheduling order) execution order and every
// boundary-event merge order is a pure function of simulated state,
// never of host scheduling. Runs are bit-identical across GOMAXPROCS settings, run
// counts and -race. The one contract the model must uphold is that
// results do not depend on the relative order of *same-instant* events
// in *different* domains, because those never synchronize against each
// other; events inside one domain keep the serial engine's exact FIFO
// tie-break.
//
// This package is deliberately the only place in the simulation stack
// that spawns goroutines (the simloop rule bans them in the engine and
// model packages); it is policed by the concurrency rules
// (lockdiscipline, goroleak, atomicmix, deferinloop) instead.
package partition

import (
	"fmt"
	"sort"
	"sync"

	"github.com/vipsim/vip/internal/parallel"
	"github.com/vipsim/vip/internal/sim"
)

// boundary is one cross-domain event in flight: fn runs in domain dst
// at simulated time at. src and seq make the barrier's merge order
// deterministic.
type boundary struct {
	at  sim.Time
	src int
	seq uint64
	dst int
	fn  func()
}

// ringCap bounds each destination's MPMC inbox ring. Overflowing sends
// fall back to the sender's private overflow slice, so capacity is a
// fast-path size, not a correctness limit.
const ringCap = 1024

// Domain is one clock domain: a private engine plus its outbound
// boundary machinery. All scheduling inside a domain goes through its
// Engine exactly as in the serial simulator; only Send crosses domains.
// A Domain is single-threaded: the orchestrator hands it to at most one
// worker per window, and the window barrier orders every hand-off.
type Domain struct {
	id       int
	eng      *sim.Engine
	c        *Coordinator
	sendSeq  uint64
	sent     bool
	overflow []boundary
}

// ID reports the domain's index.
func (d *Domain) ID() int { return d.id }

// Engine returns the domain's private engine. Model code running inside
// the domain schedules on it exactly as in the serial simulator.
func (d *Domain) Engine() *sim.Engine { return d.eng }

// Send schedules fn to run in domain dst at now+delay. Cross-domain
// sends must declare delay >= the coordinator's lookahead — that bound
// is what makes the parallel windows safe — and panic otherwise, so a
// model that understates its physical latency floor fails loudly at the
// send site instead of corrupting a timeline. A send to the domain
// itself is ordinary local scheduling.
func (d *Domain) Send(dst int, delay sim.Time, fn func()) {
	if dst < 0 || dst >= len(d.c.domains) {
		panic(fmt.Sprintf("partition: send to unknown domain %d (have %d)", dst, len(d.c.domains)))
	}
	if dst == d.id {
		d.eng.After(delay, fn)
		return
	}
	if delay < d.c.lookahead {
		panic(fmt.Sprintf("partition: cross-domain send with delay %v below the lookahead %v; the declared lookahead must be a true lower bound on boundary latency", delay, d.c.lookahead))
	}
	d.sendSeq++
	b := boundary{at: d.eng.Now() + delay, src: d.id, seq: d.sendSeq, dst: dst, fn: fn}
	if !d.c.rings[dst].TryPush(b) {
		d.overflow = append(d.overflow, b)
	}
	d.sent = true
}

// runSlice executes the domain's events up to and including bound. It
// runs on one worker goroutine during a window; the bound is the
// conservative horizon, so nothing executed here can be affected by
// events still in flight from other domains.
func (d *Domain) runSlice(bound sim.Time) {
	for {
		at, ok := d.eng.NextAt()
		if !ok || at > bound {
			return
		}
		d.eng.Step()
	}
}

// Stats aggregates orchestrator activity over a run.
type Stats struct {
	// Windows counts barrier-synchronized parallel windows.
	Windows uint64
	// Sprints counts lone-domain fast-path slices: when exactly one
	// domain holds events, it runs at full serial speed (no barriers)
	// until its first cross-domain send.
	Sprints uint64
	// Boundary counts cross-domain events delivered at barriers.
	Boundary uint64
	// Fired is the total number of events executed across all domains.
	Fired uint64
}

// Coordinator advances a set of clock domains with conservative
// lookahead windows. It implements the engine-driver seam the runner
// uses (Run(until)), so a partitioned run drops in for a serial
// Engine.Run call.
type Coordinator struct {
	lookahead sim.Time
	domains   []*Domain
	rings     []*parallel.Ring[boundary]
	inbox     []boundary // barrier scratch, reused across windows
	stats     Stats
}

// New builds a coordinator with n domains. n must be >= 1; with n > 1
// the lookahead must be positive — a zero-latency boundary admits no
// conservative window, which is exactly the "coupled substrate" case
// the platform planner collapses to a single domain.
func New(n int, lookahead sim.Time) *Coordinator {
	if n < 1 {
		panic(fmt.Sprintf("partition: need at least one domain, got %d", n))
	}
	if n > 1 && lookahead <= 0 {
		panic(fmt.Sprintf("partition: %d domains need a positive lookahead, got %v", n, lookahead))
	}
	c := &Coordinator{lookahead: lookahead}
	c.domains = make([]*Domain, n)
	c.rings = make([]*parallel.Ring[boundary], n)
	for i := range c.domains {
		c.domains[i] = &Domain{id: i, eng: sim.NewEngine(), c: c}
		c.rings[i] = parallel.NewRing[boundary](ringCap)
	}
	return c
}

// Domains reports the number of clock domains.
func (c *Coordinator) Domains() int { return len(c.domains) }

// Lookahead reports the conservative window width.
func (c *Coordinator) Lookahead() sim.Time { return c.lookahead }

// Domain returns domain i.
func (c *Coordinator) Domain(i int) *Domain { return c.domains[i] }

// Stats returns a snapshot of orchestrator activity. Call it between
// Run invocations, never concurrently with one.
func (c *Coordinator) Stats() Stats {
	s := c.stats
	for _, d := range c.domains {
		s.Fired += d.eng.Fired()
	}
	return s
}

// Run executes all domains' events in conservative windows until every
// pending timestamp lies strictly beyond until, then settles every
// domain clock at until — the exact contract of the serial
// Engine.Run(until), lifted to n domains.
func (c *Coordinator) Run(until sim.Time) {
	if len(c.domains) == 1 {
		// One domain is the serial engine, bit for bit: no windows, no
		// barriers, no goroutines.
		c.domains[0].eng.Run(until)
		return
	}
	for {
		c.deliver()
		m, ok := c.minNext()
		if !ok || m > until {
			break
		}
		// Conservative horizon: everything below m+lookahead is safe
		// because in-flight and future sends arrive at >= m+lookahead.
		bound := until
		if rem := until - m; rem >= c.lookahead {
			bound = m + c.lookahead - 1
		}
		if d, lone := c.loneDomain(); lone {
			c.sprint(d, until)
			continue
		}
		c.window(bound)
	}
	for _, d := range c.domains {
		// Nothing <= until is pending anywhere; this only parks the
		// clocks at the horizon, as the serial engine does.
		d.eng.Run(until)
	}
}

// minNext computes the global minimum pending timestamp.
func (c *Coordinator) minNext() (sim.Time, bool) {
	var m sim.Time
	ok := false
	for _, d := range c.domains {
		if at, has := d.eng.NextAt(); has && (!ok || at < m) {
			m, ok = at, true
		}
	}
	return m, ok
}

// loneDomain reports whether exactly one domain holds pending events.
func (c *Coordinator) loneDomain() (*Domain, bool) {
	var lone *Domain
	for _, d := range c.domains {
		if d.eng.Pending() == 0 {
			continue
		}
		if lone != nil {
			return nil, false
		}
		lone = d
	}
	return lone, lone != nil
}

// sprint is the lone-domain fast path: when every other domain is
// empty, d's events are causally isolated until d itself sends, so it
// may run past the lookahead horizon at full serial speed. The slice
// stops at the first cross-domain send: every executed event has
// timestamp <= the send instant (timestamp order), so stopping there
// re-establishes the conservative invariant before anyone else runs.
func (c *Coordinator) sprint(d *Domain, until sim.Time) {
	c.stats.Sprints++
	d.sent = false
	for {
		at, ok := d.eng.NextAt()
		if !ok || at > until {
			return
		}
		d.eng.Step()
		if d.sent {
			return
		}
	}
}

// window runs every domain holding events within the bound, in
// parallel, and waits for all of them — the barrier of the algorithm.
func (c *Coordinator) window(bound sim.Time) {
	c.stats.Windows++
	var active []*Domain
	for _, d := range c.domains {
		if at, ok := d.eng.NextAt(); ok && at <= bound {
			active = append(active, d)
		}
	}
	if len(active) == 1 {
		active[0].runSlice(bound)
		return
	}
	var wg sync.WaitGroup
	for _, d := range active {
		wg.Add(1)
		go func(d *Domain) {
			defer wg.Done()
			d.runSlice(bound)
		}(d)
	}
	wg.Wait()
}

// deliver drains every inbox ring and overflow list and schedules the
// boundary events on their destination engines in (at, src, seq) order.
// The sort makes the merge deterministic regardless of how producers
// interleaved on the rings; delivering before a destination's clock is
// the torn-window failure and panics.
func (c *Coordinator) deliver() {
	for _, r := range c.rings {
		for {
			b, ok := r.TryPop()
			if !ok {
				break
			}
			c.inbox = append(c.inbox, b)
		}
	}
	for _, d := range c.domains {
		if len(d.overflow) > 0 {
			c.inbox = append(c.inbox, d.overflow...)
			d.overflow = d.overflow[:0]
		}
	}
	if len(c.inbox) == 0 {
		return
	}
	sort.Slice(c.inbox, func(i, j int) bool {
		a, b := &c.inbox[i], &c.inbox[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.src != b.src {
			return a.src < b.src
		}
		return a.seq < b.seq
	})
	for i := range c.inbox {
		b := &c.inbox[i]
		d := c.domains[b.dst]
		if now := d.eng.Now(); b.at < now {
			panic(fmt.Sprintf("partition: torn window: boundary event from domain %d for domain %d at %v is in the destination's past (clock %v); the declared lookahead %v is not a true latency floor", b.src, b.dst, b.at, now, c.lookahead))
		}
		d.eng.At(b.at, b.fn)
		c.stats.Boundary++
	}
	for i := range c.inbox {
		c.inbox[i] = boundary{} // unpin delivered closures
	}
	c.inbox = c.inbox[:0]
}
