// Package noc models the System Agent (SA) — the centralized interconnect
// and controller on the handheld SoC. All data movement is physically
// realized through the SA: IP <-> DRAM traffic, IP-to-IP flow-buffer
// transfers, and the low-bandwidth flow-control signals between chained
// IPs (paper §5.5).
//
// The SA is modelled as an arbitrated shared link: transfers queue FIFO
// and are served one at a time at the link bandwidth with a small fixed
// per-transfer latency. Flow-control signals are modelled as latency-only
// messages that do not consume measurable bandwidth.
package noc

import (
	"fmt"

	"github.com/vipsim/vip/internal/energy"
	"github.com/vipsim/vip/internal/fault"
	"github.com/vipsim/vip/internal/metrics"
	"github.com/vipsim/vip/internal/sim"
)

// Config describes the System Agent fabric.
type Config struct {
	// BytesPerSecond is the arbitrated link bandwidth.
	BytesPerSecond float64
	// Latency is the fixed per-transfer arbitration + wire latency.
	Latency sim.Time
	// SignalLatency is the latency of a flow-control signal
	// (buffer full / not-full flags).
	SignalLatency sim.Time
	// DynamicNJPerByte is the SA energy cost of moving one byte.
	DynamicNJPerByte float64

	// Metrics, when non-nil, receives the fabric's gauges (link
	// utilization, queue depth, bytes moved).
	Metrics *metrics.Registry

	// Injector, when non-nil and enabled, drops/corrupts transfers in
	// flight: a dropped transfer is detected at delivery (CRC) and
	// retransmitted at the head of the queue, paying the wire time
	// again.
	Injector *fault.Injector
}

// DefaultConfig returns the SA used by the platform: a 25.6 GB/s shared
// link with 40 ns arbitration latency.
func DefaultConfig() Config {
	return Config{
		BytesPerSecond:   25.6e9,
		Latency:          40 * sim.Nanosecond,
		SignalLatency:    20 * sim.Nanosecond,
		DynamicNJPerByte: 0.004,
	}
}

func (c Config) validate() error {
	if c.BytesPerSecond <= 0 {
		return fmt.Errorf("noc: bandwidth must be positive")
	}
	if c.Latency < 0 || c.SignalLatency < 0 {
		return fmt.Errorf("noc: latencies must be non-negative")
	}
	return nil
}

// Stats aggregates fabric activity.
type Stats struct {
	Transfers   uint64
	Signals     uint64
	BytesMoved  uint64
	Retransmits uint64 `json:",omitempty"` // transfers re-sent after an injected drop
	Busy        sim.Time
}

type transfer struct {
	bytes  int
	onDone func()
}

// Fabric is the System Agent instance.
type Fabric struct {
	eng  *sim.Engine
	cfg  Config
	acct *energy.Account
	// queue[head:] are the transfers waiting for the link, oldest first.
	queue []transfer
	head  int
	busy  bool
	cur   transfer // the transfer on the link while busy
	done  func()   // f.complete, bound on the first transfer
	stats Stats
}

// NewFabric builds a fabric on the engine, charging energy to acct.
// It panics on an invalid configuration.
func NewFabric(eng *sim.Engine, cfg Config, acct *energy.Account) *Fabric {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	f := &Fabric{eng: eng, cfg: cfg, acct: acct}
	f.registerMetrics()
	return f
}

// registerMetrics wires the fabric's gauges into the metrics registry
// (a no-op when metrics are disabled). The utilization gauge is a
// stateful per-tick delta, like the DRAM bandwidth gauge.
func (f *Fabric) registerMetrics() {
	reg := f.cfg.Metrics
	if !reg.Enabled() {
		return
	}
	reg.Gauge("noc.queue_depth", func() float64 { return float64(f.QueueLen()) })
	reg.Gauge("noc.bytes_total", func() float64 { return float64(f.stats.BytesMoved) })
	reg.Gauge("noc.transfers_total", func() float64 { return float64(f.stats.Transfers) })
	if f.cfg.Injector.Enabled() {
		reg.Gauge("noc.retransmits_total", func() float64 { return float64(f.stats.Retransmits) })
	}
	var lastBusy, lastAt sim.Time
	reg.Gauge("noc.link_util", func() float64 {
		now := f.eng.Now()
		db, dt := f.stats.Busy-lastBusy, now-lastAt
		lastBusy, lastAt = f.stats.Busy, now
		if dt <= 0 {
			return 0
		}
		u := float64(db) / float64(dt)
		if u > 1 {
			u = 1
		}
		return u
	})
}

// Config returns the fabric configuration.
func (f *Fabric) Config() Config { return f.cfg }

// Stats returns a copy of the accumulated statistics.
func (f *Fabric) Stats() Stats { return f.stats }

// Transfer moves n bytes across the SA, calling onDone at completion.
// Zero-byte transfers still pay the arbitration latency. The transfer is
// queued by value, so a caller on a hot path should pass an onDone it
// bound once rather than a fresh closure per transfer.
func (f *Fabric) Transfer(n int, onDone func()) {
	if n < 0 {
		panic(fmt.Sprintf("noc: negative transfer size %d", n))
	}
	if f.head > 0 && len(f.queue) == cap(f.queue) {
		// Reuse the slots already served before growing the array.
		k := copy(f.queue, f.queue[f.head:])
		clear(f.queue[k:])
		f.queue = f.queue[:k]
		f.head = 0
	}
	f.queue = append(f.queue, transfer{bytes: n, onDone: onDone})
	if !f.busy {
		f.serveNext()
	}
}

// Signal delivers a flow-control flag after SignalLatency; it bypasses the
// data queue (dedicated low-bandwidth wires).
func (f *Fabric) Signal(onDelivered func()) {
	f.stats.Signals++
	if onDelivered == nil {
		return
	}
	f.eng.After(f.cfg.SignalLatency, onDelivered)
}

// serveNext starts the next queued transfer; it is a no-op while the link
// is already busy.
func (f *Fabric) serveNext() {
	if f.busy || f.head == len(f.queue) {
		return
	}
	f.cur = f.queue[f.head]
	f.queue[f.head] = transfer{}
	f.head++
	if f.head == len(f.queue) {
		f.queue, f.head = f.queue[:0], 0
	}
	f.busy = true
	d := f.cfg.Latency + sim.BytesOver(int64(f.cur.bytes), f.cfg.BytesPerSecond)
	f.stats.Busy += d
	if f.done == nil {
		f.done = f.complete
	}
	f.eng.After(d, f.done)
}

// complete delivers the transfer on the link and serves the next one.
func (f *Fabric) complete() {
	// Copy the transfer out first: onDone may queue another transfer,
	// which starts it and overwrites f.cur.
	tr := f.cur
	f.cur = transfer{}
	f.busy = false
	if f.cfg.Injector.NoCDrop() {
		// Sub-frame dropped/corrupted in flight: the CRC check at the
		// receiver fails and the link-level protocol retransmits at the
		// head of the queue. The wasted wire time and energy were already
		// paid.
		f.stats.Retransmits++
		f.stats.BytesMoved += uint64(tr.bytes)
		f.acct.Add(energy.SystemAgent, f.cfg.DynamicNJPerByte*float64(tr.bytes)*1e-9)
		f.pushFront(tr)
		f.serveNext()
		return
	}
	f.stats.Transfers++
	f.stats.BytesMoved += uint64(tr.bytes)
	f.acct.Add(energy.SystemAgent, f.cfg.DynamicNJPerByte*float64(tr.bytes)*1e-9)
	if tr.onDone != nil {
		tr.onDone()
	}
	f.serveNext()
}

// pushFront queues tr ahead of every waiting transfer.
func (f *Fabric) pushFront(tr transfer) {
	if f.head > 0 {
		f.head--
		f.queue[f.head] = tr
		return
	}
	f.queue = append(f.queue, transfer{})
	copy(f.queue[1:], f.queue)
	f.queue[0] = tr
}

// QueueLen reports the number of transfers waiting for the link.
func (f *Fabric) QueueLen() int { return len(f.queue) - f.head }

// Utilization reports the fraction of elapsed time the link was busy.
func (f *Fabric) Utilization() float64 {
	now := f.eng.Now()
	if now <= 0 {
		return 0
	}
	u := float64(f.stats.Busy) / float64(now)
	if u > 1 {
		u = 1
	}
	return u
}
