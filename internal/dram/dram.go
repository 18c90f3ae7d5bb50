// Package dram models the LPDDR3 main memory of the handheld platform:
// multiple channels, per-channel banks with open-row policy, FR-FCFS-style
// scheduling, and tCL/tRP/tRCD timing per Table 3 of the paper. It also
// collects the bandwidth statistics behind Figures 3c and 3d, and supports
// the "Ideal" zero-latency memory the paper uses as an upper bound.
package dram

import (
	"fmt"

	"github.com/vipsim/vip/internal/energy"
	"github.com/vipsim/vip/internal/fault"
	"github.com/vipsim/vip/internal/metrics"
	"github.com/vipsim/vip/internal/sim"
)

// Config describes the memory system. DefaultConfig matches Table 3.
type Config struct {
	Channels        int      // independent channels
	BanksPerChannel int      // banks per channel
	RowBytes        int      // row-buffer size per bank
	TCL             sim.Time // CAS latency
	TRP             sim.Time // row precharge
	TRCD            sim.Time // row activate
	ChannelBPS      float64  // data-bus bandwidth per channel, bytes/s
	InterleaveBytes int      // channel interleave granularity
	MaxScan         int      // FR-FCFS scan depth when hunting row hits

	// TREFI is the all-bank refresh interval per channel and TRFC the
	// refresh cycle time; refresh blocks new requests on the channel.
	// TREFI <= 0 or TRFC <= 0 disables refresh; with refresh on, TRFC
	// must be below TREFI.
	TREFI sim.Time
	TRFC  sim.Time

	// Ideal makes the memory system a zero-latency, infinite-bandwidth
	// conduit (still counts traffic). Used by the Figure 3 "Ideal" bars.
	Ideal bool

	// Energy parameters.
	DynamicNJPerByte float64 // per byte transferred
	ActivateNJ       float64 // per row activation (miss)
	RefreshNJ        float64 // per all-bank refresh cycle
	BackgroundW      float64 // whole-device background power

	// BWWindow is the sampling window for the bandwidth-over-time
	// histogram (Figure 3d).
	BWWindow sim.Time

	// Metrics, when non-nil, receives the controller's gauges (queue
	// depth, consumed bandwidth, row-hit rate).
	Metrics *metrics.Registry

	// Injector, when non-nil and enabled, delivers transient DRAM errors
	// per beat: ECC corrects them by re-reading, which extends the
	// beat's service time and charges an extra activation.
	Injector *fault.Injector
}

// DefaultConfig returns the LPDDR3 configuration of Table 3: 4 channels,
// 1 rank, 8 banks, tCL = tRP = tRCD = 12 ns.
func DefaultConfig() Config {
	return Config{
		Channels:         4,
		BanksPerChannel:  8,
		RowBytes:         4 << 10,
		TCL:              12 * sim.Nanosecond,
		TRP:              12 * sim.Nanosecond,
		TRCD:             12 * sim.Nanosecond,
		ChannelBPS:       4.0e9, // 16 GB/s aggregate peak
		InterleaveBytes:  1 << 10,
		MaxScan:          16,
		TREFI:            3900 * sim.Nanosecond,
		TRFC:             130 * sim.Nanosecond,
		DynamicNJPerByte: 0.045,
		ActivateNJ:       2.0,
		RefreshNJ:        4.0,
		BackgroundW:      0.080,
		BWWindow:         sim.Millisecond,
	}
}

// PeakBPS reports the aggregate peak data bandwidth in bytes/second.
func (c Config) PeakBPS() float64 { return float64(c.Channels) * c.ChannelBPS }

func (c Config) validate() error {
	if c.Channels <= 0 || c.BanksPerChannel <= 0 {
		return fmt.Errorf("dram: need at least one channel and bank, got %d/%d", c.Channels, c.BanksPerChannel)
	}
	if c.RowBytes <= 0 || c.InterleaveBytes <= 0 {
		return fmt.Errorf("dram: row and interleave sizes must be positive")
	}
	if c.ChannelBPS <= 0 && !c.Ideal {
		return fmt.Errorf("dram: channel bandwidth must be positive")
	}
	if c.BWWindow <= 0 {
		return fmt.Errorf("dram: bandwidth window must be positive")
	}
	if c.refreshOn() && c.TRFC >= c.TREFI {
		return fmt.Errorf("dram: refresh cycle %v must be shorter than the refresh interval %v", c.TRFC, c.TREFI)
	}
	return nil
}

// refreshOn reports whether the channels refresh.
func (c Config) refreshOn() bool { return c.TREFI > 0 && c.TRFC > 0 && !c.Ideal }

// Request is one memory transaction. OnDone fires at completion time.
// The controller queues requests by value, so a caller that issues many
// requests should pass an OnDone it bound once rather than a fresh
// closure per request.
type Request struct {
	Addr   uint64
	Bytes  int
	Write  bool
	OnDone func()

	arrive sim.Time
	bank   int   // Addr's bank within its channel, decoded once by Submit
	row    int64 // Addr's row within that bank
}

// Stats aggregates controller activity.
type Stats struct {
	Requests    uint64
	BytesMoved  uint64
	RowHits     uint64
	RowMisses   uint64
	Refreshes   uint64
	ECCRetries  uint64   `json:",omitempty"` // beats re-read after an injected transient error
	TotalWait   sim.Time // queueing + service latency summed over requests
	BusyChannel sim.Time // summed channel busy time (can exceed wall time)
}

// AvgLatency reports mean request latency (arrival to completion).
func (s Stats) AvgLatency() sim.Time {
	if s.Requests == 0 {
		return 0
	}
	return s.TotalWait / sim.Time(s.Requests)
}

// RowHitRate reports the fraction of requests that hit an open row.
func (s Stats) RowHitRate() float64 {
	t := s.RowHits + s.RowMisses
	if t == 0 {
		return 0
	}
	return float64(s.RowHits) / float64(t)
}

type bank struct {
	openRow int64 // -1 = closed
}

type channel struct {
	c            *Controller
	banks        []bank
	queue        []Request
	busy         bool
	cur          Request // the request in service while busy
	refreshUntil sim.Time

	// done is the service completion, bound on the first request.
	done func()
}

// Controller is the memory controller plus DRAM device model.
type Controller struct {
	eng  *sim.Engine
	cfg  Config
	acct *energy.Account

	chans []*channel
	stats Stats

	// The refresh handlers, bound once at construction when refresh is
	// on. Each queued refresh event stands for one event per channel.
	refresh, refreshEnd func()

	// bandwidth histogram: bytes moved per BWWindow
	bwWindows []uint64
	bgFrom    sim.Time
}

// NewController builds a controller on the given engine, charging energy
// to acct. It panics on an invalid configuration (programming error).
func NewController(eng *sim.Engine, cfg Config, acct *energy.Account) *Controller {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	c := &Controller{eng: eng, cfg: cfg, acct: acct}
	c.chans = make([]*channel, cfg.Channels)
	for i := range c.chans {
		ch := &channel{c: c, banks: make([]bank, cfg.BanksPerChannel)}
		for b := range ch.banks {
			ch.banks[b].openRow = -1
		}
		c.chans[i] = ch
	}
	if cfg.refreshOn() {
		c.refresh, c.refreshEnd = c.startRefresh, c.endRefresh
		c.eng.AfterN(cfg.TREFI, cfg.Channels, c.refresh)
	}
	c.registerMetrics()
	return c
}

// registerMetrics wires the controller's gauges into the metrics
// registry (a no-op when metrics are disabled). The bandwidth gauge is a
// stateful delta: the sampler polls each gauge exactly once per tick, in
// deterministic order, so the closure's memory of the previous tick is
// reproducible.
func (c *Controller) registerMetrics() {
	reg := c.cfg.Metrics
	if !reg.Enabled() {
		return
	}
	reg.Gauge("dram.queue_depth", func() float64 { return float64(c.QueueLen()) })
	reg.Gauge("dram.bytes_total", func() float64 { return float64(c.stats.BytesMoved) })
	reg.Gauge("dram.requests_total", func() float64 { return float64(c.stats.Requests) })
	reg.Gauge("dram.row_hit_rate", func() float64 { return c.stats.RowHitRate() })
	if c.cfg.Injector.Enabled() {
		reg.Gauge("dram.ecc_retries_total", func() float64 { return float64(c.stats.ECCRetries) })
	}
	var lastBytes uint64
	var lastAt sim.Time
	reg.Gauge("dram.bandwidth_bps", func() float64 {
		now := c.eng.Now()
		db, dt := c.stats.BytesMoved-lastBytes, now-lastAt
		lastBytes, lastAt = c.stats.BytesMoved, now
		if dt <= 0 {
			return 0
		}
		return float64(db) / dt.Seconds()
	})
	var lastBusy sim.Time
	var lastBusyAt sim.Time
	reg.Gauge("dram.busy_frac", func() float64 {
		now := c.eng.Now()
		db, dt := c.stats.BusyChannel-lastBusy, now-lastBusyAt
		lastBusy, lastBusyAt = c.stats.BusyChannel, now
		if dt <= 0 {
			return 0
		}
		return float64(db) / (float64(dt) * float64(c.cfg.Channels))
	})
}

// startRefresh is the periodic all-bank refresh, armed every TREFI:
// each channel stops accepting new requests for TRFC and all its rows
// close (the next accesses miss). All channels refresh in lockstep, and
// one event per channel, armed back to back, would fire back to back in
// channel order; so one event, counted as one per channel, walks the
// channels in that order. Its end and its next start are far enough
// apart (validate keeps TRFC below TREFI) that the ends fire back to
// back too.
func (c *Controller) startRefresh() {
	until := c.eng.Now() + c.cfg.TRFC
	for _, ch := range c.chans {
		ch.refreshUntil = until
		c.stats.Refreshes++
		c.acct.Add(energy.DRAMActivate, c.cfg.RefreshNJ*1e-9)
		for b := range ch.banks {
			ch.banks[b].openRow = -1
		}
	}
	c.eng.AfterN(c.cfg.TRFC, len(c.chans), c.refreshEnd)
	c.eng.AfterN(c.cfg.TREFI, len(c.chans), c.refresh)
}

// endRefresh resumes service on every channel, in channel order, once a
// refresh cycle completes.
func (c *Controller) endRefresh() {
	for _, ch := range c.chans {
		c.startNext(ch)
	}
}

// Config returns the controller's configuration.
func (c *Controller) Config() Config { return c.cfg }

// Stats returns a copy of the accumulated statistics.
func (c *Controller) Stats() Stats { return c.stats }

// channelOf maps an address to its channel by interleave granularity.
func (c *Controller) channelOf(addr uint64) int {
	return int(addr/uint64(c.cfg.InterleaveBytes)) % c.cfg.Channels
}

// bankRowOf maps an address to (bank, row) within its channel.
func (c *Controller) bankRowOf(addr uint64) (int, int64) {
	// Strip the channel-interleave bits, then split the remaining local
	// address into rows striped across banks.
	local := addr / uint64(c.cfg.InterleaveBytes*c.cfg.Channels)
	rowSpan := uint64(c.cfg.RowBytes / c.cfg.InterleaveBytes)
	if rowSpan == 0 {
		rowSpan = 1
	}
	rowIdx := local / rowSpan
	bankIdx := int(rowIdx) % c.cfg.BanksPerChannel
	return bankIdx, int64(rowIdx) / int64(c.cfg.BanksPerChannel)
}

// Submit enqueues a transaction. Requests of zero or negative size
// complete immediately. Requests larger than the channel interleave are
// split into interleave-sized beats that stripe across channels, exactly
// as the physical address map would.
func (c *Controller) Submit(req Request) {
	if req.Bytes <= 0 {
		if req.OnDone != nil {
			c.eng.After(0, req.OnDone)
		}
		return
	}
	if req.Bytes > c.cfg.InterleaveBytes {
		c.submitStriped(req)
		return
	}
	c.stats.Requests++
	req.arrive = c.eng.Now()
	if c.cfg.Ideal {
		// Zero-latency conduit: account the traffic, complete now.
		c.recordBytes(req.Bytes)
		c.acct.Add(energy.DRAMDynamic, c.cfg.DynamicNJPerByte*float64(req.Bytes)*1e-9)
		if req.OnDone != nil {
			c.eng.After(0, req.OnDone)
		}
		return
	}
	ch := c.chans[c.channelOf(req.Addr)]
	req.bank, req.row = c.bankRowOf(req.Addr)
	ch.queue = append(ch.queue, req)
	if !ch.busy {
		c.startNext(ch)
	}
}

// submitStriped splits a large request into interleave-sized beats and
// completes the parent when the last beat retires.
func (c *Controller) submitStriped(req Request) {
	il := c.cfg.InterleaveBytes
	n := (req.Bytes + il - 1) / il
	remaining := n
	for k := 0; k < n; k++ {
		sz := il
		if k == n-1 {
			sz = req.Bytes - k*il
		}
		sub := Request{
			Addr:  req.Addr + uint64(k*il),
			Bytes: sz,
			Write: req.Write,
		}
		if req.OnDone != nil {
			done := req.OnDone
			sub.OnDone = func() {
				remaining--
				if remaining == 0 {
					done()
				}
			}
		}
		c.Submit(sub)
	}
}

// QueueLen reports the total number of queued (not yet serving) requests.
func (c *Controller) QueueLen() int {
	n := 0
	for _, ch := range c.chans {
		n += len(ch.queue)
	}
	return n
}

// startNext pops the next request per FR-FCFS and serves it. It is a
// no-op while the channel is already serving a request.
func (c *Controller) startNext(ch *channel) {
	if ch.busy || len(ch.queue) == 0 {
		return
	}
	if now := c.eng.Now(); now < ch.refreshUntil {
		// Refresh in progress: resume when it completes (an event is
		// already scheduled at refreshUntil).
		return
	}
	idx := 0
	scan := len(ch.queue)
	if c.cfg.MaxScan > 0 && scan > c.cfg.MaxScan {
		scan = c.cfg.MaxScan
	}
	// Prefer the first row hit within the scan window (FR), else the
	// oldest request (FCFS).
	for i := 0; i < scan; i++ {
		if r := &ch.queue[i]; ch.banks[r.bank].openRow == r.row {
			idx = i
			break
		}
	}
	req := ch.queue[idx]
	n := len(ch.queue) - 1
	copy(ch.queue[idx:], ch.queue[idx+1:])
	ch.queue[n] = Request{} // drop the vacated slot's OnDone
	ch.queue = ch.queue[:n]

	var overhead sim.Time
	if bk := &ch.banks[req.bank]; bk.openRow == req.row {
		c.stats.RowHits++
		overhead = c.cfg.TCL
	} else {
		c.stats.RowMisses++
		overhead = c.cfg.TRP + c.cfg.TRCD + c.cfg.TCL
		bk.openRow = req.row
		c.acct.Add(energy.DRAMActivate, c.cfg.ActivateNJ*1e-9)
	}
	transfer := sim.BytesOver(int64(req.Bytes), c.cfg.ChannelBPS)
	svc := overhead + transfer
	if extra, ok := c.cfg.Injector.DRAMError(); ok {
		// Transient error on the beat: ECC corrects it by re-reading,
		// which holds the channel for the retry latency and re-activates
		// the row.
		c.stats.ECCRetries++
		svc += extra
		c.acct.Add(energy.DRAMActivate, c.cfg.ActivateNJ*1e-9)
	}

	ch.busy = true
	ch.cur = req
	c.stats.BusyChannel += svc
	if ch.done == nil {
		ch.done = ch.complete
	}
	c.eng.After(svc, ch.done)
}

// complete retires the channel's request in service and starts the next.
func (ch *channel) complete() {
	c := ch.c
	// Copy the request out first: OnDone may submit to this channel,
	// which starts the next request and overwrites ch.cur.
	req := ch.cur
	ch.cur = Request{}
	c.stats.BytesMoved += uint64(req.Bytes)
	c.stats.TotalWait += c.eng.Now() - req.arrive
	c.recordBytes(req.Bytes)
	c.acct.Add(energy.DRAMDynamic, c.cfg.DynamicNJPerByte*float64(req.Bytes)*1e-9)
	ch.busy = false
	if req.OnDone != nil {
		req.OnDone()
	}
	c.startNext(ch)
}

// recordBytes attributes traffic to the current bandwidth window.
func (c *Controller) recordBytes(n int) {
	w := int(c.eng.Now() / c.cfg.BWWindow)
	for len(c.bwWindows) <= w {
		c.bwWindows = append(c.bwWindows, 0)
	}
	c.bwWindows[w] += uint64(n)
}

// AccrueBackground charges background power from the last accrual point to
// now. The platform calls this once at the end of a run.
func (c *Controller) AccrueBackground() {
	now := c.eng.Now()
	if now > c.bgFrom {
		c.acct.AddPower(energy.DRAMBackground, c.cfg.BackgroundW, now-c.bgFrom)
		c.bgFrom = now
	}
}

// AvgBandwidthBPS reports mean consumed bandwidth in bytes/second over the
// elapsed simulation time.
func (c *Controller) AvgBandwidthBPS() float64 {
	now := c.eng.Now()
	if now <= 0 {
		return 0
	}
	return float64(c.stats.BytesMoved) / now.Seconds()
}

// BandwidthHistogram buckets the per-window consumed bandwidth as a
// fraction of peak into the given number of equal-width bins spanning
// [0, 1], and reports the number of windows in each bin. This is the data
// behind Figure 3d ("time distribution of memory bandwidth").
func (c *Controller) BandwidthHistogram(bins int) []int {
	if bins <= 0 {
		bins = 10
	}
	out := make([]int, bins)
	peakPerWindow := c.cfg.PeakBPS() * c.cfg.BWWindow.Seconds()
	if c.cfg.Ideal || peakPerWindow <= 0 {
		return out
	}
	for _, b := range c.bwWindows {
		frac := float64(b) / peakPerWindow
		if frac > 1 {
			frac = 1
		}
		i := int(frac * float64(bins))
		if i >= bins {
			i = bins - 1
		}
		out[i]++
	}
	return out
}

// TimeAboveUtilization reports the fraction of sampled windows whose
// consumed bandwidth exceeded the given fraction of peak.
func (c *Controller) TimeAboveUtilization(frac float64) float64 {
	if len(c.bwWindows) == 0 {
		return 0
	}
	peakPerWindow := c.cfg.PeakBPS() * c.cfg.BWWindow.Seconds()
	if peakPerWindow <= 0 {
		return 0
	}
	n := 0
	for _, b := range c.bwWindows {
		if float64(b)/peakPerWindow > frac {
			n++
		}
	}
	return float64(n) / float64(len(c.bwWindows))
}
