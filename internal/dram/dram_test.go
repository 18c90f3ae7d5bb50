package dram

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/vipsim/vip/internal/energy"
	"github.com/vipsim/vip/internal/sim"
)

func newTestController(t *testing.T, mutate func(*Config)) (*sim.Engine, *Controller, *energy.Account) {
	t.Helper()
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	// Most tests use generous Run horizons; periodic refresh events make
	// those horizons expensive. Refresh-specific tests re-enable it.
	cfg.TREFI = 0
	if mutate != nil {
		mutate(&cfg)
	}
	acct := &energy.Account{}
	return eng, NewController(eng, cfg, acct), acct
}

func TestDefaultConfigMatchesTable3(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Channels != 4 {
		t.Errorf("Channels = %d, want 4 (Table 3)", cfg.Channels)
	}
	if cfg.BanksPerChannel != 8 {
		t.Errorf("Banks = %d, want 8 (Table 3)", cfg.BanksPerChannel)
	}
	if cfg.TCL != 12*sim.Nanosecond || cfg.TRP != 12*sim.Nanosecond || cfg.TRCD != 12*sim.Nanosecond {
		t.Error("timing should be 12/12/12 ns per Table 3")
	}
	if err := cfg.validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Channels = 0 },
		func(c *Config) { c.BanksPerChannel = 0 },
		func(c *Config) { c.RowBytes = 0 },
		func(c *Config) { c.InterleaveBytes = -1 },
		func(c *Config) { c.ChannelBPS = 0 },
		func(c *Config) { c.BWWindow = 0 },
		// A refresh cycle as long as the interval: ends and next starts
		// would interleave.
		func(c *Config) { c.TRFC = c.TREFI },
		func(c *Config) { c.TRFC = 2 * c.TREFI },
	}
	for i, mut := range bad {
		cfg := DefaultConfig()
		mut(&cfg)
		if err := cfg.validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	// Zero bandwidth is fine for an ideal memory.
	cfg := DefaultConfig()
	cfg.ChannelBPS = 0
	cfg.Ideal = true
	if err := cfg.validate(); err != nil {
		t.Errorf("ideal config rejected: %v", err)
	}
	// TRFC is only bounded while refresh is on.
	for _, mut := range []func(*Config){
		func(c *Config) { c.TRFC, c.TREFI = 130, 0 },
		func(c *Config) { c.TRFC, c.Ideal = 2*c.TREFI, true },
	} {
		cfg := DefaultConfig()
		mut(&cfg)
		if err := cfg.validate(); err != nil {
			t.Errorf("refresh-off config rejected: %v", err)
		}
	}
}

func TestNewControllerPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	cfg := DefaultConfig()
	cfg.Channels = 0
	NewController(sim.NewEngine(), cfg, &energy.Account{})
}

func TestSingleRequestLatency(t *testing.T) {
	eng, c, _ := newTestController(t, nil)
	var done sim.Time
	c.Submit(Request{Addr: 0, Bytes: 1024, OnDone: func() { done = eng.Now() }})
	eng.Run(sim.Second)
	// Cold access: row miss = tRP+tRCD+tCL = 36ns, plus 1024B at 4 GB/s = 256ns.
	want := 36*sim.Nanosecond + sim.BytesOver(1024, 4e9)
	if done != want {
		t.Errorf("completion at %v, want %v", done, want)
	}
	st := c.Stats()
	if st.RowMisses != 1 || st.RowHits != 0 {
		t.Errorf("hits/misses = %d/%d, want 0/1", st.RowHits, st.RowMisses)
	}
}

func TestRowHitFasterThanMiss(t *testing.T) {
	eng, c, _ := newTestController(t, nil)
	var t1, t2 sim.Time
	// Same channel, same row: second access is a row hit.
	c.Submit(Request{Addr: 0, Bytes: 64, OnDone: func() { t1 = eng.Now() }})
	c.Submit(Request{Addr: 64, Bytes: 64, OnDone: func() { t2 = eng.Now() }})
	eng.Run(sim.Second)
	lat1 := t1
	lat2 := t2 - t1
	if lat2 >= lat1 {
		t.Errorf("row hit latency %v should beat miss latency %v", lat2, lat1)
	}
	if c.Stats().RowHits != 1 {
		t.Errorf("RowHits = %d, want 1", c.Stats().RowHits)
	}
}

func TestChannelParallelism(t *testing.T) {
	// Two requests to different channels should overlap; to the same
	// channel they serialize.
	// Interleave-sized requests are not striped, so placement matters.
	run := func(addr2 uint64) sim.Time {
		eng, c, _ := newTestController(t, nil)
		var last sim.Time
		done := func() { last = eng.Now() }
		c.Submit(Request{Addr: 0, Bytes: 1024, OnDone: done})
		c.Submit(Request{Addr: addr2, Bytes: 1024, OnDone: done})
		eng.Run(sim.Second)
		return last
	}
	cfg := DefaultConfig()
	sameChannel := run(uint64(cfg.InterleaveBytes * cfg.Channels)) // same channel, next row span
	diffChannel := run(uint64(cfg.InterleaveBytes))                // neighbouring channel
	if diffChannel >= sameChannel {
		t.Errorf("different channels (%v) should finish before same channel (%v)", diffChannel, sameChannel)
	}
}

func TestIdealMemoryIsInstant(t *testing.T) {
	eng, c, _ := newTestController(t, func(cfg *Config) { cfg.Ideal = true })
	var done sim.Time = -1
	c.Submit(Request{Addr: 0, Bytes: 1 << 20, OnDone: func() { done = eng.Now() }})
	eng.Run(sim.Second)
	if done != 0 {
		t.Errorf("ideal memory completed at %v, want 0", done)
	}
	if c.Stats().BytesMoved != 0 {
		// Ideal mode records via windows, not BytesMoved; both acceptable,
		// but traffic must be visible somewhere:
		t.Log("BytesMoved accounted in ideal mode")
	}
}

func TestZeroByteRequestCompletes(t *testing.T) {
	eng, c, _ := newTestController(t, nil)
	fired := false
	c.Submit(Request{Addr: 0, Bytes: 0, OnDone: func() { fired = true }})
	eng.Run(sim.Second)
	if !fired {
		t.Error("zero-byte request should still complete")
	}
	if c.Stats().Requests != 0 {
		t.Error("zero-byte request should not count")
	}
}

func TestNilOnDoneAllowed(t *testing.T) {
	eng, c, _ := newTestController(t, nil)
	c.Submit(Request{Addr: 0, Bytes: 100})
	c.Submit(Request{Addr: 0, Bytes: 0})
	eng.Run(sim.Second) // must not panic
	if c.Stats().BytesMoved != 100 {
		t.Errorf("BytesMoved = %d, want 100", c.Stats().BytesMoved)
	}
}

func TestBandwidthSaturation(t *testing.T) {
	// Offer 2x the peak bandwidth for 10ms; consumed BW should cap near peak.
	eng, c, _ := newTestController(t, nil)
	cfg := c.Config()
	peak := cfg.PeakBPS()
	chunk := 4096
	var addr uint64
	var offered float64
	var pump func(chIdx int)
	pumps := make([]func(), cfg.Channels)
	pump = func(chIdx int) {
		a := addr
		addr += uint64(chunk)
		offered += float64(chunk)
		c.Submit(Request{Addr: a*uint64(cfg.Channels) + uint64(chIdx*cfg.InterleaveBytes), Bytes: chunk, OnDone: func() {
			if eng.Now() < 10*sim.Millisecond {
				pumps[chIdx]()
				pumps[chIdx]() // offer 2x
			}
		}})
	}
	for i := 0; i < cfg.Channels; i++ {
		i := i
		pumps[i] = func() { pump(i) }
		pumps[i]()
	}
	eng.Run(10 * sim.Millisecond)
	got := c.AvgBandwidthBPS()
	if got > peak*1.01 {
		t.Errorf("consumed %v B/s exceeds peak %v", got, peak)
	}
	if got < peak*0.5 {
		t.Errorf("consumed %v B/s, want a busy memory (>50%% of %v)", got, peak)
	}
}

func TestStatsLatencyGrowsWithLoad(t *testing.T) {
	latency := func(n int) sim.Time {
		eng, c, _ := newTestController(t, nil)
		for i := 0; i < n; i++ {
			c.Submit(Request{Addr: uint64(i * 1024), Bytes: 1024})
		}
		eng.Run(sim.Second)
		return c.Stats().AvgLatency()
	}
	light := latency(2)
	heavy := latency(64)
	if heavy <= light {
		t.Errorf("avg latency should grow with load: light=%v heavy=%v", light, heavy)
	}
}

func TestBandwidthHistogram(t *testing.T) {
	eng, c, _ := newTestController(t, nil)
	// Saturate for ~4 windows.
	var addr uint64
	var pump func()
	pump = func() {
		a := addr
		addr += 4096
		c.Submit(Request{Addr: a, Bytes: 4096, OnDone: func() {
			if eng.Now() < 4*sim.Millisecond {
				pump()
				pump()
			}
		}})
	}
	pump()
	eng.Run(5 * sim.Millisecond)
	h := c.BandwidthHistogram(10)
	total := 0
	for _, v := range h {
		total += v
	}
	if total == 0 {
		t.Fatal("histogram empty")
	}
	// At least one window should be in an upper half bin given we only
	// pump one channel (25% util) — check low bins populated instead.
	above := c.TimeAboveUtilization(0.9)
	if above < 0 || above > 1 {
		t.Errorf("TimeAboveUtilization out of range: %v", above)
	}
}

func TestHistogramBinsDefault(t *testing.T) {
	_, c, _ := newTestController(t, nil)
	if got := len(c.BandwidthHistogram(0)); got != 10 {
		t.Errorf("default bins = %d, want 10", got)
	}
}

func TestEnergyAccounting(t *testing.T) {
	eng, c, acct := newTestController(t, nil)
	c.Submit(Request{Addr: 0, Bytes: 1 << 20})
	eng.Run(sim.Second)
	c.AccrueBackground()
	if acct.Get(energy.DRAMDynamic) <= 0 {
		t.Error("dynamic energy should be positive")
	}
	if acct.Get(energy.DRAMActivate) <= 0 {
		t.Error("activate energy should be positive")
	}
	if acct.Get(energy.DRAMBackground) <= 0 {
		t.Error("background energy should be positive")
	}
	// Dynamic energy should equal bytes * nJ/B.
	want := c.Config().DynamicNJPerByte * float64(1<<20) * 1e-9
	if got := acct.Get(energy.DRAMDynamic); math.Abs(got-want) > want*1e-9 {
		t.Errorf("dynamic = %v, want %v", got, want)
	}
}

func TestAccrueBackgroundIdempotentAtSameTime(t *testing.T) {
	eng, c, acct := newTestController(t, nil)
	eng.Run(10 * sim.Millisecond)
	c.AccrueBackground()
	e1 := acct.Get(energy.DRAMBackground)
	c.AccrueBackground()
	if acct.Get(energy.DRAMBackground) != e1 {
		t.Error("double accrual at same instant must not double-charge")
	}
}

func TestRowHitRate(t *testing.T) {
	eng, c, _ := newTestController(t, nil)
	// Sequential streaming within one interleave chunk yields hits.
	for i := 0; i < 8; i++ {
		c.Submit(Request{Addr: uint64(i * 128), Bytes: 128})
	}
	eng.Run(sim.Second)
	if hr := c.Stats().RowHitRate(); hr < 0.5 {
		t.Errorf("sequential hit rate = %v, want >= 0.5", hr)
	}
}

func TestRowHitRateEmptyStats(t *testing.T) {
	var s Stats
	if s.RowHitRate() != 0 || s.AvgLatency() != 0 {
		t.Error("empty stats should report zeros")
	}
}

// Property: all submitted bytes are eventually moved, for any batch shape.
func TestConservationProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		eng := sim.NewEngine()
		cfg := DefaultConfig()
		cfg.TREFI = 0
		c := NewController(eng, cfg, &energy.Account{})
		var want uint64
		var addr uint64
		for _, s := range sizes {
			n := int(s%8192) + 1
			want += uint64(n)
			c.Submit(Request{Addr: addr, Bytes: n})
			addr += uint64(n)
		}
		eng.Run(10 * sim.Second)
		return c.Stats().BytesMoved == want && c.QueueLen() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: completion callbacks never fire before the minimum possible
// service time.
func TestMinimumLatencyProperty(t *testing.T) {
	f := func(size uint16, addrSeed uint32) bool {
		eng := sim.NewEngine()
		cfg := DefaultConfig()
		cfg.TREFI = 0
		c := NewController(eng, cfg, &energy.Account{})
		n := int(size%4096) + 1
		var done sim.Time = -1
		c.Submit(Request{Addr: uint64(addrSeed), Bytes: n, OnDone: func() { done = eng.Now() }})
		eng.Run(sim.Second)
		// Large requests stripe across channels, so the lower bound is
		// the per-channel share of the transfer.
		minSvc := cfg.TCL + sim.BytesOver(int64(n/cfg.Channels), cfg.ChannelBPS)
		return done >= minSvc
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestChannelMapping(t *testing.T) {
	_, c, _ := newTestController(t, nil)
	cfg := c.Config()
	seen := make(map[int]bool)
	for i := 0; i < cfg.Channels; i++ {
		seen[c.channelOf(uint64(i*cfg.InterleaveBytes))] = true
	}
	if len(seen) != cfg.Channels {
		t.Errorf("interleaving hit only %d of %d channels", len(seen), cfg.Channels)
	}
	// Addresses within one interleave chunk map to one channel.
	if c.channelOf(0) != c.channelOf(uint64(cfg.InterleaveBytes-1)) {
		t.Error("addresses within a chunk should share a channel")
	}
}

// bankGeometries are the layouts the mapping tests cover: the default
// power-of-two one and a 3-channel, 6-bank one whose decode divisions
// cannot reduce to shifts.
var bankGeometries = []struct {
	name string
	set  func(*Config)
}{
	{"4ch-8bank", func(*Config) {}},
	{"3ch-6bank", func(c *Config) { c.Channels, c.BanksPerChannel = 3, 6 }},
}

func TestBankMapping(t *testing.T) {
	for _, g := range bankGeometries {
		_, c, _ := newTestController(t, g.set)
		cfg := c.Config()
		b0, r0 := c.bankRowOf(0)
		b1, r1 := c.bankRowOf(uint64(cfg.RowBytes * cfg.Channels))
		if b0 == b1 && r0 == r1 {
			t.Errorf("%s: row-span stride should change bank or row", g.name)
		}
		banks := map[int]bool{}
		for i := 0; i < 4*cfg.BanksPerChannel; i++ {
			addr := uint64(i * cfg.RowBytes * cfg.Channels)
			b, row := c.bankRowOf(addr)
			if b < 0 || b >= cfg.BanksPerChannel {
				t.Fatalf("%s: bank %d of address %#x out of range", g.name, b, addr)
			}
			banks[b] = true
			// Submit decodes once; the stored copy, in service or queued,
			// must carry the bank and row of decoding the address now.
			c.Submit(Request{Addr: addr, Bytes: 64})
			ch := c.chans[c.channelOf(addr)]
			got := ch.cur
			if len(ch.queue) > 0 {
				got = ch.queue[len(ch.queue)-1]
			}
			if got.Addr != addr || got.bank != b || got.row != row {
				t.Errorf("%s: request at %#x stored as bank %d row %d, want %d/%d", g.name, addr, got.bank, got.row, b, row)
			}
		}
		if len(banks) != cfg.BanksPerChannel {
			t.Errorf("%s: rows striped over %d of %d banks", g.name, len(banks), cfg.BanksPerChannel)
		}
	}
}

// TestFRFCFSMatchesScanTimeDecode checks that serving from the bank and
// row Submit stored gives the order FR-FCFS gives when it decodes every
// queued address during the scan: per channel, the first row hit within
// MaxScan, else the oldest request.
func TestFRFCFSMatchesScanTimeDecode(t *testing.T) {
	for _, g := range bankGeometries {
		eng, c, _ := newTestController(t, g.set)
		cfg := c.Config()
		r := sim.NewRNG(3)
		const n = 600
		reqs := make([]Request, n)
		got := make([][]int, cfg.Channels)    // served request ids per channel
		queued := make([][]int, cfg.Channels) // submitted ids per channel
		for i := range reqs {
			// Three rows in every bank of every channel, so the stream
			// mixes row hits, row misses and bank conflicts.
			chunk := r.Intn(cfg.Channels * cfg.RowBytes / cfg.InterleaveBytes * cfg.BanksPerChannel * 3)
			addr := uint64(chunk*cfg.InterleaveBytes + r.Intn(4)*64)
			ch := c.channelOf(addr)
			reqs[i] = Request{Addr: addr, Bytes: 64, OnDone: func() { got[ch] = append(got[ch], i) }}
			queued[ch] = append(queued[ch], i)
		}
		eng.At(0, func() {
			for _, req := range reqs {
				c.Submit(req)
			}
		})
		eng.Drain()

		// Reference: FR-FCFS over each channel's queue, decoding at scan
		// time. Every request is queued before the first completion, so
		// the first one starts alone and each later pick sees the rest.
		reordered := false
		for ch, queue := range queued {
			open := make([]int64, cfg.BanksPerChannel)
			for b := range open {
				open[b] = -1
			}
			var order []int
			for len(queue) > 0 {
				idx := 0
				if len(order) > 0 {
					for i := 0; i < min(len(queue), cfg.MaxScan); i++ {
						if b, row := c.bankRowOf(reqs[queue[i]].Addr); open[b] == row {
							idx = i
							break
						}
					}
				}
				id := queue[idx]
				reordered = reordered || idx > 0
				queue = append(queue[:idx:idx], queue[idx+1:]...)
				b, row := c.bankRowOf(reqs[id].Addr)
				open[b] = row
				order = append(order, id)
			}
			if len(got[ch]) != len(order) {
				t.Fatalf("%s: channel %d served %d requests, want %d", g.name, ch, len(got[ch]), len(order))
			}
			for i := range order {
				if got[ch][i] != order[i] {
					t.Fatalf("%s: channel %d service %d is request %d, scan-time decode serves %d",
						g.name, ch, i, got[ch][i], order[i])
				}
			}
		}
		if !reordered {
			t.Fatalf("%s: the stream never reorders; the check proves nothing", g.name)
		}
	}
}

func TestRefreshCadence(t *testing.T) {
	eng, c, _ := newTestController(t, func(cfg *Config) { *cfg = DefaultConfig() })
	eng.Run(sim.Millisecond)
	cfg := c.Config()
	want := uint64(sim.Millisecond/cfg.TREFI) * uint64(cfg.Channels)
	got := c.Stats().Refreshes
	if got < want*9/10 || got > want*11/10 {
		t.Errorf("refreshes = %d, want ~%d over 1ms", got, want)
	}
}

// TestRefreshEventArithmetic checks the refresh counters and the
// engine's model-event counts against the per-channel arithmetic at
// every TREFI/2 over 1 ms: each channel starts a refresh at every
// k·TREFI and ends it TRFC later, one start is always pending, and an
// end is pending while a refresh is in progress.
func TestRefreshEventArithmetic(t *testing.T) {
	eng, c, _ := newTestController(t, func(cfg *Config) { *cfg = DefaultConfig() })
	cfg := c.Config()
	ch := uint64(cfg.Channels)
	for now := cfg.TREFI / 2; now <= sim.Millisecond; now += cfg.TREFI / 2 {
		eng.Run(now)
		starts := uint64(now / cfg.TREFI)
		ends := starts
		if starts > 0 && now-sim.Time(starts)*cfg.TREFI < cfg.TRFC {
			ends--
		}
		if got := c.Stats().Refreshes; got != ch*starts {
			t.Fatalf("at %v: Refreshes = %d, want %d", now, got, ch*starts)
		}
		if got := eng.Fired(); got != ch*(starts+ends) {
			t.Fatalf("at %v: Fired = %d, want %d", now, got, ch*(starts+ends))
		}
		if got := uint64(eng.Pending()); got != ch*(1+starts-ends) {
			t.Fatalf("at %v: Pending = %d, want %d", now, got, ch*(1+starts-ends))
		}
	}
}

func TestRefreshStealsBandwidth(t *testing.T) {
	// A saturated channel delivers measurably less with refresh enabled.
	run := func(refresh bool) uint64 {
		eng := sim.NewEngine()
		cfg := DefaultConfig()
		if !refresh {
			cfg.TREFI = 0
		}
		c := NewController(eng, cfg, &energy.Account{})
		var pump func(addr uint64)
		pump = func(addr uint64) {
			c.Submit(Request{Addr: addr, Bytes: 1024, OnDone: func() {
				if eng.Now() < 5*sim.Millisecond {
					pump(addr + 4096) // stay on one channel
				}
			}})
		}
		pump(0)
		eng.Run(5 * sim.Millisecond)
		return c.Stats().BytesMoved
	}
	with := run(true)
	without := run(false)
	if with >= without {
		t.Errorf("refresh should cost bandwidth: %d vs %d bytes", with, without)
	}
	// But only a few percent.
	if float64(with) < 0.9*float64(without) {
		t.Errorf("refresh overhead too large: %d vs %d", with, without)
	}
}

func TestRefreshClosesRows(t *testing.T) {
	eng, c, _ := newTestController(t, func(cfg *Config) { *cfg = DefaultConfig() })
	var hits uint64
	c.Submit(Request{Addr: 0, Bytes: 64})
	c.Submit(Request{Addr: 64, Bytes: 64, OnDone: func() { hits = c.Stats().RowHits }})
	eng.Run(sim.Millisecond)
	if hits != 1 {
		t.Fatalf("second access should row-hit before refresh, got %d", hits)
	}
	// Long after a refresh, the same row must miss again.
	fired := false
	eng.At(eng.Now()+10*c.Config().TREFI, func() {
		c.Submit(Request{Addr: 128, Bytes: 64, OnDone: func() { fired = true }})
	})
	misses := c.Stats().RowMisses
	eng.Run(eng.Now() + 20*c.Config().TREFI)
	if !fired {
		t.Fatal("post-refresh request did not complete")
	}
	if c.Stats().RowMisses <= misses {
		t.Error("refresh should close open rows, forcing a miss")
	}
}

func TestIdealMemoryHasNoRefresh(t *testing.T) {
	eng, c, _ := newTestController(t, func(cfg *Config) { cfg.Ideal = true })
	eng.Run(sim.Millisecond)
	if c.Stats().Refreshes != 0 {
		t.Error("ideal memory must not refresh")
	}
}

// TestSubmitZeroAllocSteadyState asserts that an interleave-sized read
// or write, served to completion, allocates nothing once the channel
// queues are warm: requests queue by value and each channel's
// completion and refresh are bound once. Refresh stays on, so its
// events run inside the measured rounds too.
func TestSubmitZeroAllocSteadyState(t *testing.T) {
	eng, c, _ := newTestController(t, func(cfg *Config) { *cfg = DefaultConfig() })
	il := c.Config().InterleaveBytes
	done := 0
	onDone := func() { done++ }
	var addr uint64
	serve := func(write bool) {
		want := done + 1
		c.Submit(Request{Addr: addr, Bytes: il, Write: write, OnDone: onDone})
		addr += uint64(il) * 5 // walk channels, banks and rows
		for done < want {
			eng.Step()
		}
	}
	for i := 0; i < 64; i++ {
		serve(i%2 == 0)
	}
	for _, write := range []bool{false, true} {
		if n := testing.AllocsPerRun(1000, func() { serve(write) }); n != 0 {
			t.Errorf("write=%v: one request = %v allocs/op, want 0", write, n)
		}
	}
}
