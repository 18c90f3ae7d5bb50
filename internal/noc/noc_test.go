package noc

import (
	"testing"
	"testing/quick"

	"github.com/vipsim/vip/internal/energy"
	"github.com/vipsim/vip/internal/sim"
)

func newFabric(t *testing.T) (*sim.Engine, *Fabric, *energy.Account) {
	t.Helper()
	eng := sim.NewEngine()
	acct := &energy.Account{}
	return eng, NewFabric(eng, DefaultConfig(), acct), acct
}

func TestTransferLatency(t *testing.T) {
	eng, f, _ := newFabric(t)
	var done sim.Time
	f.Transfer(25600, func() { done = eng.Now() }) // 25.6KB at 25.6GB/s = 1us
	eng.Run(sim.Second)
	want := f.Config().Latency + sim.Microsecond
	if done != want {
		t.Errorf("transfer completed at %v, want %v", done, want)
	}
}

func TestTransfersSerialize(t *testing.T) {
	eng, f, _ := newFabric(t)
	var first, second sim.Time
	f.Transfer(25600, func() { first = eng.Now() })
	f.Transfer(25600, func() { second = eng.Now() })
	eng.Run(sim.Second)
	if second-first < sim.Microsecond {
		t.Errorf("second transfer overlapped: first=%v second=%v", first, second)
	}
	if f.Stats().Transfers != 2 || f.Stats().BytesMoved != 51200 {
		t.Errorf("stats = %+v", f.Stats())
	}
}

func TestZeroByteTransfer(t *testing.T) {
	eng, f, _ := newFabric(t)
	var done sim.Time = -1
	f.Transfer(0, func() { done = eng.Now() })
	eng.Run(sim.Second)
	if done != f.Config().Latency {
		t.Errorf("zero-byte transfer at %v, want latency %v", done, f.Config().Latency)
	}
}

func TestNegativeTransferPanics(t *testing.T) {
	_, f, _ := newFabric(t)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f.Transfer(-1, nil)
}

func TestSignalLatencyAndCount(t *testing.T) {
	eng, f, _ := newFabric(t)
	var at sim.Time = -1
	f.Signal(func() { at = eng.Now() })
	f.Signal(nil) // counted even with no callback
	eng.Run(sim.Second)
	if at != f.Config().SignalLatency {
		t.Errorf("signal delivered at %v, want %v", at, f.Config().SignalLatency)
	}
	if f.Stats().Signals != 2 {
		t.Errorf("Signals = %d, want 2", f.Stats().Signals)
	}
}

func TestSignalsBypassDataQueue(t *testing.T) {
	eng, f, _ := newFabric(t)
	var sigAt, dataAt sim.Time
	f.Transfer(1<<20, func() { dataAt = eng.Now() }) // ~41us of link time
	f.Signal(func() { sigAt = eng.Now() })
	eng.Run(sim.Second)
	if sigAt >= dataAt {
		t.Errorf("signal (%v) should not wait behind data (%v)", sigAt, dataAt)
	}
}

func TestUtilization(t *testing.T) {
	eng, f, _ := newFabric(t)
	f.Transfer(25600, nil)
	eng.Run(2 * sim.Microsecond)
	u := f.Utilization()
	if u <= 0 || u > 1 {
		t.Errorf("utilization = %v, want (0,1]", u)
	}
}

func TestUtilizationAtTimeZero(t *testing.T) {
	_, f, _ := newFabric(t)
	if f.Utilization() != 0 {
		t.Error("utilization before time advances should be 0")
	}
}

func TestEnergyCharged(t *testing.T) {
	eng, f, acct := newFabric(t)
	f.Transfer(1<<20, nil)
	eng.Run(sim.Second)
	if acct.Get(energy.SystemAgent) <= 0 {
		t.Error("SA energy should be positive after a transfer")
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	cfg := DefaultConfig()
	cfg.BytesPerSecond = 0
	NewFabric(sim.NewEngine(), cfg, &energy.Account{})
}

func TestNegativeLatencyRejected(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Latency = -1
	if err := cfg.validate(); err == nil {
		t.Error("negative latency accepted")
	}
}

// Property: all bytes offered are eventually moved and the queue drains.
func TestFabricConservationProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		eng := sim.NewEngine()
		fab := NewFabric(eng, DefaultConfig(), &energy.Account{})
		var want uint64
		for _, s := range sizes {
			n := int(s)
			want += uint64(n)
			fab.Transfer(n, nil)
		}
		eng.Run(10 * sim.Second)
		return fab.Stats().BytesMoved == want && fab.QueueLen() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: completions preserve FIFO order.
func TestFabricFIFOProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		eng := sim.NewEngine()
		fab := NewFabric(eng, DefaultConfig(), &energy.Account{})
		var order []int
		for i, s := range sizes {
			i := i
			fab.Transfer(int(s), func() { order = append(order, i) })
		}
		eng.Run(10 * sim.Second)
		if len(order) != len(sizes) {
			return false
		}
		for i, v := range order {
			if v != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestTransferZeroAllocSteadyState asserts that a transfer, queued and
// delivered, allocates nothing once the fabric is warm: transfers queue
// by value in a head-indexed FIFO and the link's completion is bound
// once.
func TestTransferZeroAllocSteadyState(t *testing.T) {
	eng, f, _ := newFabric(t)
	done := 0
	onDone := func() { done++ }
	send := func() {
		want := done + 2
		f.Transfer(1024, onDone)
		f.Transfer(64, onDone) // queues behind the first
		for done < want {
			eng.Step()
		}
	}
	for i := 0; i < 64; i++ {
		send()
	}
	if n := testing.AllocsPerRun(1000, send); n != 0 {
		t.Errorf("two queued transfers = %v allocs/op, want 0", n)
	}
}
