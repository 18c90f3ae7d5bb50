package sim

import (
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestTimeUnits(t *testing.T) {
	if Second != 1e9 {
		t.Fatalf("Second = %d, want 1e9", int64(Second))
	}
	if Millisecond != 1e6 || Microsecond != 1e3 || Nanosecond != 1 {
		t.Fatal("unit constants wrong")
	}
}

func TestTimeConversions(t *testing.T) {
	d := 1500 * Microsecond
	if got := d.Milliseconds(); got != 1.5 {
		t.Errorf("Milliseconds = %v, want 1.5", got)
	}
	if got := d.Microseconds(); got != 1500 {
		t.Errorf("Microseconds = %v, want 1500", got)
	}
	if got := (2 * Second).Seconds(); got != 2 {
		t.Errorf("Seconds = %v, want 2", got)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{500, "500ns"},
		{1500, "1.500us"},
		{2 * Millisecond, "2.000ms"},
		{3 * Second, "3.000000s"},
		{-1500, "-1.500us"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestFPS(t *testing.T) {
	p := FPS(60)
	if p < 16666000 || p > 16667000 {
		t.Errorf("FPS(60) = %v, want ~16.667ms", p)
	}
	if FPS(0) != 0 || FPS(-5) != 0 {
		t.Error("non-positive FPS should yield 0")
	}
}

func TestBytesOver(t *testing.T) {
	// 1 GiB/s over 1 GiB is 1 second.
	const gib = 1 << 30
	d := BytesOver(gib, gib)
	if d != Second {
		t.Errorf("BytesOver = %v, want 1s", d)
	}
	if BytesOver(100, 0) != 0 {
		t.Error("zero rate should yield 0")
	}
	if BytesOver(0, 100) != 0 {
		t.Error("zero bytes should yield 0")
	}
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(30, func() { order = append(order, 3) })
	e.At(10, func() { order = append(order, 1) })
	e.At(20, func() { order = append(order, 2) })
	e.Run(100)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v, want [1 2 3]", order)
	}
	if e.Now() != 100 {
		t.Errorf("Now = %v, want 100", e.Now())
	}
}

func TestEngineFIFOAtSameInstant(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { order = append(order, i) })
	}
	e.Drain()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events fired out of order: %v", order)
		}
	}
}

func TestEngineRunHorizon(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.At(10, func() { fired++ })
	e.At(20, func() { fired++ })
	e.At(30, func() { fired++ })
	e.Run(20)
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
	if e.Now() != 20 {
		t.Fatalf("Now = %v, want 20", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", e.Pending())
	}
	e.Run(30)
	if fired != 3 {
		t.Fatalf("fired = %d, want 3", fired)
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var seen []Time
	e.At(10, func() {
		seen = append(seen, e.Now())
		e.After(5, func() { seen = append(seen, e.Now()) })
	})
	e.Run(100)
	if len(seen) != 2 || seen[0] != 10 || seen[1] != 15 {
		t.Fatalf("seen = %v, want [10 15]", seen)
	}
}

func TestEnginePanicsOnPast(t *testing.T) {
	e := NewEngine()
	e.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		e.At(5, func() {})
	})
	e.Run(20)
}

func TestEnginePanicsOnNilFn(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on nil fn")
		}
	}()
	NewEngine().At(0, nil)
}

func TestEnginePanicsOnNegativeDelay(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on negative delay")
		}
	}()
	NewEngine().After(-1, func() {})
}

func TestEngineStep(t *testing.T) {
	e := NewEngine()
	if e.Step() {
		t.Error("Step on empty engine should report false")
	}
	e.At(7, func() {})
	if !e.Step() {
		t.Error("Step should execute the pending event")
	}
	if e.Now() != 7 {
		t.Errorf("Now = %v, want 7", e.Now())
	}
	if e.Fired() != 1 {
		t.Errorf("Fired = %d, want 1", e.Fired())
	}
}

// Property: for any set of timestamps, events fire in sorted order.
func TestEngineOrderingProperty(t *testing.T) {
	f := func(stamps []uint32) bool {
		e := NewEngine()
		var fired []Time
		for _, s := range stamps {
			at := Time(s)
			e.At(at, func() { fired = append(fired, at) })
		}
		e.Drain()
		if len(fired) != len(stamps) {
			return false
		}
		sorted := make([]Time, len(fired))
		copy(sorted, fired)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for i := range fired {
			if fired[i] != sorted[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same stream")
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds produced %d identical draws", same)
	}
}

func TestRNGZeroSeed(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Error("zero seed must not produce the all-zero stream")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestRNGFloat64Mean(t *testing.T) {
	r := NewRNG(11)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestRNGIntn(t *testing.T) {
	r := NewRNG(5)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Errorf("Intn(10) hit only %d values", len(seen))
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	r.Intn(0)
}

func TestRNGExpMean(t *testing.T) {
	r := NewRNG(13)
	sum := 0.0
	const n = 50000
	for i := 0; i < n; i++ {
		sum += r.Exp(3.0)
	}
	mean := sum / n
	if math.Abs(mean-3.0) > 0.1 {
		t.Errorf("Exp mean = %v, want ~3", mean)
	}
}

func TestRNGNormalMoments(t *testing.T) {
	r := NewRNG(17)
	const n = 50000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Normal(10, 2)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-10) > 0.1 {
		t.Errorf("Normal mean = %v, want ~10", mean)
	}
	if math.Abs(math.Sqrt(variance)-2) > 0.1 {
		t.Errorf("Normal stddev = %v, want ~2", math.Sqrt(variance))
	}
}

func TestRNGLogNormalPositive(t *testing.T) {
	r := NewRNG(19)
	for i := 0; i < 1000; i++ {
		if r.LogNormal(0, 1) <= 0 {
			t.Fatal("LogNormal must be positive")
		}
	}
}

func TestRNGRange(t *testing.T) {
	r := NewRNG(23)
	for i := 0; i < 1000; i++ {
		v := r.Range(5, 10)
		if v < 5 || v >= 10 {
			t.Fatalf("Range out of bounds: %v", v)
		}
	}
}

func TestRNGFork(t *testing.T) {
	a := NewRNG(31)
	b := a.Fork()
	if a.Uint64() == b.Uint64() {
		t.Error("forked stream should diverge from parent")
	}
}

// TestEngineStepClearsPoppedSlot guards against the retention bug in the
// old container/heap implementation: eventHeap.Pop shrank the slice with
// `*h = old[:n-1]`, which kept old[n-1].fn — and everything the closure
// captured — reachable through the backing array until a later push
// happened to overwrite the slot. The sorted run clears the vacated slot
// on every Step, so a drained engine pins no closures.
func TestEngineStepClearsPoppedSlot(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 16; i++ {
		payload := make([]byte, 1<<10) // something worth not pinning
		e.At(Time(i), func() { _ = payload })
	}
	e.Drain()
	spare := e.q.events[:cap(e.q.events)]
	for i := range spare {
		if spare[i].fn != nil {
			t.Fatalf("backing-array slot %d still pins an event closure after Drain", i)
		}
	}
}

// TestEngineZeroAllocSteadyState asserts the scheduling hot path is
// allocation-free once the pre-sized queue is warm: At/After append into
// the existing backing array and Step pops without boxing, so a
// schedule+fire round costs zero heap allocations.
func TestEngineZeroAllocSteadyState(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	for i := 0; i < 64; i++ {
		e.After(Time(i%7), fn)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		e.After(3, fn)
		e.Step()
	})
	if allocs != 0 {
		t.Errorf("schedule+fire = %v allocs/op, want 0", allocs)
	}
	e.Drain()
}

// TestEngineZeroAllocChurn is the same assertion under churn: a deep
// queue with out-of-order inserts, four pushes and four pops per round,
// so inserts land deep in the sorted run, not only at its earliest end.
func TestEngineZeroAllocChurn(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	for i := 0; i < 512; i++ {
		e.After(Time((i*37)%101), fn)
	}
	var k Time
	allocs := testing.AllocsPerRun(1000, func() {
		for j := Time(0); j < 4; j++ {
			k++
			e.After((k*31)%97, fn)
		}
		for j := 0; j < 4; j++ {
			e.Step()
		}
	})
	if allocs != 0 {
		t.Errorf("churn round = %v allocs/op, want 0", allocs)
	}
	e.Drain()
}

// TestEngineQueueMatchesStableSort is a randomized model check of the
// event queue. It interleaves At/After calls with Step and Run(until)
// horizons, using zero delays, repeated timestamps and callbacks that
// schedule more events (often at their own instant). Events must fire
// in the order of a stable sort by (time, schedule index), and the
// queue head and Pending must match a reference queue after every
// operation.
// With no sequence number in the queue, this pins same-instant FIFO
// under nesting.
func TestEngineQueueMatchesStableSort(t *testing.T) {
	type ref struct {
		at  Time
		idx int // schedule index
	}
	for seed := uint64(1); seed <= 200; seed++ {
		r := NewRNG(seed)
		e := NewEngine()
		var scheduled, fired []ref
		var pending []ref // the reference queue, in (time, index) order
		var schedule func(depth int)
		schedule = func(depth int) {
			d := Time(r.Intn(50))
			if r.Intn(2) == 0 {
				d = Time(r.Intn(3)) // clustered: zero delays, repeated timestamps
			}
			ev := ref{at: e.Now() + d, idx: len(scheduled)}
			fn := func() {
				if pending[0] != ev || e.Now() != ev.at {
					t.Fatalf("seed %d: fired event %d at %v, reference expects event %d at %v",
						seed, ev.idx, e.Now(), pending[0].idx, pending[0].at)
				}
				pending = pending[1:]
				fired = append(fired, ev)
				for n := r.Intn(3); depth < 3 && n > 0; n-- {
					schedule(depth + 1)
				}
			}
			if r.Intn(2) == 0 {
				e.At(ev.at, fn)
			} else {
				e.After(d, fn)
			}
			scheduled = append(scheduled, ev)
			i := sort.Search(len(pending), func(k int) bool { return pending[k].at > ev.at })
			pending = slices.Insert(pending, i, ev)
		}
		for op := 0; op < 300; op++ {
			switch r.Intn(5) {
			case 0, 1, 2:
				schedule(0)
			case 3:
				if had := len(pending) > 0; e.Step() != had {
					t.Fatalf("seed %d op %d: Step disagrees with the reference", seed, op)
				}
			case 4:
				until := e.Now() + Time(r.Intn(40))
				e.Run(until)
				if e.Now() != until || len(pending) > 0 && pending[0].at <= until {
					t.Fatalf("seed %d op %d: Run(%v) left now at %v, reference %v", seed, op, until, e.Now(), pending)
				}
			}
			if e.Pending() != len(pending) {
				t.Fatalf("seed %d op %d: Pending = %d; reference %v", seed, op, e.Pending(), pending)
			}
			if len(pending) > 0 && e.q.peek().at != pending[0].at {
				t.Fatalf("seed %d op %d: queue head at %v; reference %v", seed, op, e.q.peek().at, pending)
			}
		}
		e.Drain()
		want := slices.Clone(scheduled)
		sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
		if !slices.Equal(fired, want) {
			t.Fatalf("seed %d: fired %v, stable sort %v", seed, fired, want)
		}
	}
}

func BenchmarkEngineSchedule(b *testing.B) {
	e := NewEngine()
	for i := 0; i < b.N; i++ {
		e.At(Time(i), func() {})
		if e.Pending() > 1024 {
			for e.Pending() > 0 {
				e.Step()
			}
		}
	}
}

func BenchmarkEngineThroughput(b *testing.B) {
	e := NewEngine()
	var next func()
	i := 0
	next = func() {
		i++
		if i < b.N {
			e.After(1, next)
		}
	}
	e.After(1, next)
	b.ResetTimer()
	e.Drain()
}
