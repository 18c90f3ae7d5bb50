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
// allocation-free once the pre-sized queue is warm: At/After, AfterN and
// AtMerge append into the existing backing array (or merge in place)
// and Step pops without boxing, so a schedule+fire round costs zero
// heap allocations.
func TestEngineZeroAllocSteadyState(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	tag := e.NewTag()
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
	allocs = testing.AllocsPerRun(1000, func() {
		e.AfterN(3, 4, fn)
		e.AtMerge(e.Now()+3, tag, fn)
		e.AtMerge(e.Now()+3, tag, fn) // merges into the one above
		e.Step()
		e.Step()
	})
	if allocs != 0 {
		t.Errorf("weighted and merged schedule+fire = %v allocs/op, want 0", allocs)
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
// event queue. It interleaves At/After/AfterN/AtMerge calls with Step
// and Run(until) horizons, using zero delays, repeated timestamps and
// callbacks that schedule more events (often at their own instant).
// The reference keeps every model event as its own entry: AfterN
// schedules n entries that one call runs, and an AtMerge entry joins
// the call of the entry just ahead of it when that entry has the same
// tag and instant. Calls must come in the order of a stable sort of
// the calls by (time, schedule index), and Fired, Pending, Now and the
// queue head must match the reference after every operation.
// With no sequence number in the queue, this pins same-instant FIFO
// under nesting. Each schedule gets its own fn, so the calls show which
// one of a merged run the engine made.
func TestEngineQueueMatchesStableSort(t *testing.T) {
	type ref struct {
		at   Time
		call int // schedule index of the call that runs this model event
		tag  Tag
	}
	merges := 0
	for seed := uint64(1); seed <= 200; seed++ {
		r := NewRNG(seed)
		e := NewEngine()
		tags := []Tag{e.NewTag(), e.NewTag()}
		var calls, made []ref // one per handler call: scheduled, made
		var pending []ref     // the reference queue, in (time, index) order
		var fired uint64
		var schedule func(depth int)
		schedule = func(depth int) {
			d := Time(r.Intn(50))
			if r.Intn(2) == 0 {
				d = Time(r.Intn(3)) // clustered: zero delays, repeated timestamps
			}
			ev := ref{at: e.Now() + d, call: len(calls)}
			weight := 1
			fn := func() {
				k := 1
				for k < len(pending) && pending[k].call == ev.call {
					k++
				}
				if pending[0] != ev || e.Now() != ev.at {
					t.Fatalf("seed %d: call %d at %v, reference expects call %d at %v",
						seed, ev.call, e.Now(), pending[0].call, pending[0].at)
				}
				pending = pending[k:]
				fired += uint64(k)
				if e.Fired() != fired || e.Pending() != len(pending) {
					t.Fatalf("seed %d: call %d sees Fired %d, Pending %d; reference %d, %d",
						seed, ev.call, e.Fired(), e.Pending(), fired, len(pending))
				}
				made = append(made, ev)
				for n := r.Intn(3); depth < 3 && n > 0; n-- {
					schedule(depth + 1)
				}
			}
			i := sort.Search(len(pending), func(k int) bool { return pending[k].at > ev.at })
			switch r.Intn(6) {
			case 0:
				e.At(ev.at, fn)
			case 1, 2:
				e.After(d, fn)
			case 3:
				weight = 1 + r.Intn(4)
				e.AfterN(d, weight, fn)
			default:
				ev.tag = tags[r.Intn(len(tags))]
				e.AtMerge(ev.at, ev.tag, fn)
				if i > 0 && pending[i-1].tag == ev.tag && pending[i-1].at == ev.at {
					// Merged: the call ahead runs this model event too.
					merges++
					pending = slices.Insert(pending, i, pending[i-1])
					return
				}
			}
			calls = append(calls, ev)
			for range weight {
				pending = slices.Insert(pending, i, ev)
			}
		}
		for op := 0; op < 300; op++ {
			switch r.Intn(5) {
			case 0, 1, 2:
				schedule(0)
			case 3:
				had := len(pending) > 0
				if e.Step() != had {
					t.Fatalf("seed %d op %d: Step disagrees with the reference", seed, op)
				}
				if had && e.Now() != made[len(made)-1].at {
					t.Fatalf("seed %d op %d: Step left now at %v, reference %v", seed, op, e.Now(), made[len(made)-1].at)
				}
			case 4:
				until := e.Now() + Time(r.Intn(40))
				e.Run(until)
				if e.Now() != until || len(pending) > 0 && pending[0].at <= until {
					t.Fatalf("seed %d op %d: Run(%v) left now at %v, reference %v", seed, op, until, e.Now(), pending)
				}
			}
			if e.Pending() != len(pending) || e.Fired() != fired {
				t.Fatalf("seed %d op %d: Pending %d, Fired %d; reference %d, %d",
					seed, op, e.Pending(), e.Fired(), len(pending), fired)
			}
			if len(pending) > 0 && e.q.peek().at != pending[0].at {
				t.Fatalf("seed %d op %d: queue head at %v; reference %v", seed, op, e.q.peek().at, pending)
			}
		}
		e.Drain()
		want := slices.Clone(calls)
		sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
		if !slices.Equal(made, want) || len(pending) != 0 || e.Pending() != 0 || e.Fired() != fired {
			t.Fatalf("seed %d: calls %v, stable sort %v; %d pending", seed, made, want, len(pending))
		}
	}
	if merges == 0 {
		t.Fatal("no AtMerge event merged; the check proves nothing")
	}
}

// TestEngineMergeRules pins when AtMerge events merge: only into the
// event that fires immediately before, with the same tag and instant.
// An unrelated event at that instant between them, another tag,
// another instant, or a predecessor that has already fired keeps them
// apart.
func TestEngineMergeRules(t *testing.T) {
	type push struct {
		at   Time
		tag  int // index into the engine's tags; -1 schedules with At
		name string
	}
	cases := []struct {
		name   string
		pushes []push
		nested *push // scheduled by the first call, at its instant
		calls  string
	}{
		{"same tag and instant", []push{{5, 0, "a"}, {5, 0, "b"}, {5, 0, "c"}}, nil, "a"},
		{"unrelated event between", []push{{5, 0, "a"}, {5, -1, "x"}, {5, 0, "b"}}, nil, "axb"},
		{"unrelated event behind a merged pair", []push{{5, 0, "a"}, {5, 0, "b"}, {5, -1, "x"}, {5, 0, "c"}}, nil, "axc"},
		{"earlier event pushed between", []push{{5, 0, "a"}, {4, -1, "x"}, {5, 0, "b"}}, nil, "xa"},
		{"other tag", []push{{5, 0, "a"}, {5, 1, "b"}}, nil, "ab"},
		{"other instant", []push{{5, 0, "a"}, {6, 0, "b"}}, nil, "ab"},
		{"untagged pair", []push{{5, -1, "a"}, {5, -1, "b"}}, nil, "ab"},
		{"predecessor already fired", []push{{5, 0, "a"}}, &push{5, 0, "b"}, "ab"},
	}
	for _, c := range cases {
		e := NewEngine()
		tags := []Tag{e.NewTag(), e.NewTag()}
		var calls string
		var nestedDone bool
		sched := func(p push) {
			fn := func() {
				calls += p.name
				if c.nested != nil && !nestedDone {
					nestedDone = true
					q := *c.nested
					e.AtMerge(q.at, tags[q.tag], func() { calls += q.name })
				}
			}
			if p.tag < 0 {
				e.At(p.at, fn)
			} else {
				e.AtMerge(p.at, tags[p.tag], fn)
			}
		}
		for _, p := range c.pushes {
			sched(p)
		}
		if e.Pending() != len(c.pushes) {
			t.Errorf("%s: Pending = %d, want %d", c.name, e.Pending(), len(c.pushes))
		}
		e.Drain()
		want := uint64(len(c.pushes))
		if c.nested != nil {
			want++
		}
		if calls != c.calls || e.Fired() != want || e.Pending() != 0 {
			t.Errorf("%s: calls %q, Fired %d, Pending %d; want %q, %d, 0", c.name, calls, e.Fired(), e.Pending(), c.calls, want)
		}
	}
}

func TestEnginePanicsOnBadMergeOrWeight(t *testing.T) {
	for name, f := range map[string]func(e *Engine){
		"zero tag":    func(e *Engine) { e.AtMerge(0, 0, func() {}) },
		"zero weight": func(e *Engine) { e.AfterN(0, 0, func() {}) },
		"nil AfterN":  func(e *Engine) { e.AfterN(0, 2, nil) },
		"past merge":  func(e *Engine) { e.Run(10); e.AtMerge(5, e.NewTag(), func() {}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f(NewEngine())
		}()
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
