package parallel

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPoolRunsEverything: every admitted task runs exactly once.
func TestPoolRunsEverything(t *testing.T) {
	p := NewPool(4, 128)
	var ran atomic.Int64
	for i := 0; i < 100; i++ {
		if err := p.Submit(context.Background(), int64(i), func(context.Context) {
			ran.Add(1)
		}); err != nil {
			t.Fatalf("Submit(%d): %v", i, err)
		}
	}
	p.Close()
	if got := ran.Load(); got != 100 {
		t.Errorf("ran %d tasks, want 100", got)
	}
}

// TestPoolEDFOrder: with one worker, queued tasks dispatch in deadline
// order regardless of submission order.
func TestPoolEDFOrder(t *testing.T) {
	p := NewPool(1, 16)

	// Park the single worker so subsequent submissions queue up.
	gate := make(chan struct{})
	started := make(chan struct{})
	_ = p.Submit(context.Background(), 0, func(context.Context) {
		close(started)
		<-gate
	})
	<-started

	var mu sync.Mutex
	var order []int64
	for _, d := range []int64{50, 10, 40, 20, 30} {
		d := d
		if err := p.Submit(context.Background(), d, func(context.Context) {
			mu.Lock()
			order = append(order, d)
			mu.Unlock()
		}); err != nil {
			t.Fatal(err)
		}
	}
	close(gate)
	p.Close()

	want := []int64{10, 20, 30, 40, 50}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("dispatch order = %v, want %v", order, want)
		}
	}
}

// TestPoolEDFAcrossWorkers: EDF order is global, not per worker. While
// worker A runs X, worker B, freed next, must take the earliest task
// still queued (Y), not one submitted after it with a later deadline
// (Z).
func TestPoolEDFAcrossWorkers(t *testing.T) {
	p := NewPool(2, 16)
	defer p.Close()
	gateX := make(chan struct{})
	defer close(gateX) // runs before Close, which waits for X

	// occupy blocks one worker until its gate opens.
	occupy := func(gate chan struct{}) {
		t.Helper()
		started := make(chan struct{})
		if err := p.Submit(context.Background(), 0, func(context.Context) {
			close(started)
			<-gate
		}); err != nil {
			t.Fatal(err)
		}
		<-started
	}
	gateA, gateB := make(chan struct{}), make(chan struct{})
	occupy(gateA)
	occupy(gateB)

	var mu sync.Mutex
	var order []string
	var ran sync.WaitGroup
	record := func(name string) func(context.Context) {
		ran.Add(1)
		return func(context.Context) {
			defer ran.Done()
			mu.Lock()
			order = append(order, name)
			mu.Unlock()
		}
	}
	startedX := make(chan struct{})
	if err := p.Submit(context.Background(), 1, func(context.Context) {
		close(startedX)
		<-gateX
	}); err != nil {
		t.Fatal(err)
	}
	if err := p.Submit(context.Background(), 10, record("Y")); err != nil {
		t.Fatal(err)
	}
	close(gateA)
	<-startedX
	if err := p.Submit(context.Background(), 30, record("Z")); err != nil {
		t.Fatal(err)
	}
	close(gateB)
	ran.Wait()

	if len(order) != 2 || order[0] != "Y" || order[1] != "Z" {
		t.Fatalf("order after X = %v, want [Y Z]", order)
	}
}

// TestPoolShedsWhenFull: a full admission queue rejects immediately
// with ErrQueueFull instead of blocking the submitter.
func TestPoolShedsWhenFull(t *testing.T) {
	p := NewPool(1, 2)
	gate := make(chan struct{})
	started := make(chan struct{})
	_ = p.Submit(context.Background(), 0, func(context.Context) {
		close(started)
		<-gate
	})
	<-started // worker busy; queue empty

	if err := p.Submit(context.Background(), 1, func(context.Context) {}); err != nil {
		t.Fatal(err)
	}
	if err := p.Submit(context.Background(), 2, func(context.Context) {}); err != nil {
		t.Fatal(err)
	}
	if got := p.Stats().Depth; got != 2 {
		t.Fatalf("Depth = %d, want 2", got)
	}
	if err := p.Submit(context.Background(), 3, func(context.Context) {}); err != ErrQueueFull {
		t.Fatalf("Submit on full queue = %v, want ErrQueueFull", err)
	}
	close(gate)
	p.Close()
}

// TestPoolCancelDelivery: a task whose context is cancelled while
// queued is still dispatched, and observes the cancellation.
func TestPoolCancelDelivery(t *testing.T) {
	p := NewPool(1, 16)
	gate := make(chan struct{})
	started := make(chan struct{})
	_ = p.Submit(context.Background(), 0, func(context.Context) {
		close(started)
		<-gate
	})
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	sawErr := make(chan error, 1)
	if err := p.Submit(ctx, 1, func(c context.Context) { sawErr <- c.Err() }); err != nil {
		t.Fatal(err)
	}
	cancel()
	close(gate)
	if err := <-sawErr; err == nil {
		t.Error("queued task did not observe its cancellation")
	}
	p.Close()
}

// TestPoolCloseDrainsWithCancelledContext: tasks pending at Close run
// with a cancelled context rather than vanishing.
func TestPoolCloseDrainsWithCancelledContext(t *testing.T) {
	p := NewPool(1, 16)
	gate := make(chan struct{})
	started := make(chan struct{})
	_ = p.Submit(context.Background(), 0, func(context.Context) {
		close(started)
		<-gate
	})
	<-started

	var drained atomic.Int64
	var cancelled atomic.Int64
	for i := 0; i < 5; i++ {
		_ = p.Submit(context.Background(), int64(i), func(c context.Context) {
			drained.Add(1)
			if c.Err() != nil {
				cancelled.Add(1)
			}
		})
	}
	go func() {
		time.Sleep(10 * time.Millisecond)
		close(gate)
	}()
	p.Close()
	if drained.Load() != 5 || cancelled.Load() != 5 {
		t.Errorf("drained %d (cancelled %d), want 5/5", drained.Load(), cancelled.Load())
	}
	if err := p.Submit(context.Background(), 0, func(context.Context) {}); err != ErrPoolClosed {
		t.Errorf("Submit after Close = %v, want ErrPoolClosed", err)
	}
}

// TestPoolQuiesce: Quiesce returns only after every admitted task has
// finished — the drain primitive vipserve's graceful shutdown rests on.
func TestPoolQuiesce(t *testing.T) {
	p := NewPool(2, 16)
	defer p.Close()

	// Idle pool quiesces immediately.
	if err := p.Quiesce(context.Background()); err != nil {
		t.Fatalf("Quiesce on idle pool: %v", err)
	}

	var done atomic.Int32
	release := make(chan struct{})
	for i := 0; i < 6; i++ {
		err := p.Submit(context.Background(), int64(i), func(context.Context) {
			<-release
			done.Add(1)
		})
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
	}

	// With tasks blocked, Quiesce must time out, not report idle.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := p.Quiesce(ctx); err == nil {
		t.Fatal("Quiesce reported idle while tasks were blocked")
	}

	close(release)
	if err := p.Quiesce(context.Background()); err != nil {
		t.Fatalf("Quiesce after release: %v", err)
	}
	if got := done.Load(); got != 6 {
		t.Errorf("Quiesce returned with %d of 6 tasks complete", got)
	}
	st := p.Stats()
	if st.Inflight != 0 {
		t.Errorf("Inflight = %d after quiesce, want 0", st.Inflight)
	}
	if st.Depth != 0 {
		t.Errorf("Depth = %d after quiesce, want 0", st.Depth)
	}
}
