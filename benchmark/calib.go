package main

import (
	"runtime"
	"time"
)

// A shared host's speed drifts by tens of percent over seconds to
// minutes, which would swamp most changes to the simulator. So each
// closed-loop op and each batch of set-ups is bracketed by calibrations,
// runs of a fixed kernel that belongs to the benchmark and not to the
// simulator, and its time is scaled to what it would read on a host where
// the kernel takes calibRef:
//
//	normalized = measured × calibRef / (mean of the two calibrations)
//
// The kernel is shaped like the simulator's hot path (a 4-ary event
// heap, a model-state table larger than L2, string-keyed accumulators)
// so that it slows down when the simulator does, and it allocates
// nothing, so the garbage collector's share does not leak into it. The
// raw times are reported beside the normalized ones. serve-mix request
// latency is left raw; see runServe.

// calibRef is about the kernel's time, at the default work, on a quiet
// 2-vCPU Xeon VM (the host the bounds in BENCHMARK.json were set on); it
// only sets the scale.
const calibRef = 10 * time.Millisecond

// calibReps is how many times one calibration runs the kernel. A single
// run of the kernel read up to twice its usual time now and then, so a
// calibration reports the median of several.
const calibReps = 5

const (
	calibHeapSize = 1 << 14
	calibTable    = 1 << 19 // 4 MiB of uint64
)

type calEvent struct {
	at  uint64
	seq uint32
}

// kernel is the calibration kernel's state, allocated once per pass.
type kernel struct {
	iters int
	heap  []calEvent
	table []uint64
	acct  map[string]float64
	rng   uint64
}

var calKeys = [...]string{"cpu.active", "dram.read", "dram.write", "ip.vd", "ip.dc", "noc.link"}

func newKernel(iters int) *kernel {
	k := &kernel{
		iters: iters,
		heap:  make([]calEvent, 0, calibHeapSize),
		table: make([]uint64, calibTable),
		acct:  make(map[string]float64, len(calKeys)),
		rng:   0x9e3779b97f4a7c15,
	}
	for _, key := range calKeys {
		k.acct[key] = 0
	}
	return k
}

func (k *kernel) next() uint64 {
	k.rng ^= k.rng << 13
	k.rng ^= k.rng >> 7
	k.rng ^= k.rng << 17
	return k.rng
}

// run does the kernel's fixed work.
func (k *kernel) run() {
	k.heap = k.heap[:0]
	for i := range k.iters {
		r := k.next()
		k.table[r%calibTable] += uint64(i)
		k.acct[calKeys[i%len(calKeys)]]++
		k.push(calEvent{at: r >> 20, seq: uint32(i)})
		if len(k.heap) == calibHeapSize {
			k.pop()
		}
	}
}

func (k *kernel) push(e calEvent) {
	h := append(k.heap, e)
	for j := len(h) - 1; j > 0; {
		p := (j - 1) / 4
		if h[p].at <= h[j].at {
			break
		}
		h[p], h[j] = h[j], h[p]
		j = p
	}
	k.heap = h
}

func (k *kernel) pop() {
	h := k.heap
	h[0] = h[len(h)-1]
	h = h[:len(h)-1]
	for j := 0; ; {
		best := 4*j + 1
		if best >= len(h) {
			break
		}
		for c := best + 1; c < 4*j+5 && c < len(h); c++ {
			if h[c].at < h[best].at {
				best = c
			}
		}
		if h[j].at <= h[best].at {
			break
		}
		h[j], h[best] = h[best], h[j]
		j = best
	}
	k.heap = h
}

// measure collects the garbage the last op left, so that no collection
// runs beside the kernel, then runs the kernel calibReps times and
// returns the median wall time. A calibration after an op therefore also
// starts the next op on a collected heap. The kernel runs on one
// goroutine even for the sweep, which keeps both CPUs busy: two kernels
// at once read up to twice as slow whenever the host stops running both
// vCPUs together, which overstated the sweep's own slowdown.
func (k *kernel) measure() time.Duration {
	runtime.GC()
	ts := make([]float64, calibReps)
	for i := range ts {
		t0 := now()
		k.run()
		ts[i] = float64(now().Sub(t0))
	}
	return time.Duration(median(ts))
}

// scale is the factor that normalizes a time measured while the kernel
// took calib.
func scale(calib time.Duration) float64 {
	return float64(calibRef) / float64(calib)
}
