package ipcore

import (
	"fmt"

	"github.com/vipsim/vip/internal/sim"
)

// Job is one frame's worth of work at one pipeline stage of a flow. The
// orchestration layer creates one Job per (frame, stage) and queues it on
// a lane of the stage's IP core.
//
// Input comes from exactly one of: DRAM (InFromDRAM), the lane's flow
// buffer (fed by the upstream stage), or nowhere (a source IP such as a
// camera sensor generates the data). Output goes to DRAM (OutToDRAM), to
// the downstream stage's lane (OutLane), or nowhere (a sink IP such as
// the display consumes it).
type Job struct {
	// Label names the job's completion mark on the phase timeline; the
	// driver sets it only when that timeline is recorded.
	Label string
	// FlowID groups the jobs of one application flow.
	FlowID int
	// Frame is the flow-local frame number this job belongs to; the
	// driver's recovery layer uses it to map a stranded job back to the
	// frame it must retry.
	Frame int
	// Stage is the frame's pipeline-stage index this job executes; the
	// telemetry layer names hop tracks "flow<F>/s<Stage>:<IP>" with it.
	Stage int
	// InBytes/OutBytes are the stage's input and output volume.
	InBytes, OutBytes int

	InFromDRAM bool
	InAddr     uint64

	OutToDRAM bool
	OutAddr   uint64
	// OutLane, when non-nil, is the downstream IP's lane that receives
	// this stage's output sub-frame by sub-frame (IP-to-IP mode).
	OutLane *Lane
	// OutConsumer, when non-nil, is the downstream Job this stage feeds.
	// The producer may only deposit while that job is at the head of
	// OutLane — on single-lane hardware this is precisely the
	// head-of-line blocking between chains that §4.3/Figure 7 describe.
	OutConsumer *Job

	// Deadline is the absolute completion deadline used by the EDF
	// hardware scheduler.
	Deadline sim.Time

	// NotBefore keeps the job from starting earlier than real time
	// allows — a camera cannot capture a frame before the scene exists.
	// Zero means no constraint.
	NotBefore sim.Time

	// Gated holds the job until Core.Ungate is called. Burst-mode
	// drivers pre-program descriptors for a whole burst and release each
	// stage's descriptor when its memory-staged input is ready.
	Gated bool

	// ComputeScale scales the stage's compute time for this frame:
	// I-frames decode slower than P-frames, scene complexity varies.
	// Zero means 1.0.
	ComputeScale float64

	// OnDone fires exactly once when the stage completes (all output
	// emitted, all DRAM writes retired).
	OnDone func()

	// --- progress, managed by the owning Core ---
	chunks     int // number of sub-frame steps
	computed   int // chunks whose compute finished
	emitted    int // chunks whose output was handed off
	inNext     int // inChunk(computed), kept by setChunks and advanceCompute
	outNext    int // outChunk(emitted), kept by setChunks and advanceEmit
	inReady    int // chunks of input available
	inIssued   int // chunks of DRAM input requested
	inLatched  int // bytes drained from the lane into the input latch
	writesOut  int // DRAM writes in flight
	writesDone int // DRAM writes retired
	started    bool
	spaceWait  bool     // a downstream-space wake-up is registered
	timerSet   bool     // a NotBefore wake-up is scheduled
	blockedAt  sim.Time // when the job last became unrunnable (-1 = runnable)
	submitAt   sim.Time
	startedAt  sim.Time
	finishedAt sim.Time
	// dramNS and nocNS are the time spent waiting on DRAM requests and
	// in SA sub-frame transfers (telemetry), kept as Σcompletion − Σissue:
	// exact once every request and transfer of the job has retired.
	dramNS          int64
	nocNS           int64
	perFrameCharged bool // the PerFrame setup overhead has been charged
	done            bool
	aborted         bool // cancelled by Core.Abort; done without OnDone
	lane            *Lane

	// Completions bound once by Core.Submit (see Core.bindJob).
	readDone, writeDone, spaceFreed func()
}

// Validate checks the job's shape; the Core calls it on Submit.
func (j *Job) Validate() error {
	var problem string
	switch {
	case j.InBytes < 0 || j.OutBytes < 0:
		problem = "has negative sizes"
	case j.InBytes == 0 && j.OutBytes == 0:
		problem = "moves no data"
	case j.InFromDRAM && j.InBytes == 0:
		problem = "reads DRAM but has no input"
	case j.OutToDRAM && j.OutLane != nil:
		problem = "has two output paths"
	case (j.OutToDRAM || j.OutLane != nil) && j.OutBytes == 0:
		problem = "has an output path but no output bytes"
	default:
		return nil
	}
	return fmt.Errorf("ipcore: job of flow %d, frame %d, stage %d %s", j.FlowID, j.Frame, j.Stage, problem)
}

// Done reports whether the job has fully completed.
func (j *Job) Done() bool { return j.done }

// Aborted reports whether the job was cancelled via Core.Abort rather
// than completing.
func (j *Job) Aborted() bool { return j.aborted }

// Started reports whether the core has begun processing the job.
func (j *Job) Started() bool { return j.started }

// StartedAt reports when the first chunk began (zero if not started).
func (j *Job) StartedAt() sim.Time { return j.startedAt }

// FinishedAt reports completion time (zero if not finished).
func (j *Job) FinishedAt() sim.Time { return j.finishedAt }

// basis is the volume that the IP's throughput is defined over.
func (j *Job) basis() int {
	if j.InBytes > j.OutBytes {
		return j.InBytes
	}
	return j.OutBytes
}

// inChunk returns the input bytes consumed by chunk k, distributing any
// remainder evenly.
func (j *Job) inChunk(k int) int {
	return j.InBytes*(k+1)/j.chunks - j.InBytes*k/j.chunks
}

// outChunk returns the output bytes produced by chunk k.
func (j *Job) outChunk(k int) int {
	return j.OutBytes*(k+1)/j.chunks - j.OutBytes*k/j.chunks
}

// setChunks splits the job into n sub-frame steps and caches the sizes
// of the chunks it computes and emits next.
func (j *Job) setChunks(n int) {
	j.chunks = n
	j.inNext, j.outNext = j.inChunk(j.computed), j.outChunk(j.emitted)
}

// advanceCompute marks chunk computed as computed and caches the next
// chunk's input size.
func (j *Job) advanceCompute() {
	j.computed++
	j.inNext = j.inChunk(j.computed)
}

// advanceEmit marks chunk emitted as handed off and caches the next
// chunk's output size.
func (j *Job) advanceEmit() {
	j.emitted++
	j.outNext = j.outChunk(j.emitted)
}

// basisChunk returns the compute-basis bytes of chunk k.
func (j *Job) basisChunk(k int) int {
	b := j.basis()
	return b*(k+1)/j.chunks - b*k/j.chunks
}

// inOffset returns the DRAM offset of chunk k's input.
func (j *Job) inOffset(k int) int { return j.InBytes * k / j.chunks }

// outOffset returns the DRAM offset of chunk k's output.
func (j *Job) outOffset(k int) int { return j.OutBytes * k / j.chunks }
