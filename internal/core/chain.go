package core

import (
	"github.com/vipsim/vip/internal/app"
	"github.com/vipsim/vip/internal/ipcore"
)

// A chain is what the open() API of Figures 9-11 instantiates for a
// flow: one buffer lane reserved at every hop, so the hardware can keep
// a per-flow context (VIP), or lane 0 everywhere on non-virtualized
// platforms. Ahead of each frame burst a header packet (Figure 12)
// carrying every IP's request context crosses the SA. The driver keeps
// the lane of each stage (flowState.lanes); the header is modelled by
// its size alone.

// perIPContextBytes is the per-IP frame context (~1 KB per Figure 12).
const perIPContextBytes = 1 << 10

// fixedHeaderBytes covers the non-context fields of Figure 12:
// 32b IP list + 16b frame size + 4b rate + 4b burst + 2x32b addresses,
// rounded up to a bus beat.
const fixedHeaderBytes = 16

// headerBytes is the wire size of the header packet of a hops-IP chain:
// the paper estimates ~1 KB of context per IP, so a 4-IP flow carries
// ~4 KB (§5.4).
func headerBytes(hops int) int {
	return fixedHeaderBytes + hops*perIPContextBytes
}

// openLanes reserves a lane at every hop of a flow, as the driver's
// open() walks the IP list, and returns the lane of each stage.
func (r *Runner) openLanes(f *app.Flow) []int {
	lanes := make([]int, len(f.Stages))
	for s, st := range f.Stages {
		lanes[s] = r.assignLane(st.Kind)
	}
	return lanes
}

// assignLane picks the least-loaded lane of the IP; on single-lane
// hardware every flow shares lane 0.
func (r *Runner) assignLane(k ipcore.Kind) int {
	use := r.laneUse[k]
	if use == nil {
		use = make([]int, r.p.IP(k).Lanes())
		r.laneUse[k] = use
	}
	best := 0
	for i := 1; i < len(use); i++ {
		if use[i] < use[best] {
			best = i
		}
	}
	use[best]++
	return best
}

// moveLane rebinds one chain hop off a quarantined lane: the use count
// moves from the old lane to the least-loaded healthy alternative. On
// single-lane hardware (or if every other lane is worse off) the hop
// stays put and waits for repair.
func (r *Runner) moveLane(k ipcore.Kind, from int) int {
	use := r.laneUse[k]
	if len(use) <= 1 {
		return from
	}
	best := -1
	for i := range use {
		if i == from {
			continue
		}
		if best < 0 || use[i] < use[best] {
			best = i
		}
	}
	if best < 0 {
		return from
	}
	if use[from] > 0 {
		use[from]--
	}
	use[best]++
	return best
}
