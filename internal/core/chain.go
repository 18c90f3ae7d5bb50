package core

import (
	"fmt"

	"github.com/vipsim/vip/internal/app"
	"github.com/vipsim/vip/internal/ipcore"
	"github.com/vipsim/vip/internal/platform"
)

// HeaderPacket is the chain context descriptor of Figure 12. It travels
// from IP to IP ahead of a frame burst and carries, per IP, the request
// context (pixel format, codec parameters, frame geometry) that the
// virtualized IP stores in its lane registers.
type HeaderPacket struct {
	IPs         []ipcore.Kind
	FrameSizeKB int
	FrameRate   int
	BurstSize   int
	SrcAddr     uint32
	DstAddr     uint32
}

// perIPContextBytes is the per-IP frame context (~1 KB per Figure 12).
const perIPContextBytes = 1 << 10

// fixedHeaderBytes covers the non-context fields of Figure 12:
// 32b IP list + 16b frame size + 4b rate + 4b burst + 2x32b addresses,
// rounded up to a bus beat.
const fixedHeaderBytes = 16

// Bytes reports the header packet's wire size: the paper estimates ~1 KB
// of context per IP, so a 4-IP flow carries ~4 KB (§5.4).
func (h HeaderPacket) Bytes() int {
	return fixedHeaderBytes + len(h.IPs)*perIPContextBytes
}

// maxHeaderIPs bounds the IP list of a wire-format header; real chains
// are 2-5 hops (Table 1), so 16 leaves generous headroom while keeping
// decode allocation bounded on hostile input.
const maxHeaderIPs = 16

// Encode serializes the header's control fields to the little-endian wire
// layout the SA carries ahead of a burst (the per-IP context blocks are
// modelled by Bytes but carry no simulated content):
//
//	[0]    ip count n (<= maxHeaderIPs)
//	[1:n+1] IP kinds, one byte each
//	then uint16 frame size (KB), uint16 frame rate, uint16 burst size,
//	uint32 src addr, uint32 dst addr.
//
// Encode panics on a header that violates the wire bounds (a driver bug,
// not an input error).
func (h HeaderPacket) Encode() []byte {
	if len(h.IPs) > maxHeaderIPs {
		panic(fmt.Sprintf("core: header with %d IPs exceeds wire bound %d", len(h.IPs), maxHeaderIPs))
	}
	if h.FrameSizeKB < 0 || h.FrameSizeKB > 0xffff ||
		h.FrameRate < 0 || h.FrameRate > 0xffff ||
		h.BurstSize < 0 || h.BurstSize > 0xffff {
		panic("core: header field out of wire range")
	}
	b := make([]byte, 0, 1+len(h.IPs)+14)
	b = append(b, byte(len(h.IPs)))
	for _, k := range h.IPs {
		if k < 0 || int(k) >= ipcore.NumKinds {
			panic(fmt.Sprintf("core: header with invalid IP kind %d", int(k)))
		}
		b = append(b, byte(k))
	}
	b = append(b, byte(h.FrameSizeKB), byte(h.FrameSizeKB>>8))
	b = append(b, byte(h.FrameRate), byte(h.FrameRate>>8))
	b = append(b, byte(h.BurstSize), byte(h.BurstSize>>8))
	b = append(b, byte(h.SrcAddr), byte(h.SrcAddr>>8), byte(h.SrcAddr>>16), byte(h.SrcAddr>>24))
	b = append(b, byte(h.DstAddr), byte(h.DstAddr>>8), byte(h.DstAddr>>16), byte(h.DstAddr>>24))
	return b
}

// DecodeHeaderPacket parses the wire layout produced by Encode. It never
// panics: malformed input (truncated, oversized IP list, unknown kind,
// trailing bytes) returns an error, as a hardware header parser must
// reject rather than wedge on a corrupted packet.
func DecodeHeaderPacket(b []byte) (HeaderPacket, error) {
	var h HeaderPacket
	if len(b) < 1 {
		return h, fmt.Errorf("core: header truncated (empty)")
	}
	n := int(b[0])
	if n > maxHeaderIPs {
		return h, fmt.Errorf("core: header IP count %d exceeds bound %d", n, maxHeaderIPs)
	}
	want := 1 + n + 14
	if len(b) != want {
		return h, fmt.Errorf("core: header length %d, want %d for %d IPs", len(b), want, n)
	}
	if n > 0 {
		h.IPs = make([]ipcore.Kind, n)
		for i := 0; i < n; i++ {
			k := ipcore.Kind(b[1+i])
			if int(k) >= ipcore.NumKinds {
				return HeaderPacket{}, fmt.Errorf("core: header IP %d has unknown kind %d", i, int(k))
			}
			h.IPs[i] = k
		}
	}
	p := 1 + n
	h.FrameSizeKB = int(b[p]) | int(b[p+1])<<8
	h.FrameRate = int(b[p+2]) | int(b[p+3])<<8
	h.BurstSize = int(b[p+4]) | int(b[p+5])<<8
	h.SrcAddr = uint32(b[p+6]) | uint32(b[p+7])<<8 | uint32(b[p+8])<<16 | uint32(b[p+9])<<24
	h.DstAddr = uint32(b[p+10]) | uint32(b[p+11])<<8 | uint32(b[p+12])<<16 | uint32(b[p+13])<<24
	return h, nil
}

// Chain is an instantiated virtual IP chain: the object the open() API of
// Figures 9-11 returns. It pins one lane at every IP of the flow so the
// hardware can keep a per-flow context (VIP), or lane 0 everywhere on
// non-virtualized platforms.
type Chain struct {
	ID     int
	FlowID int
	Kinds  []ipcore.Kind
	Lanes  []int
	Header HeaderPacket
}

// chainManager assigns lanes and builds chains per flow.
type chainManager struct {
	p      *platform.Platform
	nextID int
	// laneUse counts flows bound per lane, indexed by kind, so distinct
	// flows get distinct lanes while the hardware has capacity.
	laneUse [ipcore.NumKinds][]int
}

func newChainManager(p *platform.Platform) *chainManager {
	return &chainManager{p: p}
}

// open instantiates a chain for a flow, mirroring the API extension the
// paper adds to libstagefright/OpenGL: the driver walks the IP list,
// reserves a buffer lane at each hop, and hands back a chain identifier
// the app uses for every subsequent frame-burst call.
func (m *chainManager) open(flowID int, f *app.Flow) (*Chain, error) {
	kinds := f.Chain()
	c := &Chain{
		ID:     m.nextID,
		FlowID: flowID,
		Kinds:  kinds,
		Lanes:  make([]int, len(kinds)),
		Header: HeaderPacket{
			IPs:         kinds,
			FrameSizeKB: (maxStageBytes(f) + 1023) / 1024,
			FrameRate:   int(f.FPS),
			BurstSize:   1,
		},
	}
	m.nextID++
	for i, k := range kinds {
		c.Lanes[i] = m.assignLane(k)
	}
	return c, nil
}

// assignLane picks the least-loaded lane of the IP; on single-lane
// hardware every flow shares lane 0.
func (m *chainManager) assignLane(k ipcore.Kind) int {
	use := m.laneUse[k]
	if use == nil {
		use = make([]int, m.p.IP(k).Lanes())
		m.laneUse[k] = use
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
func (m *chainManager) moveLane(k ipcore.Kind, from int) int {
	use := m.laneUse[k]
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

// maxStageBytes returns the largest frame any stage of the flow moves.
func maxStageBytes(f *app.Flow) int {
	max := f.InBytes
	for _, s := range f.Stages {
		if s.OutBytes > max {
			max = s.OutBytes
		}
	}
	return max
}

// sendHeader models the header packet hop-by-hop delivery across the SA
// ahead of a burst (§5.4: negligible but not free).
func (m *chainManager) sendHeader(c *Chain, burst int) {
	h := c.Header
	h.BurstSize = burst
	m.p.SA.Transfer(h.Bytes(), nil)
}

// String renders the chain like Table 1, e.g. "VD - DC".
func (c *Chain) String() string {
	s := ""
	for i, k := range c.Kinds {
		if i > 0 {
			s += " - "
		}
		s += k.String()
	}
	return fmt.Sprintf("chain%d[%s]", c.ID, s)
}
