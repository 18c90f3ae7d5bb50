// Package atomicmix is the analyzer fixture: no mixing atomic and
// plain access to the same variable.
package atomicmix

import (
	"sync"
	"sync/atomic"
)

type counter struct {
	n    uint64 // accessed atomically; the seeded plain access below must be caught
	safe uint64
}

func (c *counter) inc() {
	atomic.AddUint64(&c.n, 1)
}

func (c *counter) atomicRead() uint64 {
	return atomic.LoadUint64(&c.n)
}

// racyRead is the seeded mixed access: a plain load of an atomically
// written field.
func (c *counter) racyRead() uint64 {
	return c.n // want `plain access to n, which is accessed via sync/atomic at .*fixture\.go:\d+:\d+; every access must be atomic \(or migrate to the typed atomics\)`
}

var hits uint64

func bump() {
	atomic.AddUint64(&hits, 1)
}

func racyWrite() {
	hits = 0 // want `plain access to hits, which is accessed via sync/atomic at .*fixture\.go:\d+:\d+; every access must be atomic \(or migrate to the typed atomics\)`
}

// plainOnly: fields never touched atomically stay unpoliced.
func (c *counter) plainOnly() uint64 {
	c.safe++
	return c.safe
}

// typedAtomics cannot mix by construction; the rule ignores them.
type gauge struct {
	v atomic.Int64
}

func (g *gauge) read() int64 {
	return g.v.Load()
}

func allowed(c *counter) uint64 {
	return c.n //viplint:allow atomicmix -- constructor-time read before any goroutine exists
}

// ringCursor seeds the hand-rolled MPMC ring shape: cursors advanced
// by CAS on plain uint64 fields, with a tempting plain-load fast path.
// Typed atomic.Uint64 fields would make the racy form below impossible
// to write; with plain fields the rule must catch it.
type ringCursor struct {
	head uint64
	tail uint64
	size uint64
}

var ringMu sync.Mutex

func (r *ringCursor) claimPush() bool {
	h := atomic.LoadUint64(&r.head)
	return atomic.CompareAndSwapUint64(&r.head, h, h+1)
}

func (r *ringCursor) claimPop() bool {
	t := atomic.LoadUint64(&r.tail)
	return atomic.CompareAndSwapUint64(&r.tail, t, t+1)
}

// emptyFast is the classic broken fast path: plain loads of both CAS'd
// cursors "because the check is only a hint". A hint read still races.
func (r *ringCursor) emptyFast() bool {
	h := r.head // want `plain access to head, which is accessed via sync/atomic at .*fixture\.go:\d+:\d+; every access must be atomic \(or migrate to the typed atomics\)`
	t := r.tail // want `plain access to tail, which is accessed via sync/atomic at .*fixture\.go:\d+:\d+; every access must be atomic \(or migrate to the typed atomics\)`
	return h == t
}

// growLocked: holding an unrelated mutex does not pardon mixing plain
// and atomic access to the same word — lock-side writers and
// atomic-side readers are still unordered.
func (r *ringCursor) growLocked() {
	ringMu.Lock()
	r.size++ // want `plain access to size, which is accessed via sync/atomic at .*fixture\.go:\d+:\d+; every access must be atomic \(or migrate to the typed atomics\)`
	ringMu.Unlock()
}

func (r *ringCursor) sizeHint() uint64 {
	return atomic.LoadUint64(&r.size)
}

// drainCount is the justified escape hatch: after Close has joined
// every worker there is no concurrent CAS, and the reconciliation read
// is deliberately plain.
func (r *ringCursor) drainCount() uint64 {
	return r.head - r.tail //viplint:allow atomicmix -- post-Close accounting: workers joined, no concurrent access remains
}
