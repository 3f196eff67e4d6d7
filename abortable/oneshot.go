package abortable

import (
	"fmt"
	"sync/atomic"

	"sublock/abortable/obs"
)

// noProc is the out-of-band LastExited value before any exit (paper's −1).
const noProc = ^uint64(0)

// padWord is a 64-bit atomic on a cache-line range of its own, for the
// instance's independently-hammered head words (gate, head, last): they are
// written by different processes and must not invalidate one another.
type padWord struct {
	v atomic.Uint64
	_ [falseSharingRange - 8]byte
}

// waitSlot is one queue slot: the paper's grant flag plus the waiter's
// published parker, padded to falseSharingRange so a waiter's spinning and
// parking traffic never contends with its neighbours' slots.
type waitSlot struct {
	v      atomic.Uint32          // grant flag: 1 = slot owns the lock
	parked atomic.Pointer[parker] // parker published before tier-3 sleep
	_      [falseSharingRange - 16]byte
}

// The instance doorway is a single fetch-and-add word packing three fields,
// so that one F&A both pins the instance (the §6 reference count) and
// claims a FIFO queue slot (the §3 doorway) — an arrival burst of k
// processes costs k contended atomics instead of 2k:
//
//	bits  0..30  arrivals   — pins issued; arrivals−1 of a successful
//	                          (non-closed) F&A is the arrival's queue slot
//	bits 31..61  departures — pins released by cleanup
//	bit  62      closed     — the instance is retired; an arrival whose
//	                          F&A observes this bit must reload the lock
//	                          descriptor (its arrivals increment is
//	                          harmless: a closed instance's fields are
//	                          never trusted again)
//
// Retirement is lazy: a quiescent instance (arrivals == departures) is
// retired — by the departure's CAS of the closed bit — only when its slots
// are exhausted (arrivals == len(gos)) or a process is waiting for the
// switch (swWait). Otherwise the instance stays installed and keeps
// serving arrivals, so an idle or lightly-loaded lock does not switch
// instances per quiescence. A switch-waiter that finds the instance
// quiescent retires it itself (tryRetire) rather than parking forever;
// together with the swWait check in depart this is deadlock-free: either
// the departer sees the registered waiter, or the waiter's gate load sees
// the quiescing departure (both orders are covered by the seq-cst total
// order over the gate and swWait operations).
//
// Successful (non-closed) arrivals are bounded by the handle protocol
// (each handle pins an instance at most once), so the slot index cannot
// overflow the queue; closed-instance arrivals can exceed it but their
// slots are ignored.
//
// Recycling (§6.2). A retired instance is reset and installed again
// instead of being left to the garbage collector, so a Lock holds at most
// MaxHandles+1 instances and a steady-state switch allocates nothing.
// Reuse is guarded by per-handle published pointers (Handle.hazard), a
// hazard-pointer protocol:
//
//   - A handle touches an instance only after publishing it and then
//     re-reading the lock descriptor and finding it still installed
//     (validation). It keeps the pointer published until a later Enter
//     publishes another instance, so it covers the doorway, waiting,
//     exit, abort, departure, and the switch-wait loop.
//   - The retiring process, before installing the next instance, reads
//     every registered handle's published pointer and reuses only a
//     pooled instance that none of them names (Lock.nextInstance).
//
// Safety: let R be a pooled instance, retired (the descriptor moved off
// it) before the scan, and let H be a handle about to touch R. All the
// operations involved are sequentially consistent. If H's publication
// precedes the scan's read of H's pointer, the scan sees R and skips it.
// Otherwise the read precedes the publication, the descriptor left R
// before the scan, and only this switch can install R again; so H's
// validating re-read finds another instance, or R reinstalled as a new
// incarnation that H may use, and H never touches R's retired
// incarnation. Either way no handle touches a stale incarnation, and
// every F&A, flag write, and tree removal on a reused instance belongs to
// its current incarnation. The same argument excludes ABA in the
// switch-wait test (the descriptor equals the handle's published,
// already-used instance): while published, that instance cannot be
// recycled, so equality means the incarnation the handle used is still
// installed, exactly as if instances were never reused.
//
// The scan and the pool need no synchronization: an instance can be
// closed only after it was installed and arrived at, so retirements (and
// their nextInstance calls, which precede the install) are totally
// ordered. The retirer's own pointer publishes the retiring instance
// until its switchOut returns, so the switched flag and the broadcast
// close never race with a reset. A reused instance is reset in full to
// the state a new one starts in (instance.reset). The reset clears the
// slots with plain writes, which is race-free: the scan found the
// instance named by no handle, so every handle that touched it had since
// published another instance, and each of its accesses happens before
// that publication, hence before the scan's read and the reset. Space:
// each handle names at most one instance, so a scan that finds every
// pooled instance named has at most one per handle, and allocating one
// more leaves the pool at most handles+1 (Stats.Instances).
const (
	gateDepShift  = 31
	gateFieldMask = uint64(1)<<gateDepShift - 1
	gateDep1      = uint64(1) << gateDepShift
	gateClosed    = uint64(1) << 62
)

func gateArrivals(g uint64) uint64   { return g & gateFieldMask }
func gateDepartures(g uint64) uint64 { return (g >> gateDepShift) & gateFieldMask }

// instance is one one-shot abortable lock (Figure 1 of the paper) plus the
// per-instance state of the long-lived transformation (§6): the packed
// arrival/departure/closed gate above, and the switched flag (with its
// broadcast channel) that substitutes for the paper's spin node — a
// process that already used this instance waits on switched instead of
// re-reading the lock descriptor.
type instance struct {
	gate padWord // packed doorway: arrivals | departures | closed
	head padWord
	last padWord // LastExited
	gos  []waitSlot
	tr   *tree

	switched atomic.Bool
	switchCh atomic.Pointer[chan struct{}] // park broadcast, created on demand
	swWait   atomic.Int64                  // processes in the switch-wait loop (retire hint)

	mark uint64 // Lock.epoch of the last reuse scan that found it published
}

// newInstance allocates a one-shot instance for n queue slots and resets
// it to its initial state.
func newInstance(n int) *instance {
	ins := &instance{
		gos: make([]waitSlot, n),
		tr:  newTree(n),
	}
	ins.reset()
	return ins
}

// reset puts the instance in its initial state: slot 0 owns the lock, no
// other slot is granted or has a parker, the tree's live set is every
// slot, and the gate, head, LastExited and switch fields are at their
// starting values. It is the only initialisation path, for a new instance
// and for a recycled one alike; the caller must own the instance (a
// recycled one is published by no handle, see "Recycling"), since the
// slot clear is a plain write.
func (ins *instance) reset() {
	clear(ins.gos)
	ins.gos[0].v.Store(1)
	ins.tr.reset()
	ins.head.v.Store(0)
	ins.last.v.Store(noProc)
	ins.switched.Store(false)
	ins.switchCh.Store(nil)
	ins.swWait.Store(0)
	ins.gate.v.Store(0)
}

// switchChan returns the switch broadcast channel, creating it on first
// use: only a switch-waiter that parks needs one, so a switch with no
// parked waiter allocates nothing. The creator must re-check switched
// afterwards — switchOut sets switched before loading the channel, so a
// waiter whose channel it missed is guaranteed to see the flag.
func (ins *instance) switchChan() <-chan struct{} {
	if ch := ins.switchCh.Load(); ch != nil {
		return *ch
	}
	ch := make(chan struct{})
	if ins.switchCh.CompareAndSwap(nil, &ch) {
		return ch
	}
	return *ins.switchCh.Load()
}

// arrive claims the next queue slot through the packed doorway. ok is
// false when the instance was already retired (closed bit observed).
func (ins *instance) arrive() (slot int, ok bool) {
	g := ins.gate.v.Add(1)
	if g&gateClosed != 0 {
		return 0, false
	}
	i := gateArrivals(g) - 1
	if i >= uint64(len(ins.gos)) {
		// Unreachable under the handle-count protocol (each handle enters
		// an instance at most once); a panic here means API misuse such as
		// sharing a Handle between goroutines.
		panic(fmt.Sprintf("abortable: instance doorway overflow (slot %d of %d)", i, len(ins.gos)))
	}
	return int(i), true
}

// depart releases one pin. It reports whether this departure retired the
// instance (the lazy-retirement rule above held and the closed CAS won):
// the caller then owns the switch.
func (ins *instance) depart() bool {
	g := ins.gate.v.Add(gateDep1)
	if g&gateClosed != 0 || gateArrivals(g) != gateDepartures(g) {
		return false
	}
	if gateArrivals(g) < uint64(len(ins.gos)) && ins.swWait.Load() == 0 {
		return false // keep the quiescent instance: slots remain, nobody waits
	}
	return ins.gate.v.CompareAndSwap(g, g|gateClosed)
}

// tryRetire retires a quiescent instance on behalf of a switch-waiter. It
// reports whether the caller won the closed CAS and now owns the switch.
func (ins *instance) tryRetire() bool {
	g := ins.gate.v.Load()
	return g&gateClosed == 0 && gateArrivals(g) == gateDepartures(g) &&
		ins.gate.v.CompareAndSwap(g, g|gateClosed)
}

// enter is Algorithm 3.1's waiting phase for an already-claimed slot. It
// reports whether the CS was entered; on abort it has already run
// Algorithm 3.3 and counted the abort. Waiting escalates spin → yield → park: the parker is
// published in the slot (so signalNext can wake it with one pointer swap
// after setting the grant flag) and the grant flag and abort probe are
// re-checked before every sleep, so no wakeup is lost.
//
// With an obs collector attached the loop additionally records tier
// rounds and per-park wake latency; with it nil the only extra cost is the
// pointer load and dead branches.
func (ins *instance) enter(a *attempt, slot int) bool {
	m := a.c.obsm.Load()
	s := &ins.gos[slot]
	var w waiter
	for s.v.Load() == 0 {
		if a.abortPending() {
			ins.abort(slot, m)
			a.c.aborts.Add(1)
			flushWait(m, &w)
			return false
		}
		if !w.pause() {
			continue
		}
		a.park.drain()
		s.parked.Store(&a.park)
		if s.v.Load() != 0 || a.abortPending() {
			s.parked.CompareAndSwap(&a.park, nil)
			continue
		}
		a.sleep(m, nil)
		s.parked.CompareAndSwap(&a.park, nil)
	}
	ins.head.v.Store(uint64(slot))
	flushWait(m, &w)
	return true
}

// exit is Algorithm 3.2.
func (ins *instance) exit(m *obs.Metrics) {
	head := ins.head.v.Load()
	ins.last.v.Store(head)
	ins.signalNext(int(head), m)
}

// abort is Algorithm 3.3: abandon the slot; if the last exiter may have
// crossed paths with our tree removal, take over its handoff.
func (ins *instance) abort(slot int, m *obs.Metrics) {
	ins.tr.remove(slot)
	head := ins.head.v.Load()
	if head != ins.last.v.Load() {
		return
	}
	ins.signalNext(int(head), m)
}

// signalNext is Algorithm 3.4, extended with the park handoff: set the
// grant flag first (the published spin word), then wake the parker if one
// is registered — O(1) RMRs per handoff either way.
func (ins *instance) signalNext(head int, m *obs.Metrics) {
	j, out := ins.tr.findNext(head)
	if out != outFound {
		return
	}
	s := &ins.gos[j]
	s.v.Store(1)
	if pk := s.parked.Swap(nil); pk != nil {
		pk.wake()
		if m != nil {
			m.IncUnpark()
		}
	}
}
