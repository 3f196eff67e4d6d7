// Package mcs implements the queue lock of Mellor-Crummey and Scott (ACM
// TOCS 1991) on the simulated shared memory. It is the paper's §1 anchor
// for non-abortable locks: O(1) RMRs per passage in the CC model using a
// single Fetch-And-Store (SWAP) beyond reads, writes, and CAS.
//
// MCS is not abortable; it exists to calibrate the harness (the "MCS has
// O(1) RMR cost" claim the introduction builds on) and to price the cost of
// abortability in the Table 1 experiments.
package mcs

import (
	"sublock/locks"
	"sublock/rmr"
)

func init() {
	locks.Register(locks.Info{
		Name:      "mcs",
		Summary:   "Mellor-Crummey–Scott queue lock: non-abortable, FCFS, O(1) RMRs (§1 anchor)",
		Abortable: false,
		Labels:    []string{"mcs/"},
		// Per-process qnodes are used uniformly; queue order depends only
		// on arrival order, not on which id arrived.
		IDSymmetric: true,
		Rewindable:  true,
		New: func(m *rmr.Memory, _, _ int) (locks.HandleFunc, error) {
			l := New(m)
			return func(p *rmr.Proc) locks.Abortable { return l.Handle(p) }, nil
		},
	})
}

// Lock is an MCS queue lock.
type Lock struct {
	tail rmr.Addr // queue tail: qnode address + 1, 0 = empty
}

// New allocates an MCS lock in m.
func New(m *rmr.Memory) *Lock {
	l := &Lock{tail: m.Alloc(0)}
	m.Label(l.tail, 1, "mcs/tail")
	return l
}

// Handle returns process p's handle. Each process reuses a single queue
// node across acquisitions, as in the original algorithm. The node is a
// two-word record: next at the base address, locked at base+1.
func (l *Lock) Handle(p *rmr.Proc) *Handle {
	base := p.Memory().AllocNLocal(p.ID(), 2, 0)
	p.Memory().Label(base, 2, "mcs/qnode")
	return &Handle{
		l:      l,
		p:      p,
		next:   base,
		locked: base + 1,
	}
}

// Handle is one process's interface to the lock. Not safe for concurrent
// use by multiple goroutines.
type Handle struct {
	l      *Lock
	p      *rmr.Proc
	next   rmr.Addr // successor's locked-word address + 1, 0 = none
	locked rmr.Addr // spun on by this process while waiting
}

// Enter acquires the lock. It always succeeds (MCS has no abort path); the
// boolean return matches the abortable-lock handle shape used by the
// experiment harness.
func (h *Handle) Enter() bool {
	p := h.p
	p.EnterPhase(rmr.PhaseDoorway)
	p.Write(h.next, 0)
	pred := p.Swap(h.l.tail, uint64(h.locked)+1)
	if pred == 0 {
		p.EnterPhase(rmr.PhaseCS)
		return true
	}
	p.EnterPhase(rmr.PhaseWaiting)
	p.Write(h.locked, 1)
	// Publish ourselves as the predecessor's successor. The predecessor's
	// next word is adjacent to its locked word (allocated consecutively by
	// Handle); we encode tail entries as locked-word addresses and recover
	// next as locked−1.
	predLocked := rmr.Addr(pred - 1)
	p.Write(predLocked-1, uint64(h.locked)+1)
	for p.Read(h.locked) != 0 {
		// cleared by the predecessor's handoff write
	}
	p.EnterPhase(rmr.PhaseCS)
	return true
}

// Exit releases the lock, handing it to the queued successor if any.
func (h *Handle) Exit() {
	p := h.p
	p.EnterPhase(rmr.PhaseExit)
	// No deferred phase change: a crash unwinding Exit must leave the
	// phase where the crash struck, as in every other lock (docs/FAULTS.md).
	if p.Read(h.next) == 0 {
		if p.CAS(h.l.tail, uint64(h.locked)+1, 0) {
			p.EnterPhase(rmr.PhaseIdle)
			return
		}
		// A successor is mid-enqueue: wait for it to announce itself.
		for p.Read(h.next) == 0 {
		}
	}
	succ := rmr.Addr(p.Read(h.next) - 1)
	p.Write(succ, 0)
	p.EnterPhase(rmr.PhaseIdle)
}
