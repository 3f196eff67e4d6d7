// Package scott implements an abortable CLH-style queue lock in the spirit
// of Scott's non-blocking-timeout locks (PODC 2002), the first row of the
// paper's Table 1: SWAP+CAS primitives, FCFS, O(1) RMRs per passage when no
// process aborts, RMR cost linear in the number of aborts otherwise, and
// unbounded space (a fresh queue node per acquisition, never reclaimed —
// Scott's reclamation machinery is orthogonal to the RMR behaviour Table 1
// compares).
//
// Each queue node is one word. A waiter spins on its predecessor's node:
//
//	0      — predecessor still waiting or in the critical section
//	1      — predecessor released the lock: the waiter now holds it
//	addr+2 — predecessor aborted; addr is *its* predecessor, whom the
//	         waiter adopts and resumes spinning on
package scott

import (
	"sublock/locks"
	"sublock/rmr"
)

func init() {
	locks.Register(locks.Info{
		Name:      "scott",
		Summary:   "Scott-style abortable CLH queue lock: FCFS, O(1) RMRs abort-free, linear in aborts (Table 1 row 1)",
		Abortable: true,
		Labels:    []string{"scott/"},
		// CLH-style per-process qnodes used uniformly; arrival order alone
		// shapes the queue.
		IDSymmetric: true,
		Rewindable:  true,
		New: func(m *rmr.Memory, _, _ int) (locks.HandleFunc, error) {
			l := New(m)
			return func(p *rmr.Proc) locks.Abortable { return l.Handle(p) }, nil
		},
	})
}

const (
	waiting   = 0
	available = 1
	// status ≥ abortedBase encodes "aborted, adopt node (status−abortedBase)".
	abortedBase = 2
)

// Lock is an abortable CLH-NB-style queue lock.
type Lock struct {
	tail rmr.Addr // address of the most recent node + 1
}

// New allocates the lock in m, seeded with a dummy node in the released
// state so the first arrival acquires immediately.
func New(m *rmr.Memory) *Lock {
	dummy := m.Alloc(available)
	l := &Lock{tail: m.Alloc(uint64(dummy) + 1)}
	m.Label(dummy, 1, "scott/qnode")
	m.Label(l.tail, 1, "scott/tail")
	return l
}

// Handle returns process p's handle to the lock.
func (l *Lock) Handle(p *rmr.Proc) *Handle {
	return &Handle{l: l, p: p}
}

// Handle is one process's interface to the lock.
type Handle struct {
	l    *Lock
	p    *rmr.Proc
	node rmr.Addr // the node we enqueued in the current acquisition
}

// Enter acquires the lock, or returns false if the abort signal arrives
// while waiting. Aborting publishes our predecessor in our own node so the
// successor (or a later arrival) adopts it — no handshake with either side
// is needed, hence bounded abort.
func (h *Handle) Enter() bool {
	p := h.p
	p.EnterPhase(rmr.PhaseDoorway)
	node := p.Memory().Alloc(waiting)
	p.Memory().Label(node, 1, "scott/qnode")
	h.node = node
	pred := rmr.Addr(p.Swap(h.l.tail, uint64(node)+1) - 1)
	p.EnterPhase(rmr.PhaseWaiting)
	for {
		switch s := p.Read(pred); {
		case s == available:
			p.EnterPhase(rmr.PhaseCS)
			return true
		case s >= abortedBase:
			pred = rmr.Addr(s - abortedBase) // adopt the aborter's predecessor
		default: // predecessor still waiting
			if p.AbortSignal() {
				p.EnterPhase(rmr.PhaseAbort)
				p.Write(node, uint64(pred)+abortedBase)
				p.EnterPhase(rmr.PhaseIdle)
				return false
			}
			// released or adopted via a write to pred
		}
	}
}

// Exit releases the lock by marking this acquisition's node available.
func (h *Handle) Exit() {
	h.p.EnterPhase(rmr.PhaseExit)
	h.p.Write(h.node, available)
	h.p.EnterPhase(rmr.PhaseIdle)
}
