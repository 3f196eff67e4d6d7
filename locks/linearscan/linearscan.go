// Package linearscan implements an F&A-based array queue lock whose exit
// path skips aborted slots one at a time. It stands in for Lee's abortable
// lock (OPODIS 2010) in the Table 1 experiments: same primitives (F&A plus
// CAS), FCFS, O(1) RMRs per passage when no process aborts, and an adaptive
// RMR cost *linear* in the number of aborts — the shape the paper's
// O(log_W A) tree improves on. Like the paper's one-shot lock it is
// one-shot: each process may enter at most once.
//
// Slot states: 0 = waiting, 1 = granted, 2 = abandoned. A waiter that must
// abort CASes its slot 0→2; if the CAS fails the lock was granted to it
// concurrently, so the aborter performs the handoff itself before leaving
// (the same responsibility idea as the paper's Abort, made trivial by the
// atomically-resolved slot state).
package linearscan

import (
	"fmt"

	"sublock/locks"
	"sublock/rmr"
)

func init() {
	locks.Register(locks.Info{
		Name:      "linearscan",
		Summary:   "Lee-shaped F&A queue lock, linear skip over aborted slots: O(1) abort-free, Θ(A) adaptive (Table 1 row 3)",
		Abortable: true,
		OneShot:   true,
		Labels:    []string{"linearscan/"},
		// Slots are assigned by F&A arrival order, not by process id.
		IDSymmetric: true,
		Rewindable:  true,
		New: func(m *rmr.Memory, _, capacity int) (locks.HandleFunc, error) {
			l, err := New(m, capacity)
			if err != nil {
				return nil, err
			}
			return func(p *rmr.Proc) locks.Abortable { return l.Handle(p) }, nil
		},
	})
}

const (
	waiting   = 0
	granted   = 1
	abandoned = 2
)

// Lock is a one-shot abortable linear-scan queue lock.
type Lock struct {
	n     int
	tail  rmr.Addr
	slots rmr.Addr // n slot-state words
}

// New allocates the lock for at most n entrants in m.
func New(m *rmr.Memory, n int) (*Lock, error) {
	if n < 1 {
		return nil, fmt.Errorf("linearscan: n=%d must be positive", n)
	}
	l := &Lock{n: n, tail: m.Alloc(0), slots: m.AllocN(n, waiting)}
	m.Label(l.tail, 1, "linearscan/tail")
	m.Label(l.slots, n, "linearscan/slots")
	m.Poke(l.slots, granted) // slot 0 holds the lock initially
	return l, nil
}

// Handle returns process p's handle to the lock.
func (l *Lock) Handle(p *rmr.Proc) *Handle {
	return &Handle{l: l, p: p, slot: -1}
}

// Handle is one process's one-shot interface to the lock.
type Handle struct {
	l    *Lock
	p    *rmr.Proc
	slot int
}

// Slot returns the queue slot assigned by the doorway, or -1 before Enter.
func (h *Handle) Slot() int { return h.slot }

// Enter acquires the lock, or returns false if the abort signal arrives
// while waiting. If the grant races with the abort, the aborter passes the
// lock on itself and still returns false.
func (h *Handle) Enter() bool {
	p := h.p
	p.EnterPhase(rmr.PhaseDoorway)
	i := int(p.FAA(h.l.tail, 1))
	if i >= h.l.n {
		panic(fmt.Sprintf("linearscan: %d processes entered a lock configured for n=%d", i+1, h.l.n))
	}
	h.slot = i
	a := h.l.slots + rmr.Addr(i)
	p.EnterPhase(rmr.PhaseWaiting)
	for {
		if p.Read(a) == granted {
			p.EnterPhase(rmr.PhaseCS)
			return true
		}
		if p.AbortSignal() {
			p.EnterPhase(rmr.PhaseAbort)
			if p.CAS(a, waiting, abandoned) {
				p.EnterPhase(rmr.PhaseIdle)
				return false
			}
			// The grant landed first: we own the lock; hand it off.
			h.grantNext(i)
			p.EnterPhase(rmr.PhaseIdle)
			return false
		}
		// the grant (or nothing) is written into our slot
	}
}

// Exit releases the lock, granting the next non-abandoned slot.
func (h *Handle) Exit() {
	h.p.EnterPhase(rmr.PhaseExit)
	h.grantNext(h.slot)
	h.p.EnterPhase(rmr.PhaseIdle)
}

// grantNext scans forward from slot i, skipping abandoned slots. Granting a
// slot whose process has not arrived yet is sound: the arrival will read
// the grant immediately. The scan cost — one CAS per abandoned slot — is
// the linear-in-aborts adaptive bound this baseline exists to exhibit.
func (h *Handle) grantNext(i int) {
	for j := i + 1; j < h.l.n; j++ {
		if h.p.CAS(h.l.slots+rmr.Addr(j), waiting, granted) {
			return
		}
		// CAS fails only on an abandoned slot; keep scanning.
	}
}
