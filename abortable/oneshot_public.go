package abortable

import (
	"fmt"
	"sync/atomic"

	"sublock/abortable/obs"
)

// OneShot is the paper's §3 one-shot abortable lock as a standalone
// native primitive: an FCFS abortable mutual-exclusion lock in which each
// handle may attempt acquisition at most once.
//
// Unlike the long-lived Lock, OneShot is first-come-first-served: among
// attempts that do not abort, the order of Acquire calls (more precisely,
// of their doorway steps) is the order of critical-section entry. That
// makes it useful for single-round coordination — leader handoff chains,
// ordered shutdown, turn-taking protocols — where fairness matters and
// each participant goes through once.
type OneShot struct {
	ins     *instance
	n       int
	handles atomic.Int64

	counters // aborts, parks, and the obs collector (SetObserver)
}

// NewOneShot creates a one-shot lock for up to n acquisition attempts.
func NewOneShot(n int) *OneShot {
	if n < 1 {
		panic(fmt.Sprintf("abortable: NewOneShot(%d): n must be positive", n))
	}
	if n > maxMaxHandles {
		panic(fmt.Sprintf("abortable: NewOneShot(%d): n exceeds the doorway limit %d", n, maxMaxHandles))
	}
	return &OneShot{ins: newInstance(n), n: n}
}

// OneShotStats is a point-in-time observability snapshot of a OneShot,
// the one-shot shape of Lock's Stats (switch fields do not apply: a
// one-shot instance is never retired).
type OneShotStats struct {
	// Handles is the number of registered handles.
	Handles int
	// Aborts counts Enter attempts that returned unacquired.
	Aborts int64
	// Parks counts waits that escalated to the parking tier.
	Parks int64
}

// Stats returns current counters. Values are individually atomic
// snapshots and may be mutually skewed while the lock is in active use.
func (l *OneShot) Stats() OneShotStats {
	return OneShotStats{
		Handles: int(l.handles.Load()),
		Aborts:  l.aborts.Load(),
		Parks:   l.parks.Load(),
	}
}

// NewHandle registers a participant. It fails after n handles.
func (l *OneShot) NewHandle() (*OneShotHandle, error) {
	if l.handles.Add(1) > int64(l.n) {
		l.handles.Add(-1)
		return nil, fmt.Errorf("abortable: one-shot handle limit %d reached", l.n)
	}
	return &OneShotHandle{attempt: attempt{park: newParker(), c: &l.counters}, l: l}, nil
}

// OneShotHandle is one participant's single-use interface to a OneShot
// lock. Abort may be called from any goroutine; everything else must be
// called by the owning goroutine.
type OneShotHandle struct {
	attempt // abort flag, parker, trace span (Abort)
	l       *OneShot
	slot    int
	state   int // 0 = fresh, 1 = holding, 2 = spent
}

// Enter attempts to acquire the lock once, blocking until granted or
// aborted. It reports whether the lock is held; after true the caller
// must call Exit. A second call panics.
func (h *OneShotHandle) Enter() bool {
	if h.state != 0 {
		panic("abortable: one-shot Enter called twice")
	}
	m := h.c.obsm.Load()
	if m == nil {
		return h.enter(nil)
	}
	return h.enterEnd(m, h.enterBegin(m), h.enter(m))
}

// enter is the body of Enter; m is the obs collector loaded by the caller
// (nil when observability is off).
func (h *OneShotHandle) enter(m *obs.Metrics) bool {
	slot, ok := h.l.ins.arrive()
	if !ok {
		// A OneShot instance is never retired: the closed bit is
		// unreachable because no departure path runs depart().
		panic("abortable: one-shot instance unexpectedly closed")
	}
	if m != nil {
		m.IncArrival()
		h.span.Phase("wait")
	}
	h.slot = slot
	if !h.l.ins.enter(&h.attempt, slot) {
		h.state = 2
		return false
	}
	h.state = 1
	return true
}

// Exit releases the lock, handing it to the next non-aborted attempt.
func (h *OneShotHandle) Exit() {
	if h.state != 1 {
		panic("abortable: one-shot Exit without holding the lock")
	}
	m, start := h.exitBegin()
	h.l.ins.exit(m)
	h.state = 2
	h.exitEnd(m, start)
}

// Slot returns the FCFS position the doorway assigned, or -1 before Enter.
func (h *OneShotHandle) Slot() int {
	if h.state == 0 {
		return -1
	}
	return h.slot
}
