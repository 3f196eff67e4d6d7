package abortable

import (
	"fmt"
	"sync/atomic"
	"time"

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
	parks   atomic.Int64
	aborts  atomic.Int64
	obsm    atomic.Pointer[obs.Metrics]
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

// SetObserver attaches an obs.Metrics collector (nil detaches), exactly
// as Lock.SetObserver does.
func (l *OneShot) SetObserver(m *obs.Metrics) { l.obsm.Store(m) }

// Observer returns the attached collector, or nil.
func (l *OneShot) Observer() *obs.Metrics { return l.obsm.Load() }

// NewHandle registers a participant. It fails after n handles.
func (l *OneShot) NewHandle() (*OneShotHandle, error) {
	if l.handles.Add(1) > int64(l.n) {
		l.handles.Add(-1)
		return nil, fmt.Errorf("abortable: one-shot handle limit %d reached", l.n)
	}
	return &OneShotHandle{l: l, park: newParker()}, nil
}

// OneShotHandle is one participant's single-use interface to a OneShot
// lock. Abort may be called from any goroutine; everything else must be
// called by the owning goroutine.
type OneShotHandle struct {
	l         *OneShot
	slot      int
	state     int // 0 = fresh, 1 = holding, 2 = spent
	park      parker
	abortFlag atomic.Bool
	span      obs.Span
}

// Abort asynchronously requests that the pending (or upcoming) Enter
// abandon its attempt. It also wakes the handle if it is parked.
func (h *OneShotHandle) Abort() {
	h.abortFlag.Store(true)
	h.park.wake()
}

// abortPending reports whether the attempt should abandon (adapter to the
// instance code, which takes an aborter-shaped probe).
func (h *OneShotHandle) abortPending() bool { return h.abortFlag.Load() }

// parkState returns the handle's parker; one-shot attempts are never
// context-bound, so the done channel is nil.
func (h *OneShotHandle) parkState() (*parker, <-chan struct{}) { return &h.park, nil }

// notePark feeds the lock's park counter.
func (h *OneShotHandle) notePark() { h.l.parks.Add(1) }

// observer reports the attached obs collector, for the instance wait loop.
func (h *OneShotHandle) observer() *obs.Metrics { return h.l.obsm.Load() }

// Enter attempts to acquire the lock once, blocking until granted or
// aborted. It reports whether the lock is held; after true the caller
// must call Exit. A second call panics.
func (h *OneShotHandle) Enter() bool {
	if h.state != 0 {
		panic("abortable: one-shot Enter called twice")
	}
	if m := h.l.obsm.Load(); m != nil {
		return h.enterObserved(m)
	}
	return h.enter()
}

// enterObserved wraps enter with the obs recording that needs passage
// boundaries: latency, pprof labels, and the trace task.
func (h *OneShotHandle) enterObserved(m *obs.Metrics) bool {
	start := time.Now()
	m.SetAcquireLabels()
	h.span = m.StartPassage("doorway")
	ok := h.enter()
	if ok {
		m.RecordAcquire(time.Since(start))
		m.SetCSLabels()
		h.span.Phase("cs")
	} else {
		m.RecordAbort(time.Since(start))
		m.ClearLabels()
		h.span.End()
	}
	return ok
}

// enter is the uninstrumented body of Enter (observed or not: the
// instance wait loop picks up the collector itself via observer()).
func (h *OneShotHandle) enter() bool {
	m := h.l.obsm.Load()
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
	if !h.l.ins.enter(h, slot) {
		h.l.aborts.Add(1)
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
	if m := h.l.obsm.Load(); m != nil {
		h.span.Phase("exit")
		start := time.Now()
		h.l.ins.exit(m)
		h.state = 2
		m.RecordHandoff(time.Since(start))
		m.ClearLabels()
		h.span.End()
		return
	}
	h.span.End() // close a task left open if the observer detached mid-CS
	h.l.ins.exit(nil)
	h.state = 2
}

// Slot returns the FCFS position the doorway assigned, or -1 before Enter.
func (h *OneShotHandle) Slot() int {
	if h.state == 0 {
		return -1
	}
	return h.slot
}
