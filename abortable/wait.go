package abortable

import (
	"context"
	"runtime"
	"sync/atomic"
	"time"

	"sublock/abortable/obs"
)

// Adaptive waiting (the three-tier waiter of docs/PERF.md).
//
// Every wait loop in this package paces itself with a waiter, which
// escalates through three tiers:
//
//  1. bounded spin — a short burst of pause-style busy iterations, cheap
//     when the wait is short and cores are plentiful. The tier is skipped
//     entirely on single-P hosts (GOMAXPROCS(0) == 1), where spinning can
//     only delay the goroutine that would release us.
//  2. cooperative yield — runtime.Gosched rounds, so waiters cannot starve
//     the lock holder once the spin budget is burned.
//  3. park — the waiter blocks on its parker, a one-slot wake-hint channel,
//     and consumes no CPU until a signaller, an Abort, or a context
//     cancellation wakes it. Parking is futex-like: the waiter publishes
//     its parker where the signaller will look (the queue slot's parked
//     word, or a select on the instance's switch broadcast) and re-checks
//     the wait condition before sleeping, so a wakeup that raced with the
//     publication is never lost. Because the spin word is published before
//     the park decision, a signaller still pays O(1) RMRs per handoff: one
//     flag write plus at most one parker wake.
//
// Parker tokens are hints, not guarantees: a sleep may return spuriously
// (a stale token from an earlier passage, a wake for a condition that has
// since re-armed). Every wait loop therefore re-checks its condition after
// waking, which keeps the wake side free of handshakes.

const (
	// cacheLine is the coherence granularity assumed by the padding in
	// this package (64 bytes on every platform Go supports today).
	cacheLine = 64
	// falseSharingRange is the padding unit for hot concurrent words: two
	// cache lines, so the adjacent-line spatial prefetcher of modern x86
	// parts cannot re-introduce false sharing across a single-line pad.
	// sync.Pool and the runtime use the same 128-byte rule.
	falseSharingRange = 2 * cacheLine
)

const (
	// spinRounds is the tier-1 budget: rounds of spinCycles empty
	// iterations between re-reads of the watched word.
	spinRounds = 4
	// spinCycles is the length of one tier-1 pause burst.
	spinCycles = 40
	// yieldRounds is the tier-2 budget: Gosched rounds before parking.
	yieldRounds = 8
)

// waiter paces one goroutine through the waiting tiers. The zero value is
// ready to use; state persists across iterations of one wait loop so that
// escalation is monotone within a single acquisition attempt.
type waiter struct {
	round int
	spin  int // tier-1 budget, resolved on first pause
}

// spinBudget returns the tier-1 round budget for a host running on procs
// Ps: zero on a single-P host, where a spinning waiter only delays the
// holder it is waiting for.
func spinBudget(procs int) int {
	if procs <= 1 {
		return 0
	}
	return spinRounds
}

// pause burns one waiting round in the current tier and reports whether
// the caller should now park (tier 3). Callers with no wake source use
// relax instead, which degrades tier 3 to a yield.
func (w *waiter) pause() bool {
	if w.round == 0 {
		w.spin = spinBudget(runtime.GOMAXPROCS(0))
	}
	r := w.round
	w.round++
	switch {
	case r < w.spin:
		relax(spinCycles)
		return false
	case r < w.spin+yieldRounds:
		runtime.Gosched()
		return false
	}
	return true
}

// tiers reports the spin and yield rounds burned so far: pause rounds
// past the two budgets returned "park" and burned nothing here, so they
// are excluded (actual parks are counted at the sleep sites).
func (w *waiter) tiers() (spins, yields int64) {
	s := w.round
	if s > w.spin {
		s = w.spin
	}
	y := w.round - w.spin
	if y < 0 {
		y = 0
	}
	if y > yieldRounds {
		y = yieldRounds
	}
	return int64(s), int64(y)
}

// flushWait records a finished wait loop's tier rounds to m, if observing.
func flushWait(m *obs.Metrics, w *waiter) {
	if m != nil && w.round > 0 {
		m.AddWaitRounds(w.tiers())
	}
}

// relaxRound burns one waiting round without ever parking, for waits whose
// releaser is known to be running and brief (e.g. an instance switcher
// between retiring the old instance and publishing the new one): spin
// tiers first, then cooperative yields forever.
func (w *waiter) relaxRound() {
	if w.pause() {
		runtime.Gosched()
	}
}

// relax spins for the given number of empty iterations — a portable stand-in
// for a PAUSE-style busy loop. The gc compiler does not eliminate counted
// empty loops, and noinline keeps the call from folding into callers.
//
//go:noinline
func relax(cycles int) {
	for i := 0; i < cycles; i++ {
	}
}

// parker is a goroutine's park/unpark primitive: a one-slot channel of
// wake hints. wake never blocks, sleeping tolerates spurious tokens, and a
// token posted while nobody sleeps is consumed by the next sleep (or
// drained before the next publication).
type parker struct {
	ch chan struct{}
}

func newParker() parker { return parker{ch: make(chan struct{}, 1)} }

// wake posts a wake hint; a no-op if one is already pending.
func (p *parker) wake() {
	select {
	case p.ch <- struct{}{}:
	default:
	}
}

// drain consumes a stale pending hint, if any. Callers drain immediately
// before publishing the parker so a leftover token from a previous passage
// cannot satisfy the upcoming sleep.
func (p *parker) drain() {
	select {
	case <-p.ch:
	default:
	}
}

// sleep blocks until a wake hint arrives or either done channel closes.
// Nil channels never fire. Returns are allowed to be spurious; the caller
// re-checks its wait condition.
func (p *parker) sleep(done, extra <-chan struct{}) {
	select {
	case <-p.ch:
	case <-done:
	case <-extra:
	}
}

// counters are what a lock shares with every attempt at it: the abort
// and park counts behind its Stats, and the attached obs collector. Lock
// and OneShot embed them, and with them SetObserver and Observer.
type counters struct {
	aborts atomic.Int64 // attempts abandoned via the abort path
	parks  atomic.Int64 // tier-3 parks taken by waiters (see docs/PERF.md)

	// obsm is the attached obs collector, nil when observability is off.
	// Every passage path loads it exactly once; with it nil the extra
	// cost is that load and dead branches (the fast path stays
	// zero-alloc, CI-guarded).
	obsm atomic.Pointer[obs.Metrics]
}

// SetObserver attaches an obs.Metrics collector: passage latencies,
// waiting-tier rounds, park wake latencies, and doorway/retirement events
// are recorded into it until detached with SetObserver(nil). Attachment
// is atomic and may happen while the lock is in use; a passage in flight
// may straddle the boundary and record only its later events.
func (c *counters) SetObserver(m *obs.Metrics) { c.obsm.Store(m) }

// Observer returns the attached collector, or nil.
func (c *counters) Observer() *obs.Metrics { return c.obsm.Load() }

// attempt is the acquisition state every handle type embeds, and what the
// wait loops take: the abort flag (the one field other goroutines write),
// the parker, the EnterContext context, the trace span, and the lock's
// counters.
type attempt struct {
	abortFlag atomic.Bool
	park      parker          // tier-3 park/unpark channel (wake hints)
	ctx       context.Context // non-nil only inside EnterContext
	span      obs.Span        // open trace task (between Enter and Exit, tracing on)
	c         *counters
}

// Abort asynchronously requests that the handle's pending (or next) Enter
// abandon its attempt and return false; it may be called from any
// goroutine. An Enter granted the lock before it observes the signal
// returns true (paper footnote 2 — the caller holds the lock and should
// Exit normally); a Handle's Enter consumes the signal whichever way it
// returns. Abort also wakes the handle if it is parked, so a blocked
// waiter observes the signal within a bounded number of steps.
func (a *attempt) Abort() {
	a.abortFlag.Store(true)
	a.park.wake()
}

// abortPending reports whether the current attempt should abandon.
func (a *attempt) abortPending() bool {
	if a.abortFlag.Load() {
		return true
	}
	if a.ctx != nil {
		select {
		case <-a.ctx.Done():
			return true
		default:
		}
	}
	return false
}

// sleep is the tier-3 park of every wait loop: it counts the park, blocks
// until a wake hint, the EnterContext context, or extra (nil for a slot
// wait) fires, and records the wake latency when observing.
func (a *attempt) sleep(m *obs.Metrics, extra <-chan struct{}) {
	a.c.parks.Add(1)
	var done <-chan struct{}
	if a.ctx != nil {
		done = a.ctx.Done()
	}
	if m == nil {
		a.park.sleep(done, extra)
		return
	}
	t0 := time.Now()
	a.park.sleep(done, extra)
	m.RecordPark(time.Since(t0))
}

// The observed-passage bookends: with a collector attached, every
// handle's Enter and Exit record passage latency, pprof goroutine labels
// and, when a runtime trace is captured, a per-lock task with
// doorway/wait/cs/exit regions.

// enterBegin opens an observed acquisition and returns its start time.
func (a *attempt) enterBegin(m *obs.Metrics) time.Time {
	start := time.Now()
	m.SetAcquireLabels()
	a.span = m.StartPassage("doorway")
	return start
}

// enterEnd closes an observed acquisition and passes its outcome through.
func (a *attempt) enterEnd(m *obs.Metrics, start time.Time, ok bool) bool {
	if ok {
		m.RecordAcquire(time.Since(start))
		m.SetCSLabels()
		a.span.Phase("cs")
	} else {
		m.RecordAbort(time.Since(start))
		m.ClearLabels()
		a.span.End()
	}
	return ok
}

// exitBegin loads the collector for a release (nil when off) and, when
// observing, opens the exit phase and returns its start time.
func (a *attempt) exitBegin() (*obs.Metrics, time.Time) {
	m := a.c.obsm.Load()
	if m == nil {
		return nil, time.Time{}
	}
	a.span.Phase("exit")
	return m, time.Now()
}

// exitEnd closes a release; unobserved, it only ends a trace task left
// open by an observer detached mid-CS.
func (a *attempt) exitEnd(m *obs.Metrics, start time.Time) {
	if m != nil {
		m.RecordHandoff(time.Since(start))
		m.ClearLabels()
	}
	a.span.End()
}
