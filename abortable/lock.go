package abortable

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"sublock/abortable/obs"
)

// ErrAborted is returned by EnterContext when the attempt was abandoned by
// an explicit Abort rather than by context cancellation.
var ErrAborted = errors.New("abortable: lock acquisition aborted")

// Config configures a Lock.
type Config struct {
	// MaxHandles caps the number of handles (participating goroutines).
	// It sizes each one-shot instance's queue. 0 selects DefaultMaxHandles.
	MaxHandles int
}

// DefaultMaxHandles is the handle capacity used when Config.MaxHandles is 0.
const DefaultMaxHandles = 128

// maxMaxHandles bounds MaxHandles to what the packed doorway's arrival
// field can count (see oneshot.go).
const maxMaxHandles = 1<<gateDepShift - 1

// Lock is a long-lived abortable mutual-exclusion lock (the paper's final
// algorithm, §6 applied to §3, with W = 64). Its methods are safe for
// concurrent use; per-goroutine state lives in Handles.
type Lock struct {
	n       int
	handles atomic.Int64
	desc    atomic.Pointer[instance] // the paper's LockDesc
	reg     atomic.Pointer[Handle]   // registered handles, linked by Handle.next

	// pool holds every instance the lock has allocated (the installed one
	// included) and epoch stamps the latest reuse scan (nextInstance).
	// Only a retiring process touches them, and retirements are
	// serialized (see oneshot.go, "Recycling"), so they need no locking.
	pool  []*instance
	epoch uint64

	switches      atomic.Int64 // completed instance switches (observability)
	instances     atomic.Int64 // instances allocated over the lock's life
	aborts        atomic.Int64 // attempts abandoned via the abort path
	switchWaits   atomic.Int64 // Enter calls that blocked on an instance switch
	parks         atomic.Int64 // tier-3 parks taken by waiters (see docs/PERF.md)
	waiterRetires atomic.Int64 // retirements won by a switch-waiter (vs a departure)

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
func (l *Lock) SetObserver(m *obs.Metrics) { l.obsm.Store(m) }

// Observer returns the attached collector, or nil.
func (l *Lock) Observer() *obs.Metrics { return l.obsm.Load() }

// Stats is a point-in-time observability snapshot of a Lock.
type Stats struct {
	// Handles is the number of registered handles.
	Handles int
	// Switches counts one-shot instance replacements so far: the lock
	// quiesced (every active attempt finished) that many times.
	Switches int64
	// Instances counts the one-shot instances allocated over the lock's
	// life (the §6.2 space observable). A switch reuses a retired instance
	// that no handle still publishes, so this stays at most Handles+1
	// however many switches occur.
	Instances int64
	// Aborts counts Enter attempts that returned unacquired.
	Aborts int64
	// SwitchWaits counts Enter attempts that found their previous one-shot
	// instance still installed and had to wait for it to be switched out
	// (the paper's lines 57–61). A high ratio of SwitchWaits to Switches
	// means handles re-enter faster than the lock quiesces.
	SwitchWaits int64
	// Parks counts waits that escalated to the parking tier (the waiter
	// blocked on its parker instead of spinning). Zero under light
	// contention; rises under oversubscription, where parking is the
	// point — see docs/PERF.md.
	Parks int64
	// WaiterRetires counts the subset of Switches whose retirement was
	// won by a waiting process (tryRetire) rather than a departing one —
	// the lazy-retirement slow case where a switch-waiter found the
	// instance quiescent and closed it itself.
	WaiterRetires int64
}

// Stats returns current counters. Values are individually atomic snapshots
// and may be mutually skewed while the lock is in active use. OneShot and
// HandlePool expose the same shape through OneShot.Stats and
// HandlePool.Stats; richer telemetry (latency histograms, tier counters)
// comes from attaching an abortable/obs collector via SetObserver.
func (l *Lock) Stats() Stats {
	return Stats{
		Handles:       int(l.handles.Load()),
		Switches:      l.switches.Load(),
		Instances:     l.instances.Load(),
		Aborts:        l.aborts.Load(),
		SwitchWaits:   l.switchWaits.Load(),
		Parks:         l.parks.Load(),
		WaiterRetires: l.waiterRetires.Load(),
	}
}

// New creates a Lock.
func New(cfg Config) *Lock {
	n := cfg.MaxHandles
	if n == 0 {
		n = DefaultMaxHandles
	}
	if n < 1 {
		panic(fmt.Sprintf("abortable: MaxHandles=%d must be positive", n))
	}
	if n > maxMaxHandles {
		panic(fmt.Sprintf("abortable: MaxHandles=%d exceeds the doorway limit %d", n, maxMaxHandles))
	}
	ins := newInstance(n)
	l := &Lock{n: n, pool: []*instance{ins}}
	l.desc.Store(ins)
	l.instances.Store(1)
	return l
}

// NewHandle registers a participant and returns its handle. A Handle must
// be used by one goroutine at a time. NewHandle fails once MaxHandles
// handles exist (handles are not reclaimed; pool them if participants are
// short-lived).
func (l *Lock) NewHandle() (*Handle, error) {
	if l.handles.Add(1) > int64(l.n) {
		l.handles.Add(-1)
		return nil, fmt.Errorf("abortable: handle limit %d reached", l.n)
	}
	h := &Handle{lk: l, park: newParker()}
	for {
		h.next = l.reg.Load()
		if l.reg.CompareAndSwap(h.next, h) {
			return h, nil
		}
	}
}

// Handle is one goroutine's identity at the lock. It is not safe for
// concurrent use, with the exception of Abort, which may be called from
// any goroutine.
//
// The struct is padded to a falseSharingRange multiple: handles are
// pooled and allocated back-to-back (HandlePool), and a collaborator's
// Abort store on one handle must not invalidate the cache line a
// neighbouring handle is spinning from.
type Handle struct {
	lk *Lock
	// hazard is the instance this handle may touch, published before the
	// first access and kept until the handle moves to another instance in
	// a later Enter; a published instance is never recycled (see
	// oneshot.go, "Recycling").
	hazard atomic.Pointer[instance]
	cur    *instance // instance currently held (between Enter and Exit)
	slot   int       // queue slot in cur (set by a successful enter)
	park   parker    // tier-3 park/unpark channel (wake hints)

	abortFlag atomic.Bool
	arrived   bool            // this handle has claimed a slot in hazard
	ctx       context.Context // non-nil only inside EnterContext
	span      obs.Span        // open trace task (between Enter and Exit, tracing on)
	next      *Handle         // registration list link (immutable)

	_ [falseSharingRange - 104]byte
}

// Abort asynchronously requests that the handle's pending (or next) Enter
// abandon its attempt and return false. The signal is consumed when Enter
// returns, whichever way it returns: an Enter that is granted the lock
// before observing the signal returns true and the signal is dropped
// (paper footnote 2 — the caller holds the lock and should Exit normally).
// Abort also wakes the handle if it is parked, so a blocked waiter
// observes the signal within a bounded number of steps.
func (h *Handle) Abort() {
	h.abortFlag.Store(true)
	h.park.wake()
}

// abortPending reports whether the current attempt should abandon.
func (h *Handle) abortPending() bool {
	if h.abortFlag.Load() {
		return true
	}
	if h.ctx != nil {
		select {
		case <-h.ctx.Done():
			return true
		default:
		}
	}
	return false
}

// parkState returns the handle's parker and, inside EnterContext, the
// context's done channel (nil otherwise) — the wake sources a tier-3
// sleep must select on besides the grant signal.
func (h *Handle) parkState() (*parker, <-chan struct{}) {
	if h.ctx != nil {
		return &h.park, h.ctx.Done()
	}
	return &h.park, nil
}

// notePark feeds the Parks observability counter.
func (h *Handle) notePark() { h.lk.parks.Add(1) }

// observer returns the lock's attached obs collector, or nil.
func (h *Handle) observer() *obs.Metrics { return h.lk.obsm.Load() }

// Enter acquires the lock, blocking until it is granted or until Abort is
// called. It reports whether the lock was acquired; after true the caller
// must eventually call Exit.
func (h *Handle) Enter() bool {
	if m := h.lk.obsm.Load(); m != nil {
		return h.enterObserved(m)
	}
	return h.enter(nil)
}

// enterObserved wraps the acquisition with the obs event surface: passage
// latency, pprof goroutine labels, and — when a runtime trace is being
// captured — a per-lock task with doorway/wait/cs regions.
func (h *Handle) enterObserved(m *obs.Metrics) bool {
	start := time.Now()
	m.SetAcquireLabels()
	h.span = m.StartPassage("doorway")
	ok := h.enter(m)
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

// enter is the acquisition loop. m is the obs collector loaded by the
// caller (nil when observability is off: the branches below are dead and
// the path allocates nothing).
func (h *Handle) enter(m *obs.Metrics) bool {
	if h.cur != nil {
		panic("abortable: Enter while holding the lock")
	}
	defer h.abortFlag.Store(false) // consume the signal
	var w waiter
	for {
		ins := h.lk.desc.Load()
		if ins != h.hazard.Load() {
			// Publish the instance before touching it, then go round: the
			// descriptor re-read that finds ins still installed is what
			// protects it from recycling.
			h.hazard.Store(ins)
			h.arrived = false
			continue
		}
		if h.arrived {
			// Lines 57–61: we already used this instance; wait until it is
			// switched out (O(1) RMRs: one flag, set once). Retirement is
			// lazy, so the waiter first tries to retire a quiescent
			// instance itself; swWait makes the registration visible to
			// departures, whose closing CAS otherwise skips an instance
			// with unused slots.
			h.lk.switchWaits.Add(1)
			if m != nil {
				m.IncSwitchWait()
			}
			ins.swWait.Add(1)
			for !ins.switched.Load() {
				if h.abortPending() {
					ins.swWait.Add(-1)
					h.lk.aborts.Add(1)
					flushWait(m, &w)
					return false
				}
				if ins.tryRetire() {
					h.lk.waiterRetires.Add(1)
					if m != nil {
						m.IncWaiterRetire()
					}
					h.lk.switchOut(ins)
					break
				}
				if !w.pause() {
					continue
				}
				// Park until the switch broadcast, an Abort wake, or
				// context cancellation. The broadcast channel is created
				// on demand and closed by the retiring process after it
				// sets switched, so switched is re-checked once the
				// channel exists (see switchChan).
				_, done := h.parkState()
				h.park.drain()
				ch := ins.switchChan()
				if ins.switched.Load() {
					break
				}
				h.notePark()
				if m != nil {
					t0 := time.Now()
					h.park.sleep(done, ch)
					m.RecordPark(time.Since(t0))
				} else {
					h.park.sleep(done, ch)
				}
			}
			ins.swWait.Add(-1)
			continue
		}
		// Line 62: pin the instance and claim a queue slot with the packed
		// single-F&A doorway. The closed bit makes "pin and obtain the
		// instance" atomic with respect to the switch: an arrival that
		// lands after retirement is rejected.
		slot, ok := ins.arrive()
		if !ok {
			if m != nil {
				m.IncClosedGate()
			}
			w.relaxRound() // switcher is about to publish the new instance
			continue
		}
		h.arrived = true
		if m != nil {
			m.IncArrival()
			flushWait(m, &w)
			h.span.Phase("wait")
		}
		if !ins.enter(h, slot) {
			h.cleanup(ins)
			h.lk.aborts.Add(1)
			return false
		}
		h.cur = ins
		h.slot = slot
		return true
	}
}

// EnterContext acquires the lock, abandoning the attempt when ctx is
// cancelled (returning ctx.Err()) or Abort is called (returning
// ErrAborted). A nil error means the lock is held and Exit is owed.
func (h *Handle) EnterContext(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	h.ctx = ctx
	ok := h.Enter()
	h.ctx = nil
	if ok {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return ErrAborted
}

// exitObserved wraps the release with the obs event surface.
func (h *Handle) exitObserved(ins *instance, m *obs.Metrics) {
	h.span.Phase("exit")
	start := time.Now()
	ins.exit(m)
	h.cur = nil
	h.cleanup(ins)
	m.RecordHandoff(time.Since(start))
	m.ClearLabels()
	h.span.End()
}

// TryEnter acquires the lock only if it is granted without waiting: it
// joins the queue and abandons immediately if the slot is not already
// granted. It reports whether the lock was acquired.
func (h *Handle) TryEnter() bool {
	h.abortFlag.Store(true)
	return h.Enter()
}

// Exit releases the lock. It panics if the handle does not hold it.
func (h *Handle) Exit() {
	ins := h.cur
	if ins == nil {
		panic("abortable: Exit without holding the lock")
	}
	if m := h.lk.obsm.Load(); m != nil {
		h.exitObserved(ins, m)
		return
	}
	h.span.End() // close a task left open if the observer detached mid-CS
	ins.exit(nil)
	h.cur = nil
	h.cleanup(ins)
}

// cleanup is Algorithm 6.3 with lazy retirement: unpin the instance; the
// departure whose retirement test holds (slots exhausted, or a registered
// switch-waiter, with arrivals balanced either way) retires it and owns
// the switch. A quiescent instance with unused slots and no waiters stays
// installed, so an idle lock does not switch per quiescence. The handle's
// hazard keeps publishing ins, which is what the next Enter's switch-wait
// test relies on.
func (h *Handle) cleanup(ins *instance) {
	if ins.depart() {
		h.lk.switchOut(ins)
	}
}

// switchOut completes a won retirement: install the next instance, then
// flip the switched flag and close the broadcast channel, if a parked
// switch-waiter created one (strictly in that order — a waiter that
// observes the close re-reads switched and must see it set). The retired
// instance goes back to the lock's pool; nextInstance reuses it once no
// handle publishes it.
func (l *Lock) switchOut(ins *instance) {
	l.desc.Store(l.nextInstance())
	ins.switched.Store(true)
	if ch := ins.switchCh.Load(); ch != nil {
		close(*ch)
	}
	l.switches.Add(1)
	if m := l.obsm.Load(); m != nil {
		m.IncSwitch()
	}
}

// nextInstance returns the instance to install in place of the retiring
// one: the first pooled instance that no registered handle publishes,
// reset to its initial state, or a fresh one when every pooled instance
// is published. Each handle publishes at most one instance, and the
// retirer is a handle that still publishes the retiring instance, so the
// scan always skips it and the pool never grows past the handle count
// plus one. The scan is O(handles + pool) = O(MaxHandles) per switch.
func (l *Lock) nextInstance() *instance {
	l.epoch++
	for h := l.reg.Load(); h != nil; h = h.next {
		if p := h.hazard.Load(); p != nil {
			p.mark = l.epoch
		}
	}
	for _, ins := range l.pool {
		if ins.mark != l.epoch {
			ins.reset()
			return ins
		}
	}
	ins := newInstance(l.n)
	l.pool = append(l.pool, ins)
	l.instances.Add(1)
	return ins
}
