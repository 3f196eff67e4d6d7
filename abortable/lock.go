package abortable

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

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
	switchWaits   atomic.Int64 // Enter calls that blocked on an instance switch
	waiterRetires atomic.Int64 // retirements won by a switch-waiter (vs a departure)

	counters // aborts, parks, and the obs collector (SetObserver)
}

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
	h := &Handle{lk: l, attempt: attempt{park: newParker(), c: &l.counters}}
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

	attempt         // abort flag, parker, context, trace span (Abort)
	arrived bool    // this handle has claimed a slot in hazard
	next    *Handle // registration list link (immutable)

	_ [falseSharingRange - 120]byte
}

// Enter acquires the lock, blocking until it is granted or until Abort is
// called. It reports whether the lock was acquired; after true the caller
// must eventually call Exit.
func (h *Handle) Enter() bool {
	m := h.c.obsm.Load()
	if m == nil {
		return h.enter(nil)
	}
	return h.enterEnd(m, h.enterBegin(m), h.enter(m))
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
					h.c.aborts.Add(1)
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
				h.park.drain()
				ch := ins.switchChan()
				if ins.switched.Load() {
					break
				}
				h.sleep(m, ch)
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
		if !ins.enter(&h.attempt, slot) {
			h.cleanup(ins)
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
	m, start := h.exitBegin()
	ins.exit(m)
	h.cur = nil
	h.cleanup(ins)
	h.exitEnd(m, start)
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
