package rmr

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Adaptive waiting for free-running memories.
//
// Under a schedule gate a busy-wait loop needs no pacing: the gate
// serializes steps and waiting costs nothing, so Wait is a no-op there,
// exactly like Yield — gated schedules, the explorer, and the E-series
// experiments are bit-identical with this file compiled in. There is one
// gate: Controller is the hand-driven front end of the Scheduler, and
// Controller.Wait, unrelated to this Wait, is a deterministic drain.
//
// In free-running mode (gate == nil: the native benchmark matrix, race
// tests, examples) a waiting process escalates through three tiers:
// bounded spin (skipped when GOMAXPROCS(0) == 1, where spinning only
// delays the holder), cooperative yield, then a futex-like park: the
// process registers in the memory's wait table keyed by the watched
// address, re-checks the word and the abort signal, and sleeps on a
// one-slot wake-hint channel. Mutating operations (Write, successful CAS,
// FAA, Swap) wake every process parked on the mutated address, and
// SignalAbort wakes its target directly, so abort delivery unparks a
// waiter within a bounded number of steps.
//
// The pre-park re-check reads the word's raw value without charging an
// RMR: it is the runtime's futex compare, part of the waiting
// implementation, not an algorithm step — the paper's RMR accounting is
// about the algorithm's shared-memory operations, which remain exactly the
// Read/Write/CAS/FAA/Swap calls the lock issues.

const (
	waitSpinRounds  = 4  // tier-1 rounds (multi-P hosts only)
	waitSpinCycles  = 40 // empty iterations per tier-1 round
	waitYieldRounds = 8  // tier-2 Gosched rounds before parking
	futexBuckets    = 64
)

// WaitPolicy selects how Wait behaves on a free-running memory.
type WaitPolicy uint8

const (
	// WaitAdaptive escalates spin → yield → park (the default).
	WaitAdaptive WaitPolicy = iota
	// WaitYield makes every Wait a single cooperative yield, exactly like
	// the Yield-loop idiom the locks used before Wait existed. RMR-counting
	// experiments use it: a parked waiter sleeps through intermediate
	// states and so observes fewer cache invalidations than the analytic
	// CC model charges, which would undercount the Table 1 columns. Dense
	// yielding keeps every waiter observing every invalidation — and keeps
	// the E-series outputs bit-identical to the pre-parking harness.
	WaitYield
)

// SetWaitPolicy sets the memory's wait policy. Call it before any process
// waits; it is not synchronized with concurrent Wait calls.
func (m *Memory) SetWaitPolicy(pol WaitPolicy) { m.waitPolicy = pol }

// procParker is a process's park/unpark primitive: a one-slot channel of
// wake hints. Wakes never block; sleeps tolerate spurious tokens.
type procParker struct {
	ch chan struct{}
}

func (pk *procParker) wake() {
	select {
	case pk.ch <- struct{}{}:
	default:
	}
}

// procWait is the per-process adaptive waiting state. Only the owning
// goroutine touches rounds/spin/pk; parked is read by SignalAbort callers.
type procWait struct {
	rounds int
	spin   int
	pk     *procParker                // allocated on first park
	parked atomic.Pointer[procParker] // non-nil while parked (abort wake target)
}

// futexTable is the memory's wait table: processes parked per address,
// hashed over buckets. parked is the fast-path gate — mutating operations
// check it with one atomic load and skip the table entirely while it is
// zero, which it always is under a gate.
type futexTable struct {
	parked  atomic.Int64
	buckets [futexBuckets]futexBucket
}

type futexBucket struct {
	mu      sync.Mutex
	waiters map[Addr][]*procParker
}

func (t *futexTable) bucket(a Addr) *futexBucket {
	return &t.buckets[uint64(a)%futexBuckets]
}

// park blocks p until the word at a is mutated, the abort signal arrives,
// or a spurious hint lands. The caller re-checks its condition.
func (t *futexTable) park(p *Proc, a Addr, old uint64) {
	if p.wait.pk == nil {
		p.wait.pk = &procParker{ch: make(chan struct{}, 1)}
	}
	pk := p.wait.pk
	select { // drain a stale hint from an earlier wait
	case <-pk.ch:
	default:
	}
	b := t.bucket(a)
	b.mu.Lock()
	if b.waiters == nil {
		b.waiters = make(map[Addr][]*procParker)
	}
	b.waiters[a] = append(b.waiters[a], pk)
	b.mu.Unlock()
	t.parked.Add(1)
	p.wait.parked.Store(pk)
	// Re-check after registering: a mutation or abort signal that landed
	// before the registration published would otherwise be missed. The
	// seq-cst total order makes this sound: a waker that saw parked == 0
	// ordered its mutation before our registration, so this load sees it.
	if p.m.word(a).val.Load() != old || p.abort.Load() {
		p.wait.parked.Store(nil)
		t.remove(b, a, pk)
		return
	}
	<-pk.ch
	p.wait.parked.Store(nil)
	t.remove(b, a, pk) // deregister if a non-address wake left us enrolled
}

// remove deregisters pk from a's wait list if still enrolled. Whoever
// removes an entry from the table decrements parked — either the waker
// (wake) or the waiter itself here.
func (t *futexTable) remove(b *futexBucket, a Addr, pk *procParker) {
	b.mu.Lock()
	ws := b.waiters[a]
	for i, w := range ws {
		if w == pk {
			ws[i] = ws[len(ws)-1]
			ws = ws[:len(ws)-1]
			if len(ws) == 0 {
				delete(b.waiters, a)
			} else {
				b.waiters[a] = ws
			}
			t.parked.Add(-1)
			break
		}
	}
	b.mu.Unlock()
}

// wake unparks every process parked on a. Callers pre-check parked != 0.
func (t *futexTable) wake(a Addr) {
	b := t.bucket(a)
	b.mu.Lock()
	ws := b.waiters[a]
	if len(ws) != 0 {
		delete(b.waiters, a)
		t.parked.Add(-int64(len(ws)))
	}
	b.mu.Unlock()
	for _, pk := range ws {
		pk.wake()
	}
}

// wakeAll unparks every parked process (used when a gate is installed on a
// memory that had free-running waiters).
func (t *futexTable) wakeAll() {
	if t.parked.Load() == 0 {
		return
	}
	for i := range t.buckets {
		b := &t.buckets[i]
		b.mu.Lock()
		for a, ws := range b.waiters {
			delete(b.waiters, a)
			t.parked.Add(-int64(len(ws)))
			for _, pk := range ws {
				pk.wake()
			}
		}
		b.mu.Unlock()
	}
}

// wakeup is the mutating operations' hook: wake anyone parked on a. The
// parked counter keeps this a single always-taken-branch-free atomic load
// whenever nothing is parked (in particular under a gate, where Wait
// never parks).
func (m *Memory) wakeup(a Addr) {
	if m.ftab.parked.Load() != 0 {
		m.ftab.wake(a)
	}
}

// Wait adaptively pauses the process until the word at a is observed to
// differ from old, the abort signal arrives, or spuriously — callers
// re-check their wait condition and call Wait again, exactly as they
// would call Yield in a spin loop. Under a schedule gate it is a no-op
// (the gate already serializes steps), so gated runs are unchanged.
//
// Wait is not a shared-memory operation: it charges no RMR, takes no
// schedule step, and mutates nothing the model observes. In free-running
// mode it escalates bounded spin → cooperative yield → futex-like park on
// a (see the file comment), so oversubscribed waiters stop burning CPU
// while wakeups from the mutating operations stay O(1) per handoff.
func (p *Proc) Wait(a Addr, old uint64) {
	if p.m.gate != nil {
		return
	}
	if p.m.waitPolicy == WaitYield {
		osyield()
		return
	}
	if p.m.word(a).val.Load() != old {
		p.wait.rounds = 0
		return
	}
	r := p.wait.rounds
	p.wait.rounds++
	if r == 0 {
		p.wait.spin = 0
		if runtime.GOMAXPROCS(0) > 1 {
			p.wait.spin = waitSpinRounds
		}
	}
	switch {
	case r < p.wait.spin:
		waitRelax(waitSpinCycles)
	case r < p.wait.spin+waitYieldRounds:
		osyield()
	default:
		p.m.ftab.park(p, a, old)
		p.wait.rounds = 0
	}
}

// waitRelax spins for n empty iterations — a portable PAUSE stand-in; the
// gc compiler does not eliminate counted empty loops.
//
//go:noinline
func waitRelax(n int) {
	for i := 0; i < n; i++ {
	}
}
