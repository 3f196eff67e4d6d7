package rmr

// Proc is a process's handle to the shared memory. All shared-memory
// operations are methods on Proc so that every remote memory reference can
// be charged to the process that issued it.
//
// Operations obey the Memory's one-goroutine contract: processes of one
// memory run concurrently only as the coroutines of its Scheduler or
// Controller, one at a time, and every operation takes the same path
// whether gated, ungated or observed. The operation methods perform no
// heap allocation in steady state: trace events are only materialized when
// an observer (tracer or Stats) is installed (asserted by
// TestOperationsDoNotAllocate).
type Proc struct {
	m  *Memory
	id int

	rmrs  int64 // remote memory references charged so far
	steps int64 // total shared-memory operations issued
	stime int64 // simulated time accrued under a non-nil cost model

	abort bool // external abort signal (§2: delivered from outside)

	// phase is the passage phase declared via EnterPhase. Only the process
	// itself writes it, and observers read it during its own operations.
	// exitAt is steps when the process last declared PhaseExit: until its
	// next operation executes it still holds the critical section (holdsCS).
	phase  Phase
	exitAt int64
}

// ID returns the process identifier, in [0, Memory.NumProcs()).
func (p *Proc) ID() int { return p.id }

// Memory returns the memory this process belongs to.
func (p *Proc) Memory() *Memory { return p.m }

// RMRs returns the total number of remote memory references this process
// has incurred. Harnesses snapshot it before and after a passage to obtain
// the passage's RMR cost.
func (p *Proc) RMRs() int64 { return p.rmrs }

// Steps returns the total number of shared-memory operations issued.
func (p *Proc) Steps() int64 { return p.steps }

// SimTime returns the simulated time this process has accumulated under the
// memory's cost model: the sum of the costs of its operations, in simulated
// nanoseconds for the built-in non-unit models. Under the default Unit model
// every charged operation costs one tick, so SimTime equals RMRs. Harnesses
// snapshot it before and after a passage to obtain the passage's simulated
// latency, exactly as they do with RMRs.
func (p *Proc) SimTime() int64 {
	if p.m.cost == nil {
		return p.rmrs
	}
	return p.stime
}

// SignalAbort delivers the external abort signal to the process. The signal
// is sticky until ClearAbort is called.
func (p *Proc) SignalAbort() {
	p.abort = true
	p.m.epoch++
	if s := p.m.sched; s != nil && s.learn != nil {
		s.noteSignal(p)
	}
}

// ClearAbort resets the abort signal, typically between passages.
func (p *Proc) ClearAbort() {
	p.abort = false
	p.m.epoch++
}

// AbortSignal reports whether the external abort signal is pending. Reading
// the signal is not a shared-memory operation and incurs no RMR (the paper
// models it as an external event, not a shared variable).
func (p *Proc) AbortSignal() bool { return p.abort }

// EnterPhase declares that the process is now in the given passage phase.
// Locks call it at their phase boundaries (doorway entry, the start of the
// waiting loop, critical-section entry, exit protocol, abort path, and
// PhaseIdle when the passage is over); subsequent operations are attributed
// to the phase in trace events and Stats. Entering the current phase again
// is a no-op. EnterPhase is not a shared-memory operation: it incurs no
// RMR, takes no schedule step, and — with no observer installed — performs
// a few plain stores, so instrumented locks explore the exact same
// schedule tree and report the exact same RMR counts as uninstrumented
// ones.
//
// Under a Scheduler or Controller, declaring PhaseCS is also the
// mutual-exclusion check: if another process still holds the critical
// section (holdsCS), the run fails with a *FaultError wrapping
// ErrMutualExclusion (see Scheduler.enterCS). The phases of one memory's
// processes therefore describe one critical section: a lock whose run
// nests another lock's passage must not declare phases for both.
func (p *Proc) EnterPhase(ph Phase) {
	old := p.phase
	if ph == old {
		return
	}
	p.phase = ph
	if ph == PhaseExit {
		p.exitAt = p.steps
	}
	if s := p.m.sched; s != nil {
		if ph == PhaseCS {
			s.enterCS(p)
		}
		if s.wdBound > 0 {
			// Liveness watchdog (Scheduler.SetWatchdog): phase transitions
			// are its only input.
			s.notePhase(p.id, old, ph)
		}
	}
	o := p.m.obs
	if o == nil {
		return
	}
	if o.stats != nil {
		o.stats.phaseChange(p, old, ph)
	}
	if o.tracer != nil {
		o.tracer(Event{
			Proc: p.id, Op: OpPhase, Addr: -1,
			Old: uint64(old), New: uint64(ph), OK: true,
			Time: p.m.tick(), Phase: ph, STime: p.SimTime(),
		})
	}
}

// Phase returns the passage phase last declared with EnterPhase.
func (p *Proc) Phase() Phase { return p.phase }

// holdsCS reports whether the process holds the critical section: from
// its declaration of PhaseCS until the first operation it performs after
// declaring PhaseExit executes. While that operation waits at the gate the
// process still holds. A crashed process keeps its phase, so a process
// crashed while holding holds for the rest of the run.
func (p *Proc) holdsCS() bool {
	return p.phase == PhaseCS || p.phase == PhaseExit && p.steps == p.exitAt
}

// observe folds the operation's result into the process's observation
// history for the Explorer's visited-state reduction — a no-op (one nil
// check) unless an exploration enabled it. Every operation calls it, with
// or without an observer installed, so a tracer or Stats collector never
// changes which states the reduction tells apart.
func (p *Proc) observe(op Op, a Addr, v uint64) {
	if s := p.m.sched; s != nil && s.hist != nil {
		s.noteResult(p.id, op, a, v, p.abort)
	}
}

// charge counts one RMR and prices it under the memory's cost model. The
// attempt ordinal handed to the model is the process's cumulative RMR count
// after the charge — deterministic wherever RMR counts are — so seeded
// models reproduce bit-identical costs on replays (see CostModel).
func (p *Proc) charge(class OpClass) int64 {
	p.rmrs++
	cm := p.m.cost
	if cm == nil {
		return 1
	}
	c := cm.Cost(p.id, p.rmrs, class)
	p.stime += c
	return c
}

// localCost prices an operation that charged no RMR. The built-in models
// price local hits at zero, so under them this is a single nil-check; the
// step ordinal is passed for custom models that do cost hits.
func (p *Proc) localCost(class OpClass) int64 {
	cm := p.m.cost
	if cm == nil {
		return 0
	}
	c := cm.Cost(p.id, p.steps, class)
	p.stime += c
	return c
}

// apply is the memory model's semantics of one operation by process pid on
// word w, in one place: it updates the word's value and coherence set and
// returns the result the process observes, whether a CAS succeeded, and
// whether the operation is a remote memory reference. The result is what
// the operation returns and what the visited-state history folds: the
// value for a read, the written value for a write, 1 or 0 for a successful
// or failed CAS, the previous value for an F&A or SWAP. Under CC a read is
// an RMR unless pid holds a cached copy, and adds pid to the coherence
// set; every update is an RMR and leaves pid the set's only member (a
// failed CAS included). Under DSM an operation is an RMR unless the word
// is local to pid, and there is no coherence state. apply touches nothing
// but w: Proc's operations run it on the word itself, and the Explorer's
// replay prediction on a copy of a snapshot word, so the two share
// one copy of the memory model.
func apply(w *word, pid int, model Model, op Op, cmp, arg uint64) (res uint64, ok, rmr bool) {
	switch model {
	case CC:
		if op == OpRead {
			if rmr = !w.cached.has(pid); rmr {
				w.cached.add(pid)
			}
		} else {
			rmr = true
			w.cached.clearExcept(pid)
		}
	case DSM:
		rmr = int(w.owner) != pid
	}
	old := w.val
	res, ok = old, true
	switch op {
	case OpWrite:
		w.val, res = arg, arg
	case OpCAS:
		ok = old == cmp
		res = 0
		if ok {
			w.val, res = arg, 1
		}
	case OpFAA:
		w.val = old + arg
	case OpSwap:
		w.val = arg
	}
	return res, ok, rmr
}

// Read atomically reads the word at a.
func (p *Proc) Read(a Addr) uint64 { return p.do(OpRead, a, 0, 0) }

// Write atomically writes v to the word at a.
func (p *Proc) Write(a Addr, v uint64) { p.do(OpWrite, a, 0, v) }

// CAS atomically compares the word at a with old and, if equal, replaces it
// with new, reporting whether the replacement happened. Both successful and
// failed CAS operations are charged as updates, per §2 ("each write, CAS, or
// F&A incurs an RMR").
func (p *Proc) CAS(a Addr, old, new uint64) bool { return p.do(OpCAS, a, old, new) == 1 }

// FAA atomically adds delta to the word at a and returns the previous value
// (Fetch-And-Add; delta may encode a subtraction in two's complement).
func (p *Proc) FAA(a Addr, delta uint64) uint64 { return p.do(OpFAA, a, 0, delta) }

// Swap atomically stores v into the word at a and returns the previous value
// (Fetch-And-Store). It is not used by the paper's algorithm but is required
// by the MCS and Scott baselines.
func (p *Proc) Swap(a Addr, v uint64) uint64 { return p.do(OpSwap, a, 0, v) }

// do performs one operation on the word at a — OpRead, or an update:
// OpWrite stores arg, OpCAS stores arg if the word equals cmp, OpFAA adds
// arg, OpSwap stores arg. It waits at the gate for its step, reporting the
// operation to the scheduler — its footprint (word address, read vs.
// mutate) for the Explorer's partial-order reduction and, while it waits,
// the whole pending operation for the replay prediction — then
// applies it (apply), charges it, and folds its result into the
// process's observation history. It returns the result (see apply). The
// Scheduler gate is called directly rather than through the interface:
// the per-step call is the hottest edge in an exploration.
func (p *Proc) do(op Op, a Addr, cmp, arg uint64) uint64 {
	if s := p.m.sched; s != nil {
		if s.pend != nil {
			s.pend[p.id] = pendingOp{op: op, addr: a, cmp: cmp, arg: arg}
		}
		s.await(p.id)
		s.noteAccess(a, op != OpRead)
	} else if g := p.m.gate; g != nil {
		g.Await(p.id)
	}
	p.steps++
	m := p.m
	w := m.word(a)
	o := m.obs
	var hit bool
	var invals int
	if o != nil {
		hit, invals = p.cacheState(w, op != OpRead)
	}
	old := w.val
	res, ok, rmr := apply(w, p.id, m.model, op, cmp, arg)
	var cost int64
	if rmr {
		class := ClassAtomicRMW
		switch op {
		case OpRead:
			class = ClassRemoteMiss
		case OpWrite:
			class = ClassInvalidation
		}
		cost = p.charge(class)
	} else {
		cost = p.localCost(ClassLocalHit)
	}
	p.observe(op, a, res)
	if o != nil {
		m.observe(o, p, w, Event{Proc: p.id, Op: op, Addr: a, Old: old, New: w.val, OK: ok, RMR: rmr, Cost: cost}, hit, invals)
	}
	return res
}
