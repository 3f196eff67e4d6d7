package rmr

import "fmt"

// Op identifies a shared-memory operation kind in a trace.
type Op int

// Operation kinds.
const (
	OpRead Op = iota + 1
	OpWrite
	OpCAS
	OpFAA
	OpSwap
	// OpPhase marks a passage-phase transition (Proc.EnterPhase), not a
	// shared-memory operation: Old and New carry the previous and the new
	// Phase, Addr is -1, and no RMR is charged. CheckTrace skips it.
	OpPhase
)

// String returns the operation mnemonic.
func (o Op) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpCAS:
		return "cas"
	case OpFAA:
		return "faa"
	case OpSwap:
		return "swap"
	case OpPhase:
		return "phase"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Phase classifies where in a lock passage a process currently is. Locks
// declare their position with Proc.EnterPhase so that traces and Stats can
// attribute RMRs to the doorway, the waiting room, the critical section,
// the exit protocol, or the abort path. PhaseIdle (the zero value) means
// "not in a passage".
type Phase int32

// Passage phases, in the order a normal passage visits them.
const (
	PhaseIdle Phase = iota
	PhaseDoorway
	PhaseWaiting
	PhaseCS
	PhaseExit
	PhaseAbort

	// NumPhases is the number of distinct Phase values.
	NumPhases = 6
)

// String returns the phase name.
func (ph Phase) String() string {
	switch ph {
	case PhaseIdle:
		return "idle"
	case PhaseDoorway:
		return "doorway"
	case PhaseWaiting:
		return "waiting"
	case PhaseCS:
		return "cs"
	case PhaseExit:
		return "exit"
	case PhaseAbort:
		return "abort"
	default:
		return fmt.Sprintf("Phase(%d)", int32(ph))
	}
}

// Event records one shared-memory operation for offline analysis. Events
// are emitted in the order the operations took effect, which is a total
// order: a Memory runs one operation at a time.
type Event struct {
	Proc int
	Op   Op
	Addr Addr
	// Old and New are the word's value before and after the operation
	// (equal for reads and failed CASes). For OpPhase they carry the
	// previous and the new Phase.
	Old, New uint64
	// OK is false only for a failed CAS.
	OK bool
	// RMR reports whether the operation was charged as remote.
	RMR bool
	// Time is a global logical timestamp: each observed event increments
	// the memory's event clock, so timestamps are strictly increasing in
	// the order the operations took effect.
	Time int64
	// Phase is the issuing process's passage phase at the operation.
	Phase Phase
	// Label is the label id of the addressed word (see Memory.Label);
	// 0 means unlabeled. Resolve names with Memory.LabelName.
	Label int32
	// Cost is the simulated-time cost the memory's cost model assigned to
	// the operation (cost.go): simulated nanoseconds under the built-in
	// non-unit models, one tick per charged operation under Unit. OpPhase
	// events carry 0.
	Cost int64
	// STime is the issuing process's cumulative simulated time after the
	// operation (Proc.SimTime) — a per-process virtual clock that gives
	// exported traces real durations.
	STime int64
}

// String formats the event on one line, e.g.
//
//	"[   12] p3  faa   @7    5 → 6 (rmr, doorway)".
func (ev Event) String() string {
	rmr := ""
	if ev.RMR {
		rmr = "rmr, "
	}
	if ev.Op == OpPhase {
		return fmt.Sprintf("[%5d] p%-2d phase %v → %v", ev.Time, ev.Proc, Phase(ev.Old), Phase(ev.New))
	}
	fail := ""
	if !ev.OK {
		fail = " (failed)"
	}
	return fmt.Sprintf("[%5d] p%-2d %-5s @%-4d %d → %d%s (%s%v)",
		ev.Time, ev.Proc, ev.Op, ev.Addr, ev.Old, ev.New, fail, rmr, ev.Phase)
}

// Tracer consumes events. Implementations must not operate on the traced
// Memory from inside the callback (the operation is still in progress) and
// must be fast; tracing is a debugging/verification facility, not a hot
// path.
type Tracer func(Event)

// observer bundles everything an observed operation consults: the
// installed tracer and/or stats collector. A single pointer on the Memory
// is nil when neither is installed, so an unobserved operation pays one
// pointer load and allocates nothing.
type observer struct {
	tracer Tracer
	stats  *Stats
}

// SetTracer installs (or removes, with nil) a tracer. Install it before
// the run starts when a complete trace is required. SetTracer panics if
// the memory is gated by a scheduler that is mid-schedule, since a trace
// that starts at an uncontrolled point cannot be replayed.
func (m *Memory) SetTracer(t Tracer) {
	m.install(func(o *observer) { o.tracer = t })
}

// SetStats installs (or removes, with nil) a Stats collector, with the same
// mid-schedule restriction as SetTracer. The collector must
// have been built for this memory by NewStats.
func (m *Memory) SetStats(st *Stats) {
	if st != nil && st.m != m {
		panic("rmr: SetStats with a Stats built for a different Memory")
	}
	m.install(func(o *observer) { o.stats = st })
}

// install swaps in a new observer derived from the current one.
func (m *Memory) install(mut func(o *observer)) {
	if s := m.sched; s != nil && s.active() {
		panic("rmr: observer installed mid-schedule (install tracers and stats before Scheduler.Run)")
	}
	var o observer
	if old := m.obs; old != nil {
		o = *old
	}
	mut(&o)
	if o.tracer == nil && o.stats == nil {
		m.obs = nil
		return
	}
	m.obs = &o
}

// tick advances the event clock and returns the new timestamp.
func (m *Memory) tick() int64 {
	m.clock++
	return m.clock
}

// observe timestamps, attributes, and dispatches an operation event. It
// runs inside the operation, so events are in the order the operations
// took effect and consistent with the values recorded.
func (m *Memory) observe(o *observer, p *Proc, w *word, ev Event, hit bool, invals int) {
	ev.Time = m.tick()
	ev.Phase = p.phase
	ev.Label = w.label
	ev.STime = p.SimTime()
	if o.stats != nil {
		o.stats.record(ev.Proc, ev.Phase, ev.Label, ev.Op, ev.RMR, ev.Cost, hit, invals)
	}
	if o.tracer != nil {
		o.tracer(ev)
	}
}

// cacheState reports observability detail about the addressed word from the
// issuing process's viewpoint, before coherence state is mutated: whether
// the access hits (CC: a valid cached copy; DSM: the word is local) and,
// for updates under CC, how many other processes' copies it invalidates.
func (p *Proc) cacheState(w *word, update bool) (hit bool, invals int) {
	switch p.m.model {
	case CC:
		hit = w.cached.has(p.id)
		if update {
			invals = w.cached.count()
			if hit {
				invals--
			}
		}
	case DSM:
		hit = int(w.owner) == p.id
	}
	return hit, invals
}

// CheckTrace validates the internal consistency of a totally-ordered event
// sequence (as recorded under a gated memory): per address, each event's
// Old value must equal the previous event's New value, failed CASes must
// not change the value, and successful operations must transform it as
// their kind dictates. OpPhase events are skipped: they mark passage-phase
// transitions, not memory operations. It is a self-check of the simulator
// and of hand-built schedules; inits supplies the initial value of any
// address whose first event should be checked against it.
func CheckTrace(events []Event, inits map[Addr]uint64) error {
	last := make(map[Addr]uint64, len(inits))
	have := make(map[Addr]bool, len(inits))
	for a, v := range inits {
		last[a], have[a] = v, true
	}
	for i, ev := range events {
		if ev.Op == OpPhase {
			continue
		}
		if have[ev.Addr] && ev.Old != last[ev.Addr] {
			return fmt.Errorf("event %d (%s on %d by proc %d): Old=%d but previous New=%d",
				i, ev.Op, ev.Addr, ev.Proc, ev.Old, last[ev.Addr])
		}
		switch ev.Op {
		case OpRead:
			if ev.New != ev.Old {
				return fmt.Errorf("event %d: read changed the value", i)
			}
		case OpCAS:
			if !ev.OK && ev.New != ev.Old {
				return fmt.Errorf("event %d: failed CAS changed the value", i)
			}
		case OpFAA, OpWrite, OpSwap:
			// Any transformation is legal; the chain check above binds it.
		default:
			return fmt.Errorf("event %d: unknown op %v", i, ev.Op)
		}
		last[ev.Addr], have[ev.Addr] = ev.New, true
	}
	return nil
}
