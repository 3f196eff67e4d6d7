package rmr

import (
	"errors"
	"fmt"
	"strings"
)

// Deterministic fault injection for the simulated machine.
//
// The paper's model (§2) assumes processes never fail. The strongest
// related results — recoverable mutual exclusion (RME) — are defined on
// exactly this machine with crash faults added, and a robust harness must
// also survive bugs in the code under test: a panic inside a simulated
// process, or a livelocked lock that would otherwise hang the host.
//
// This file adds three layers:
//
//   - FaultPlan: scripted crash-stop, stall, and crash-restart faults that
//     Scheduler and Controller apply deterministically at the gate. A fault
//     triggers when its victim attempts a specific shared-memory operation
//     (counted per process), so the same plan under the same schedule
//     reproduces the same execution step for step.
//   - Panic containment: a panic inside a simulated process is recovered
//     where the gate runs the process body, recorded as a Fault carrying the schedule prefix for
//     replay, and surfaced as a failed run — instead of killing the host
//     test binary or deadlocking the gate.
//   - Liveness watchdog: Scheduler.SetWatchdog flags starvation/livelock
//     when a doorway-complete process (one that declared PhaseWaiting) is
//     overtaken by more critical-section entries than the bound, reported
//     like a safety violation with a replayable schedule.
//
// Replays: a Fault's Schedule is the choice-index prefix recorded up to the
// fault (see Scheduler.RecordSchedule). Re-running the same body with the
// same FaultPlan under ReplayPick(fault.Schedule) reproduces the execution;
// without the plan the choice tree differs and the replay is meaningless.

// FaultKind classifies an injected or observed fault.
type FaultKind int

const (
	// FaultCrash is crash-stop: the victim halts permanently just before
	// performing the triggering operation (the operation never happens).
	FaultCrash FaultKind = iota + 1
	// FaultStall deschedules the victim for Delay global steps before the
	// triggering operation: it stays blocked at the gate and is ineligible
	// for scheduling until the window has passed, then proceeds normally.
	FaultStall
	// FaultRestart is crash-and-restart: crash-stop at the trigger, then —
	// Delay global steps later — the process body produced by
	// FaultPlan.Restart is dispatched under the same pid (the RME model's
	// recovery semantics). Without a Restart hook it degrades to FaultCrash.
	FaultRestart
	// FaultPanic records a panic inside a simulated process, recovered and
	// contained where the gate runs the process body instead of crashing
	// the host.
	FaultPanic
	// FaultStarvation records a liveness-watchdog violation: a
	// doorway-complete process was overtaken beyond the configured bound.
	FaultStarvation
)

// String returns the fault-kind mnemonic.
func (k FaultKind) String() string {
	switch k {
	case FaultCrash:
		return "crash"
	case FaultStall:
		return "stall"
	case FaultRestart:
		return "restart"
	case FaultPanic:
		return "panic"
	case FaultStarvation:
		return "starvation"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// FaultSpec is one scripted fault: Kind strikes process Proc when it
// attempts its Op-th (1-based) gated shared-memory operation. Op counts
// are cumulative across a restart, so a restarted process is not re-struck
// by the spec that killed it.
type FaultSpec struct {
	Proc int
	Kind FaultKind // FaultCrash, FaultStall, or FaultRestart
	Op   int       // 1-based operation attempt that triggers the fault
	// Delay is the stall window (FaultStall) or the delay before the
	// restarted body is dispatched (FaultRestart), in global steps.
	Delay int
}

// String formats the spec in the CLI's -faults syntax (kind:pid@op[+delay]).
func (sp FaultSpec) String() string {
	s := fmt.Sprintf("%s:%d@%d", sp.Kind, sp.Proc, sp.Op)
	if sp.Delay > 0 {
		s += fmt.Sprintf("+%d", sp.Delay)
	}
	return s
}

// FaultPlan is a deterministic fault script applied at the gate: install it
// with Scheduler.SetFaultPlan or Controller.SetFaultPlan before the run.
// The same plan under the same schedule reproduces the same execution.
type FaultPlan struct {
	Faults []FaultSpec
	// Restart, when non-nil, rebuilds the process body dispatched for a
	// FaultRestart victim: it is called at crash time and the returned
	// function is scheduled Delay global steps later under the victim's
	// pid. When nil, FaultRestart specs degrade to FaultCrash.
	Restart func(pid int) func()
}

// CrashOnly reports whether the plan injects only crash-stop faults. Stalls
// and restarts make a process's eligibility depend on the global step
// count, which breaks the trace-equivalence argument behind sleep-set
// partial-order reduction; the Explorer therefore disables reduction for
// plans that are not crash-only.
func (p *FaultPlan) CrashOnly() bool {
	if p == nil {
		return true
	}
	for _, sp := range p.Faults {
		if sp.Kind == FaultStall {
			return false
		}
		if sp.Kind == FaultRestart && p.Restart != nil {
			return false
		}
	}
	return true
}

// String summarizes the plan in the CLI's -faults syntax.
func (p *FaultPlan) String() string {
	if p == nil || len(p.Faults) == 0 {
		return "none"
	}
	parts := make([]string, len(p.Faults))
	for i, sp := range p.Faults {
		parts[i] = sp.String()
	}
	return strings.Join(parts, ",")
}

// validate panics on a malformed plan — a plan is test configuration, and
// failing loudly at install time beats silently skipping a fault.
func (p *FaultPlan) validate(n int) {
	for _, sp := range p.Faults {
		if sp.Proc < 0 || sp.Proc >= n {
			panic(fmt.Sprintf("rmr: fault %v: process out of range [0,%d)", sp, n))
		}
		if sp.Op < 1 {
			panic(fmt.Sprintf("rmr: fault %v: op must be >= 1 (1-based attempt index)", sp))
		}
		if sp.Delay < 0 {
			panic(fmt.Sprintf("rmr: fault %v: negative delay", sp))
		}
		switch sp.Kind {
		case FaultCrash, FaultStall, FaultRestart:
		default:
			panic(fmt.Sprintf("rmr: fault %v: kind %v is not injectable", sp, sp.Kind))
		}
	}
}

// Fault records one fault that occurred during a run: an injected crash or
// stall taking effect, a contained panic, or a watchdog violation. Gates
// accumulate them; read the log with Scheduler.Faults or Controller.Faults
// after the run.
type Fault struct {
	// Proc is the victim process id; -1 when a panic could not be
	// attributed (it unwound before the schedule started).
	Proc int
	Kind FaultKind
	// Op is the victim's 1-based operation-attempt index at the trigger.
	// For FaultStarvation it is the overtake count that crossed the bound.
	Op int
	// Step is the number of global steps granted when the fault struck.
	Step int64
	// Delay echoes the spec's stall/restart window for injected faults.
	Delay int
	// Value and Stack capture a contained panic.
	Value any
	Stack string
	// Schedule is the choice-index prefix recorded up to the fault when
	// schedule recording was active (it is, whenever a plan or watchdog is
	// installed): replay with ReplayPick under the same plan to reproduce
	// the execution step for step.
	Schedule []int
}

// String formats the fault record on one line.
func (f Fault) String() string {
	switch f.Kind {
	case FaultPanic:
		return fmt.Sprintf("panic in process %d at step %d (op %d): %v", f.Proc, f.Step, f.Op, f.Value)
	case FaultStarvation:
		return fmt.Sprintf("starvation: process %d overtaken %d times while doorway-complete (step %d)",
			f.Proc, f.Op, f.Step)
	default:
		return fmt.Sprintf("%s: process %d at its op %d (step %d, delay %d)",
			f.Kind, f.Proc, f.Op, f.Step, f.Delay)
	}
}

// Sentinel errors for fault-layer run failures. Run wraps them in a
// *FaultError; match with errors.Is.
var (
	// ErrPanicked reports that a simulated process panicked; the panic was
	// contained and converted into a Fault instead of crashing the host.
	ErrPanicked = errors.New("rmr: simulated process panicked")
	// ErrStarvation reports a liveness-watchdog violation: a
	// doorway-complete process was overtaken beyond the configured bound.
	ErrStarvation = errors.New("rmr: liveness watchdog: doorway-complete process overtaken beyond bound")
)

// FaultError is the run failure Scheduler.Run returns for a contained panic
// or a watchdog violation. It wraps ErrPanicked or ErrStarvation (never
// ErrStepLimit), so explorations report it as a property violation with a
// lexmin schedule rather than pruning it as a stall. After Run returns a
// FaultError the caller should release any parked processes exactly as for
// ErrStepLimit: deliver abort signals and call Drain (both are no-ops when
// every process already returned).
type FaultError struct {
	Fault    Fault
	sentinel error
}

// Error implements error.
func (e *FaultError) Error() string {
	if len(e.Fault.Schedule) > 0 {
		return fmt.Sprintf("%v [replay schedule %v]", e.Fault, e.Fault.Schedule)
	}
	return e.Fault.String()
}

// Unwrap exposes the sentinel (ErrPanicked or ErrStarvation).
func (e *FaultError) Unwrap() error { return e.sentinel }

// procCrash is the panic value an injected crash uses to unwind a process
// body; the gate's panic containment recognizes and swallows it. Any body
// defer still runs during the unwind — simulated crash-stop cannot suppress
// host-language defers — so bodies under crash testing should not register
// defers that mutate shared state.
type procCrash struct{ pid int }

// faultState is a gate's per-run fault bookkeeping, allocated only when a
// FaultPlan is installed so the fault-off path costs one nil check.
type faultState struct {
	specs      [][]FaultSpec // per-pid triggers
	ops        []int32       // per-pid operation attempts so far
	stallUntil []int         // per-pid global step before which it is ineligible (0 = none)
	numStalled int           // pids with an active stall window
	restartFn  []func()      // pending restart body per pid
	restartAt  []int         // global step at which to dispatch it
	pending    int           // pending restarts
	elig       []int         // scratch: eligible waiting pids
}

func newFaultState(n int, plan *FaultPlan) *faultState {
	f := &faultState{
		specs:      make([][]FaultSpec, n),
		ops:        make([]int32, n),
		stallUntil: make([]int, n),
		restartFn:  make([]func(), n),
		restartAt:  make([]int, n),
		elig:       make([]int, 0, n),
	}
	for _, sp := range plan.Faults {
		if sp.Kind == FaultRestart && plan.Restart == nil {
			sp.Kind = FaultCrash
		}
		f.specs[sp.Proc] = append(f.specs[sp.Proc], sp)
	}
	return f
}

// reset clears the per-run state, keeping the spec tables.
func (f *faultState) reset() {
	for i := range f.ops {
		f.ops[i] = 0
		f.stallUntil[i] = 0
		f.restartFn[i] = nil
		f.restartAt[i] = 0
	}
	f.numStalled = 0
	f.pending = 0
}

// wdState is the liveness watchdog's bookkeeping (see
// Scheduler.SetWatchdog), allocated only when a bound is set.
type wdState struct {
	waiting []bool  // pid has declared PhaseWaiting and not left it
	over    []int32 // CS entries by others since it did
}

func newWdState(n int) *wdState {
	return &wdState{waiting: make([]bool, n), over: make([]int32, n)}
}

func (w *wdState) reset() {
	for i := range w.waiting {
		w.waiting[i] = false
		w.over[i] = 0
	}
}
