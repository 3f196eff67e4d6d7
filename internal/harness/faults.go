package harness

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync/atomic"

	"sublock/rmr"
)

// ParseFaults parses the CLI fault syntax — comma-separated
// "kind:pid@op[+delay]" specs, e.g. "crash:0@4,stall:1@2+15" — into a
// fault plan. Kinds are "crash" and "stall" (a stall requires a +delay
// window); restart faults need a recovery body and are scripted in code
// via rmr.FaultPlan.Restart. An empty spec yields a nil plan.
func ParseFaults(spec string) (*rmr.FaultPlan, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "none" {
		return nil, nil
	}
	var plan rmr.FaultPlan
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		kindStr, rest, ok := strings.Cut(field, ":")
		if !ok {
			return nil, fmt.Errorf("fault %q: want kind:pid@op[+delay]", field)
		}
		var kind rmr.FaultKind
		switch kindStr {
		case "crash":
			kind = rmr.FaultCrash
		case "stall":
			kind = rmr.FaultStall
		default:
			return nil, fmt.Errorf("fault %q: unknown kind %q (want crash or stall)", field, kindStr)
		}
		pidStr, rest, ok := strings.Cut(rest, "@")
		if !ok {
			return nil, fmt.Errorf("fault %q: missing @op", field)
		}
		opStr, delayStr, hasDelay := strings.Cut(rest, "+")
		pid, err := strconv.Atoi(pidStr)
		if err != nil || pid < 0 {
			return nil, fmt.Errorf("fault %q: bad process id %q", field, pidStr)
		}
		op, err := strconv.Atoi(opStr)
		if err != nil || op < 1 {
			return nil, fmt.Errorf("fault %q: bad operation index %q (1-based)", field, opStr)
		}
		sp := rmr.FaultSpec{Proc: pid, Kind: kind, Op: op}
		if hasDelay {
			sp.Delay, err = strconv.Atoi(delayStr)
			if err != nil || sp.Delay < 1 {
				return nil, fmt.Errorf("fault %q: bad delay %q", field, delayStr)
			}
		}
		if kind == rmr.FaultStall && sp.Delay == 0 {
			return nil, fmt.Errorf("fault %q: a stall needs a +delay window", field)
		}
		plan.Faults = append(plan.Faults, sp)
	}
	return &plan, nil
}

// ParseCrashPoints parses the -crash-points CLI syntax — comma-separated
// 1-based operation attempts, e.g. "1,2,3,5,8" — into the explicit Ops
// list of an rmr.FaultSet.
func ParseCrashPoints(spec string) ([]int, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	var ops []int
	for _, field := range strings.Split(spec, ",") {
		op, err := strconv.Atoi(strings.TrimSpace(field))
		if err != nil || op < 1 {
			return nil, fmt.Errorf("crash point %q: want a 1-based operation attempt", field)
		}
		ops = append(ops, op)
	}
	return ops, nil
}

// FaultBody returns the fault-tolerant variant of ExhaustiveBody: the same
// one-passage-per-process run, with the Theorem 2 completion property
// weakened to survivors only — a process the installed fault plan crashed
// (or that a restart replaced) is exempt from the "every non-aborter
// completes" check, which the body derives from the scheduler's fault log
// rather than from the plan, so only faults that actually fired count.
// Mutual exclusion remains unconditional: a crash may abandon a queue slot
// but must never let two survivors into the critical section.
//
// The body does not install a plan itself; the caller arms the scheduler
// (rmr.Explorer.RunFaults, or SetFaultPlan for a seeded run).
func FaultBody(model rmr.Model, algo Algo, w, n, aborters int) rmr.Body {
	return func(s *rmr.Scheduler, budget int) error {
		nprocs := n
		if aborters > 0 {
			nprocs++
		}
		m := replayMemory(model, nprocs)
		defer recycleMemory(m)
		fn, err := Build(m, algo, w, n)
		if err != nil {
			return err
		}
		m.SetGate(s)
		var inCS, violations atomic.Int32
		entered := make([]bool, n)
		for i := 0; i < n; i++ {
			i := i
			h := fn(m.Proc(i))
			s.GoProc(i, func() {
				if h.Enter() {
					if inCS.Add(1) > 1 {
						violations.Add(1)
					}
					entered[i] = true
					inCS.Add(-1)
					h.Exit()
				}
			})
		}
		if aborters > 0 {
			p := m.Proc(nprocs - 1)
			scratch := m.Alloc(0)
			s.GoProc(nprocs-1, func() {
				p.Read(scratch)
				for v := 0; v < aborters; v++ {
					m.Proc(v).SignalAbort()
				}
			})
		}
		if err := s.Run(budget); err != nil {
			// A crash can wedge survivors beyond cooperation (a non-abortable
			// spin loop over an abandoned lock never exits), so the stalled
			// run is killed rather than drained.
			s.DrainKill()
			return err
		}
		if violations.Load() != 0 {
			return fmt.Errorf("mutual exclusion violated")
		}
		gone := make(map[int]bool)
		for _, flt := range s.Faults() {
			switch flt.Kind {
			case rmr.FaultCrash, rmr.FaultRestart, rmr.FaultPanic:
				gone[flt.Proc] = true
			}
		}
		for i := aborters; i < n; i++ {
			if !entered[i] && !gone[i] {
				return fmt.Errorf("process %d starved", i)
			}
		}
		return nil
	}
}

// Faults extends ExploreConfig with the fault-injection knobs of
// ExploreFaults: the crash-point space to branch over and the starvation
// watchdog bound.
type Faults struct {
	// CrashPoints are the 1-based operation attempts at which each victim
	// is crashed (rmr.FaultSet.Ops); empty means attempt 1 only.
	CrashPoints []int
	// MaxCrashes caps crashes per plan; 0 means 1.
	MaxCrashes int
	// Victims lists candidate crash victims; nil means every process
	// (including the abort-signal process when Aborters > 0).
	Victims []int
	// Watchdog, when > 0, arms the starvation watchdog at that overtaking
	// bound for every explored schedule (forces reduction off).
	Watchdog int
}

// ExploreFaults runs the crash-robustness exploration: FaultBody under
// every crash plan in the configured space (fault-free baseline first),
// via rmr.Explorer.RunFaults. cfg's Reduction stays sound because the
// plans are crash-only; f.Watchdog > 0 forces it off. A violation
// surfaces as *rmr.ErrFaultExplore carrying the plan and lexmin schedule.
func ExploreFaults(cfg ExploreConfig, f Faults) (rmr.Result, []rmr.FaultRun, error) {
	e := &rmr.Explorer{
		MaxSteps:     cfg.MaxSteps,
		MaxSchedules: cfg.MaxSchedules,
		Workers:      cfg.Workers,
		Reduction:    cfg.Reduction,
		Monitor:      cfg.Monitor,
		Watchdog:     f.Watchdog,
	}
	body := FaultBody(cfg.Model, cfg.Algo, cfg.W, cfg.N, cfg.Aborters)
	fs := rmr.FaultSet{MaxCrashes: f.MaxCrashes, Ops: f.CrashPoints, Procs: f.Victims}
	return e.RunFaults(cfg.Procs(), body, fs)
}

// WriteFaultReport renders a fault log and the run's replay schedule in
// the fixed format the CLIs and the conformance battery share: one
// attributed line per fault, then the schedule that reproduces the run.
// A wedged run's schedule is dominated by a megastep spin tail that would
// swamp any log, so schedules past reportScheduleCap are truncated — the
// prefix up to the last fault is what matters for diagnosis, and every
// fault's own Schedule field retains its full replay prefix.
func WriteFaultReport(w io.Writer, faults []rmr.Fault, schedule []int) {
	const reportScheduleCap = 1 << 16
	if len(faults) == 0 {
		fmt.Fprintln(w, "no faults recorded")
	}
	for _, flt := range faults {
		fmt.Fprintf(w, "fault: %v\n", flt)
	}
	switch {
	case len(schedule) > reportScheduleCap:
		fmt.Fprintf(w, "replay schedule (first %d of %d choices): %v …\n",
			reportScheduleCap, len(schedule), schedule[:reportScheduleCap])
	case len(schedule) > 0:
		fmt.Fprintf(w, "replay schedule: %v\n", schedule)
	}
}
