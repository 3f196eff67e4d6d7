package harness

import (
	"fmt"
	"io"
	"strconv"
	"strings"

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

// ExploreFaults runs the crash-robustness exploration: ExhaustiveBody under
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
	body := ExhaustiveBody(cfg.Model, cfg.Algo, cfg.W, cfg.N, cfg.Aborters)
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
