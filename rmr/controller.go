package rmr

import "fmt"

// Controller is a Gate that a test drives by hand, one shared-memory step at
// a time. Unlike Scheduler, which owns the schedule, Controller lets the
// test decide exactly which process advances and by how many steps — the
// tool for reproducing the paper's "crossed paths" (⊤) interleavings.
//
//	c := rmr.NewController(2)
//	m := rmr.NewMemory(rmr.CC, 2, c)
//	c.Go(0, func() { ... })
//	c.Go(1, func() { ... })
//	c.Step(0)     // process 0 performs exactly one shared-memory operation
//	c.StepN(1, 3) // process 1 performs three
//	c.Finish(0, 1000) // run process 0 to completion (budget 1000 steps)
//	c.Wait()          // run the rest to completion, deterministically
//
// There is one gate: Controller is the hand-driven front end of a Scheduler
// whose run never starts. Its processes are the Scheduler's coroutines, so
// each parks at the gate before every operation and the test's Step resumes
// exactly one of them; faults, contained panics and the step clock live in
// the Scheduler too. A script therefore replays exactly, fault records
// included.
type Controller struct {
	s        *Scheduler
	launched []bool
}

var _ Gate = (*Controller)(nil)

// NewController creates a controller for processes with ids in [0, n).
func NewController(n int) *Controller {
	// The pick is never consulted: Run is never called, so every process
	// parks at the gate until Step resumes it.
	s := NewScheduler(n, nil)
	s.fs = newFaultState(n, &FaultPlan{})
	s.fs.ticks = make([]int, n)
	return &Controller{s: s, launched: make([]bool, n)}
}

// Await implements Gate.
func (c *Controller) Await(pid int) { c.s.Await(pid) }

// Go launches fn as process pid and runs it up to its first shared-memory
// operation, where it parks at the gate. fn must issue its shared-memory
// operations as Proc pid of a Memory gated by this controller. A panic
// inside fn — including an injected crash — retires the process, and a
// real panic is recorded as a FaultPanic of process pid, surfaced through
// Err, instead of killing the test binary.
func (c *Controller) Go(pid int, fn func()) {
	if c.launched[pid] {
		panic(fmt.Sprintf("rmr: process %d launched twice", pid))
	}
	c.launched[pid] = true
	c.s.start(pid, fn)
}

// parked reports whether process pid is parked at the gate: launched and
// not yet returned. Outside Step every live process is parked.
func (c *Controller) parked(pid int) bool {
	for _, q := range c.s.waiting {
		if q == pid {
			return true
		}
	}
	return false
}

// Step lets process pid perform exactly one shared-memory operation. It
// returns false if pid had already finished. While pid is inside a stall
// window (StallNext or a plan-scripted stall) the grant is consumed as a
// stall tick instead: the process stays parked at the gate, performs no
// operation, and Step still returns true.
func (c *Controller) Step(pid int) bool {
	if !c.parked(pid) {
		return false
	}
	s := c.s
	s.step++
	if s.fs.ticks[pid] > 0 {
		s.fs.ticks[pid]--
		return true
	}
	s.removeWaiting(pid)
	s.lastGranted = pid
	live := s.resumePid(pid, false)
	s.settle()
	return live
}

// StepN lets process pid perform up to n shared-memory operations,
// returning how many it performed before finishing.
func (c *Controller) StepN(pid, n int) int {
	for i := 0; i < n; i++ {
		if !c.Step(pid) {
			return i + 1
		}
	}
	return n
}

// FinishBudget runs process pid until it returns, reporting how many step
// grants (operations plus stall ticks) it consumed. If the process does
// not return within budget grants — a livelocked spin loop, a stall window
// larger than the budget — it returns an error wrapping ErrStepLimit, with
// the process left parked at the gate (deliver an abort signal and call it
// again, or fall through to Wait/WaitBudget).
func (c *Controller) FinishBudget(pid, budget int) (int, error) {
	for i := 0; i < budget; i++ {
		if !c.Step(pid) {
			return i + 1, nil
		}
	}
	if c.Finished(pid) {
		return budget, nil
	}
	return budget, fmt.Errorf("rmr: process %d did not finish within %d steps: %w", pid, budget, ErrStepLimit)
}

// Finish runs process pid until it returns, then reports the number of
// shared-memory steps it took. The budget guards against livelock; Finish
// panics if the process does not return within budget steps. FinishBudget
// is the error-returning form.
func (c *Controller) Finish(pid, budget int) int {
	n, err := c.FinishBudget(pid, budget)
	if err != nil {
		panic(err.Error())
	}
	return n
}

// WaitBudget drives every unfinished process round-robin — with the gate
// still closed — until all have returned or the total grant budget is
// exhausted, in which case it returns an error wrapping ErrStepLimit
// instead of hanging the way Wait does when a process livelocks in a spin
// loop. On error the survivors stay parked at the gate: deliver abort
// signals and call WaitBudget again, or abandon the controller. When all
// processes finish it returns Err — a contained panic still fails the run.
func (c *Controller) WaitBudget(budget int) error {
	for spent := 0; len(c.s.waiting) > 0; {
		for pid := range c.launched {
			if !c.parked(pid) {
				continue
			}
			if spent >= budget {
				return fmt.Errorf("rmr: %d process(es) still live after %d steps: %w", len(c.s.waiting), budget, ErrStepLimit)
			}
			c.Step(pid)
			spent++
		}
	}
	return c.Err()
}

// Wait runs every unfinished process to completion as a deterministic
// drain: the processes take turns in id order, one operation per turn,
// ignoring stall windows and scripted faults. Use it at the end of a
// scripted test when the remaining interleaving does not matter; it ends
// the script. Wait has no budget: a process that livelocks keeps it
// running forever — use WaitBudget when the code under test is not trusted
// to terminate. A panicking process does not block it (containment retires
// the process); check Err afterwards.
func (c *Controller) Wait() { c.s.Drain() }

// Finished reports whether process pid has returned.
func (c *Controller) Finished(pid int) bool {
	return c.launched[pid] && !c.parked(pid)
}

// SetFaultPlan installs a deterministic fault script (fault.go) keyed by
// per-process operation-attempt indices, mirroring Scheduler.SetFaultPlan.
// It must be called before any process is launched, and it replaces any
// crash scheduled with Crash. FaultRestart specs degrade to crash-stop:
// scripted tests model recovery explicitly with Restart. Passing nil clears
// the plan.
func (c *Controller) SetFaultPlan(plan *FaultPlan) {
	for pid := range c.launched {
		if c.launched[pid] {
			panic("rmr: SetFaultPlan after a process was launched")
		}
	}
	n := len(c.launched)
	specs := &FaultPlan{} // no Restart hook: FaultRestart degrades
	if plan != nil {
		plan.validate(n)
		specs.Faults = plan.Faults
	}
	ticks := c.s.fs.ticks
	c.s.fs = newFaultState(n, specs)
	c.s.fs.ticks = ticks
}

// Crash schedules a crash-stop for process pid at its next gated operation
// attempt: the attempt unwinds the process body instead of performing the
// operation, and the next Step observes the process finished. Call it
// before Go(pid) or while pid is parked at the gate (after one of its
// Steps): a parked process has already attempted the operation it waits
// before, so that operation still runs and the attempt after it crashes.
func (c *Controller) Crash(pid int) {
	f := c.s.fs
	f.specs[pid] = append(f.specs[pid], FaultSpec{Proc: pid, Kind: FaultCrash, Op: int(f.ops[pid]) + 1})
}

// StallNext opens (or extends) a stall window for process pid: its next d
// Step grants are consumed as stall ticks — the process stays parked at
// the gate, mid-protocol, performing no operation — before it can proceed.
// The scripted analogue of a FaultStall spec, for tests like
// "abort-while-stalled".
func (c *Controller) StallNext(pid, d int) {
	s := c.s
	s.fs.ticks[pid] += d
	s.recordFault(Fault{Proc: pid, Kind: FaultStall, Op: int(s.fs.ops[pid]), Step: int64(s.step), Delay: d})
}

// Stalled reports whether process pid has stall ticks pending.
func (c *Controller) Stalled(pid int) bool { return c.s.fs.ticks[pid] > 0 }

// Restart relaunches a finished (typically crashed) process with a new body
// under the same pid — the scripted analogue of FaultPlan.Restart, for
// RME-style recovery scripts. Like Go, it runs the body up to its first
// operation. The restarted process's operation attempts keep counting from
// where the crashed incarnation stopped.
func (c *Controller) Restart(pid int, fn func()) {
	if !c.Finished(pid) {
		panic(fmt.Sprintf("rmr: Restart(%d): process has not finished", pid))
	}
	c.s.start(pid, fn)
}

// Faults returns a copy of the faults recorded so far, in occurrence order.
func (c *Controller) Faults() []Fault { return c.s.Faults() }

// Err returns the failure recorded so far — the *FaultError for a contained
// panic — or nil.
func (c *Controller) Err() error { return c.s.Err() }
