package conformance

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"sublock/internal/harness"
	"sublock/locks"
	"sublock/rmr"
)

// stallWindow is the stall duration (in global steps) the stall and
// abort-while-stalled checks inject.
const stallWindow = 400

// crashPoints are the victim operation attempts the crash sweep strikes:
// early doorway operations, the spin loop, and deep into the passage.
var crashPoints = []int{1, 2, 3, 5, 8, 13}

// TestFaults runs the fault-injection battery for one registered lock as
// subtests of t, once per supported memory model: crash-stop sweeps, stall
// windows, panic containment, abort-while-stalled responsiveness, and
// watchdog-clean seeded runs. Registering a lock opts it in, exactly like
// the seeded battery in Test.
func TestFaults(t *testing.T, info locks.Info) {
	for _, model := range Models(info) {
		model := model
		t.Run(strings.ToLower(model.String()), func(t *testing.T) {
			t.Run("crash", func(t *testing.T) { testCrashSweep(t, info, model) })
			t.Run("stall", func(t *testing.T) { testStallAll(t, info, model) })
			t.Run("panic", func(t *testing.T) { testPanicContained(t, info, model) })
			t.Run("crash-keeps-phase", func(t *testing.T) { testCrashKeepsPhase(t, info, model) })
			if info.Abortable {
				t.Run("abort-while-stalled", func(t *testing.T) { testAbortWhileStalled(t, info, model) })
			}
			t.Run("watchdog-clean", func(t *testing.T) { testWatchdogClean(t, info, model) })
		})
	}
}

// runFaulted drives one seeded run of nprocs single passages through
// harness.Passages with configure applied to the scheduler (fault plan,
// watchdog) before any process launches, and returns the scheduler, for
// its fault log and recorded schedule, and the run's verdict for the
// caller to classify. A failed run has already been unwound.
func runFaulted(t *testing.T, info locks.Info, model rmr.Model, nprocs int, seed int64, configure func(*rmr.Scheduler)) (*rmr.Scheduler, error) {
	t.Helper()
	s := rmr.NewScheduler(nprocs, rmr.RandomPick(seed))
	s.RecordSchedule(true)
	configure(s)
	m := rmr.NewMemory(model, nprocs, nil)
	fn, err := locks.Build(m, info.Name, defaultW, nprocs)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	_, err = harness.Passages(s, m, fn, 0, harness.FaultStepBudget(nprocs))
	return s, err
}

// testCrashSweep crashes process 0 at each crash point of its passage. A
// clean finish must show every survivor completing (harness.Passages
// exempts only a process the fault log shows crashed); a wedged finish
// (the crash abandoned state the survivors need) must degrade to the step
// budget with the crash attributed — and must only happen when the crash
// actually fired.
func testCrashSweep(t *testing.T, info locks.Info, model rmr.Model) {
	const nprocs = 6
	for _, op := range crashPoints {
		plan := &rmr.FaultPlan{Faults: []rmr.FaultSpec{{Proc: 0, Kind: rmr.FaultCrash, Op: op}}}
		s, err := runFaulted(t, info, model, nprocs, 1, func(s *rmr.Scheduler) { s.SetFaultPlan(plan) })
		if err == nil {
			continue
		}
		faults := s.Faults()
		if !errors.Is(err, rmr.ErrStepLimit) {
			dumpArtifact(t, faults, s.Schedule())
			t.Fatalf("crash at op %d: %v", op, err)
		}
		if len(faults) != 1 {
			dumpArtifact(t, faults, s.Schedule())
			t.Fatalf("crash at op %d: schedule wedged with no injected fault fired: %v", op, err)
		}
		if len(faults[0].Schedule) == 0 {
			t.Fatalf("crash at op %d: attributed fault carries no replay schedule", op)
		}
	}
}

// testStallAll stalls every process at its first operation with staggered
// windows: stalls delay but never kill, so the run must terminate with
// every passage complete and every stall attributed.
func testStallAll(t *testing.T, info locks.Info, model rmr.Model) {
	const nprocs = 4
	plan := &rmr.FaultPlan{}
	for i := 0; i < nprocs; i++ {
		plan.Faults = append(plan.Faults, rmr.FaultSpec{
			Proc: i, Kind: rmr.FaultStall, Op: 1, Delay: (i + 1) * (stallWindow / nprocs),
		})
	}
	s, err := runFaulted(t, info, model, nprocs, 1, func(s *rmr.Scheduler) { s.SetFaultPlan(plan) })
	if err != nil {
		dumpArtifact(t, s.Faults(), s.Schedule())
		t.Fatalf("stalled run failed (a stall must only delay): %v", err)
	}
	if faults := s.Faults(); len(faults) != nprocs {
		t.Fatalf("%d stalls attributed, want %d: %v", len(faults), nprocs, faults)
	}
}

// testPanicContained injects a panic inside process 0's critical section:
// the host test binary must survive, the run must end with a *rmr.FaultError
// attributing the panic to process 0 with a replayable schedule, and the
// gate must not deadlock even though the lock is never released.
func testPanicContained(t *testing.T, info locks.Info, model rmr.Model) {
	const nprocs = 3
	s := rmr.NewScheduler(nprocs, rmr.RandomPick(2))
	s.RecordSchedule(true)
	m := rmr.NewMemory(model, nprocs, nil)
	fn, err := locks.Build(m, info.Name, defaultW, nprocs)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	m.SetGate(s)
	for i := 0; i < nprocs; i++ {
		h := fn(m.Proc(i))
		if i == 0 {
			s.Go(func() {
				if h.Enter() {
					panic("injected CS panic")
				}
			})
			continue
		}
		s.Go(func() {
			if h.Enter() {
				h.Exit()
			}
		})
	}
	runErr := s.Run(harness.FaultStepBudget(nprocs))
	if runErr != nil {
		s.DrainKill()
	}
	if !errors.Is(runErr, rmr.ErrPanicked) {
		dumpArtifact(t, s.Faults(), s.Schedule())
		t.Fatalf("Run = %v, want a contained panic", runErr)
	}
	var fe *rmr.FaultError
	if !errors.As(runErr, &fe) {
		t.Fatalf("Run = %T, want *rmr.FaultError", runErr)
	}
	if fe.Fault.Proc != 0 || fe.Fault.Value != "injected CS panic" {
		t.Fatalf("fault = %+v, want the injected panic attributed to process 0", fe.Fault)
	}
	if len(fe.Fault.Schedule) == 0 {
		t.Fatal("contained panic carries no replay schedule")
	}
}

// testCrashKeepsPhase crashes a lone process at its second exit operation:
// the crash must leave it in PhaseExit, not run the passage's end. A
// crashed process keeps the phase it declared last, for every lock alike
// (docs/FAULTS.md), which is what makes a crashed holder hold. A lock
// whose exit takes fewer than two operations finishes before the crash
// can strike.
func testCrashKeepsPhase(t *testing.T, info locks.Info, model rmr.Model) {
	c := rmr.NewController(1)
	m := rmr.NewMemory(model, 1, nil)
	fn, err := locks.Build(m, info.Name, defaultW, 1)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	m.SetGate(c)
	p, h := m.Proc(0), fn(m.Proc(0))
	c.Go(0, func() {
		if h.Enter() {
			h.Exit()
		}
	})
	for i := 0; i < abortBudget && p.Phase() != rmr.PhaseExit; i++ {
		if !c.Step(0) {
			return // the passage ended without parking in its exit
		}
	}
	c.Crash(0) // strikes the attempt after the one parked at the gate
	c.Finish(0, abortBudget)
	if faults := c.Faults(); len(faults) == 0 {
		return
	}
	if ph := p.Phase(); ph != rmr.PhaseExit {
		t.Fatalf("phase after a crash in the exit protocol = %v, want %v", ph, rmr.PhaseExit)
	}
}

// testAbortWhileStalled is the satellite coverage gap: an abort signal
// delivered while the waiter sits inside an injected stall window must
// still be honored within the abort budget once the window passes — the
// stall must not break abort responsiveness.
func testAbortWhileStalled(t *testing.T, info locks.Info, model rmr.Model) {
	const n = 2
	c := rmr.NewController(n)
	m := rmr.NewMemory(model, n, nil)
	fn, err := locks.Build(m, info.Name, defaultW, n)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	m.SetGate(c)
	h0, h1 := fn(m.Proc(0)), fn(m.Proc(1))

	// The holder pauses inside the critical section, keeping the lock held.
	var holderIn atomic.Bool
	var waiterEntered bool
	c.Go(0, func() {
		if h0.Enter() {
			holderIn.Store(true)
			h0.Exit()
		}
	})
	for i := 0; i < abortBudget && !holderIn.Load(); i++ {
		if !c.Step(0) {
			break
		}
	}
	if !holderIn.Load() {
		t.Fatal("uncontended holder failed to enter")
	}

	// The waiter enqueues, spins, and is then stalled; the abort signal
	// lands inside the window.
	c.Go(1, func() {
		waiterEntered = h1.Enter()
		if waiterEntered {
			h1.Exit()
		}
	})
	c.StepN(1, 200)
	c.StallNext(1, stallWindow)
	if !c.Stalled(1) {
		t.Fatal("waiter not stalled after StallNext")
	}
	m.Proc(1).SignalAbort()

	steps, err := c.FinishBudget(1, stallWindow+abortBudget)
	if err != nil {
		t.Fatalf("stalled aborter did not return: %v", err)
	}
	if steps < stallWindow {
		t.Fatalf("aborter finished in %d grants, want >= the %d-step stall window first", steps, stallWindow)
	}
	if waiterEntered {
		t.Fatal("waiter entered the CS despite an abort signal against a held lock")
	}
	if faults := c.Faults(); len(faults) != 1 || faults[0].Kind != rmr.FaultStall {
		t.Fatalf("faults = %v, want the injected stall attributed", faults)
	}

	if _, err := c.FinishBudget(0, abortBudget); err != nil {
		t.Fatalf("holder's Exit did not complete: %v", err)
	}
	if err := c.WaitBudget(abortBudget); err != nil {
		t.Fatalf("WaitBudget: %v", err)
	}
}

// testWatchdogClean runs seeded passages with the starvation watchdog
// armed at a bound no single-passage workload can legitimately cross
// (each process enters the critical section once, so a waiter is overtaken
// at most nprocs-1 times): the watchdog must stay silent, and every
// process must complete.
func testWatchdogClean(t *testing.T, info locks.Info, model rmr.Model) {
	const nprocs = 6
	for seed := int64(0); seed < 3; seed++ {
		s, err := runFaulted(t, info, model, nprocs, seed, func(s *rmr.Scheduler) { s.SetWatchdog(nprocs + 2) })
		if err != nil {
			dumpArtifact(t, s.Faults(), s.Schedule())
			t.Fatalf("seed %d: watchdog-armed run failed: %v", seed, err)
		}
	}
}

// dumpArtifact writes the fault report and replay schedule to
// $SUBLOCK_FAULT_DIR (one file per failing test, named after the test) so
// CI can upload fault-replay artifacts; it is a no-op when the variable is
// unset.
func dumpArtifact(t *testing.T, faults []rmr.Fault, schedule []int) {
	dir := os.Getenv("SUBLOCK_FAULT_DIR")
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("fault artifact: %v", err)
		return
	}
	var b strings.Builder
	for _, flt := range faults {
		fmt.Fprintf(&b, "fault: %v\n", flt)
	}
	fmt.Fprintf(&b, "replay schedule: %v\n", schedule)
	name := strings.NewReplacer("/", "_", " ", "_").Replace(t.Name()) + ".txt"
	if err := os.WriteFile(filepath.Join(dir, name), []byte(b.String()), 0o644); err != nil {
		t.Logf("fault artifact: %v", err)
	}
}
