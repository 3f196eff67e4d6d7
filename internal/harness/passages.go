package harness

import (
	"fmt"

	"sublock/rmr"
)

// StepBudget bounds a seeded schedule; exceeding it is a termination
// failure.
const StepBudget = 100_000_000

// FaultStepBudget bounds a seeded schedule of n processes under a fault
// plan or the starvation watchdog, both of which record the schedule. A
// crash can legitimately wedge the survivors — no registered lock claims
// crash recovery, so a victim that dies holding the lock (or mid-queue)
// may block its successors forever — and such a run must degrade to a
// prompt step-limit error with the fault attributed, not record
// StepBudget steps (800 MB of schedule per wedged seed). The steps a
// fault-free seeded run needs grow with n², the waiters' spinning under
// a random pick: at most about 5.5·n² for every registered lock from
// n = 32 to 256 (paper-longlived-bounded the most). The budget is four
// times that, and at least 300,000 steps.
func FaultStepBudget(n int) int { return max(300_000, 22*n*n) }

// Passages is the seeded passage driver: it runs one Enter/CS/Exit passage
// per process of m under s and checks the Theorem 2 properties of the run.
// For each process in id order it delivers the abort signal (to ids in
// [0, aborters)), binds the process's handle from fn and launches the
// passage, so every aborter holds its signal before it starts. The caller
// builds the lock in m and configures the memory (stats, tracer, cost
// model) and the scheduler (pick function, fault plan, watchdog, schedule
// recording) beforehand; Passages gates m with s and runs at most budget
// steps.
//
// It returns which processes entered the critical section and the first
// property the run violated: the run's own failure (a step-limit stall,
// or a violation the Scheduler caught, such as rmr.ErrMutualExclusion,
// wrapped), after which the run is unwound with DrainKill; a successful
// Enter that did not declare rmr.PhaseCS; or a process outside
// [0, aborters) that never entered although the fault log does not show
// it crashed.
func Passages(s *rmr.Scheduler, m *rmr.Memory, fn HandleFn, aborters, budget int) (entered []bool, err error) {
	pl := passageLog{entered: make([]bool, m.NumProcs()), undeclared: -1}
	err = runScheduled(m, s, budget, func(i int) func() {
		p := m.Proc(i)
		if i < aborters {
			p.SignalAbort()
		}
		h := fn(p)
		return func() { pl.pass(p, h, i) }
	})
	if err != nil {
		return pl.entered, fmt.Errorf("schedule failed: %w", err)
	}
	return pl.entered, pl.verdict(aborters, s.Faults())
}

// runScheduled gates m with s, launches body(i) as process i for every
// process of m in id order, and drives the schedule within budget steps.
// It is the harness's one launcher of concurrent runs. A failed run — a
// stall, or a violation the Scheduler caught — is unwound with DrainKill
// and its error returned: a process that spins forever and ignores its
// abort signal would never finish a drain, and nothing reads a failed
// run's state.
func runScheduled(m *rmr.Memory, s *rmr.Scheduler, budget int, body func(i int) func()) error {
	m.SetGate(s)
	for i := 0; i < m.NumProcs(); i++ {
		s.Go(body(i))
	}
	if err := s.Run(budget); err != nil {
		s.DrainKill()
		return err
	}
	return nil
}

// passageLog records the passages of one run for its verdict: which
// processes entered, and the first whose successful Enter did not declare
// rmr.PhaseCS (-1 for none). Passages and the exhaustive body share it.
type passageLog struct {
	entered    []bool
	undeclared int
}

// pass runs process i's passage through its handle h.
func (l *passageLog) pass(p *rmr.Proc, h Handle, i int) {
	if h.Enter() {
		if p.Phase() != rmr.PhaseCS && l.undeclared < 0 {
			l.undeclared = i
		}
		l.entered[i] = true
		h.Exit()
	}
}

// verdict returns the first property a run that the Scheduler let finish
// violated: a successful Enter outside rmr.PhaseCS — without the
// declaration the Scheduler's mutual-exclusion check cannot see the
// critical section — or a process in [aborters, len(entered)) that never
// entered and that faults does not show crashed.
func (l *passageLog) verdict(aborters int, faults []rmr.Fault) error {
	if l.undeclared >= 0 {
		return fmt.Errorf("process %d: Enter returned true without declaring rmr.PhaseCS", l.undeclared)
	}
	for i := aborters; i < len(l.entered); i++ {
		if !l.entered[i] && !crashed(faults, i) {
			return fmt.Errorf("non-aborting process %d never entered", i)
		}
	}
	return nil
}

// crashed reports whether the fault log shows pid crashed, replaced by a
// restart, or unwound by a contained panic.
func crashed(faults []rmr.Fault, pid int) bool {
	for _, flt := range faults {
		switch flt.Kind {
		case rmr.FaultCrash, rmr.FaultRestart, rmr.FaultPanic:
			if flt.Proc == pid {
				return true
			}
		}
	}
	return false
}
