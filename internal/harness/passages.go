package harness

import (
	"errors"
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

// The two rules every finished passage must satisfy (Theorem 2), each
// reported by PassageLog.Pass with the process's id.
var (
	// ErrUndeclaredCS: Enter returned true without declaring rmr.PhaseCS,
	// so the Scheduler's mutual-exclusion check cannot see the critical
	// section.
	ErrUndeclaredCS = errors.New("Enter returned true without declaring rmr.PhaseCS")
	// ErrUnsignalledAbort: Enter returned false although the process holds
	// no abort signal — an attempt abandons only when signalled.
	ErrUnsignalledAbort = errors.New("Enter returned false without an abort signal")
)

// PassageLog is the one recorder of simulated passages: every driver — the
// seeded Passages, the exhaustive body, the gated Table 1 workloads, Churn,
// MultiPassage and the conformance battery's scripts — runs a passage
// through Pass, which costs it and judges it. A crashed or panicked
// process never returns from its passage, so it is never recorded.
//
// The slices are indexed by process id. A gated PickFunc may read Entered
// and Done: picks happen only while every live process waits at the gate.
type PassageLog struct {
	// Entered reports that a passage of the process entered the critical
	// section (set before its Exit runs); Done that a passage returned.
	Entered, Done []bool
	// RMRs, Sim and ExitRMRs are the last passage's RMRs, simulated time
	// and the RMRs of its Exit.
	RMRs, Sim, ExitRMRs []int64
	err                 error
}

// NewPassageLog returns a recorder for processes [0, n).
func NewPassageLog(n int) *PassageLog {
	return &PassageLog{
		Entered: make([]bool, n), Done: make([]bool, n),
		RMRs: make([]int64, n), Sim: make([]int64, n), ExitRMRs: make([]int64, n),
	}
}

// Pass runs one Enter/CS/Exit passage of p through its handle h, records
// it, and reports whether it entered. A passage that breaks a rule is
// kept as the log's Err if it is the first.
func (l *PassageLog) Pass(p *rmr.Proc, h Handle) bool {
	i := p.ID()
	rmrs, sim := p.RMRs(), p.SimTime()
	ok := h.Enter()
	if ok {
		if p.Phase() != rmr.PhaseCS {
			l.fail(i, ErrUndeclaredCS)
		}
		l.Entered[i] = true
		exit := p.RMRs()
		h.Exit()
		l.ExitRMRs[i] = p.RMRs() - exit
	} else if !p.AbortSignal() {
		l.fail(i, ErrUnsignalledAbort)
	}
	l.RMRs[i] = p.RMRs() - rmrs
	l.Sim[i] = p.SimTime() - sim
	l.Done[i] = true
	return ok
}

func (l *PassageLog) fail(i int, rule error) {
	if l.err == nil {
		l.err = fmt.Errorf("process %d: %w", i, rule)
	}
}

// Err returns the first rule a recorded passage broke, or nil.
func (l *PassageLog) Err() error { return l.err }

// reset forgets every recorded passage, for a log reused across runs.
func (l *PassageLog) reset() {
	clear(l.Entered)
	clear(l.Done)
	l.err = nil
}

// Passages is the seeded passage driver: it runs one passage per process
// of m under s and returns which processes entered the critical section
// and the run's verdict. The caller builds the lock in m and configures
// the memory (stats, tracer, cost model) and the scheduler (pick function,
// fault plan, watchdog, schedule recording) beforehand; Passages gates m
// with s and runs at most budget steps. Processes in [0, aborters) hold
// their abort signal before they start.
//
// The verdict is the run's own failure (a step-limit stall, or a violation
// the Scheduler caught, such as rmr.ErrMutualExclusion, wrapped), after
// which the run is unwound with DrainKill, or else the first broken
// passage rule (ErrUndeclaredCS, ErrUnsignalledAbort).
func Passages(s *rmr.Scheduler, m *rmr.Memory, fn HandleFn, aborters, budget int) (entered []bool, err error) {
	l := NewPassageLog(m.NumProcs())
	return l.Entered, l.passages(s, m, fn, aborters, budget)
}

// passages runs one passage per process of m through l, as Passages does.
func (l *PassageLog) passages(s *rmr.Scheduler, m *rmr.Memory, fn HandleFn, aborters, budget int) error {
	return l.run(m, s, budget, func(i int) func() {
		p := m.Proc(i)
		if i < aborters {
			p.SignalAbort()
		}
		h := fn(p)
		return func() { l.Pass(p, h) }
	})
}

// run launches the processes of a driver whose bodies record through l
// (runScheduled) and returns the run's failure, or else the first broken
// passage rule.
func (l *PassageLog) run(m *rmr.Memory, s *rmr.Scheduler, budget int, body func(i int) func()) error {
	if err := runScheduled(m, s, budget, body); err != nil {
		return fmt.Errorf("schedule failed: %w", err)
	}
	return l.err
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
