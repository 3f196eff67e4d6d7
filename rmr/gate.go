package rmr

import (
	"errors"
	"math/rand"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Gate serializes shared-memory steps. Before every shared-memory operation
// a process calls Await with its id and blocks until the gate grants it the
// step. Gates turn concurrent executions into explicit interleavings, making
// failures reproducible and adversarial schedules expressible.
type Gate interface {
	Await(pid int)
}

// ErrStepLimit is returned by Scheduler.Run when the schedule exceeds the
// step budget, which usually indicates a liveness bug (or a workload that
// needs a larger budget).
var ErrStepLimit = errors.New("rmr: scheduler step limit exceeded")

// PickFunc selects which waiting process takes the next step. It receives
// the global step number and the ids of all processes currently waiting at
// the gate — sorted by process id, so that a choice index denotes the same
// process in every run that made the same prior choices (the property the
// Explorer's replay soundness rests on) — and returns an index into that
// slice. Returning a negative index declines to schedule anything: the run
// ends as if the step budget were exhausted (Run returns ErrStepLimit, and
// the caller drains as usual). The Explorer's partial-order reduction uses
// this to cut schedules whose continuations are all equivalent to
// schedules explored elsewhere.
type PickFunc func(step int, waiting []int) int

// RandomPick returns a PickFunc that chooses uniformly at random with the
// given seed. The same seed always reproduces the same schedule for the
// same program.
func RandomPick(seed int64) PickFunc {
	rng := rand.New(rand.NewSource(seed))
	return func(_ int, waiting []int) int {
		return rng.Intn(len(waiting))
	}
}

// RoundRobinPick returns a PickFunc that cycles through process ids,
// granting the lowest-id waiting process that is strictly greater than the
// last scheduled id, wrapping around when none is.
func RoundRobinPick() PickFunc {
	last := -1
	return func(_ int, waiting []int) int {
		best, bestWrap := -1, -1
		for i, pid := range waiting {
			if pid > last && (best == -1 || pid < waiting[best]) {
				best = i
			}
			if bestWrap == -1 || pid < waiting[bestWrap] {
				bestWrap = i
			}
		}
		if best == -1 {
			best = bestWrap
		}
		last = waiting[best]
		return best
	}
}

// PreferPick returns a PickFunc that always grants a process from preferred
// when one is waiting, falling back to fallback otherwise. It is the
// building block for adversarial schedules ("run the aborter until it is
// stuck, then let the exiter proceed").
func PreferPick(preferred []int, fallback PickFunc) PickFunc {
	pref := make(map[int]bool, len(preferred))
	for _, pid := range preferred {
		pref[pid] = true
	}
	return func(step int, waiting []int) int {
		for i, pid := range waiting {
			if pref[pid] {
				return i
			}
		}
		return fallback(step, waiting)
	}
}

// Scheduler is a Gate driven by a PickFunc. Typical use:
//
//	s := rmr.NewScheduler(n, rmr.RandomPick(seed))
//	m := rmr.NewMemory(rmr.CC, n, s)
//	for i := 0; i < n; i++ { s.Go(func() { body(m.Proc(i)) }) }
//	err := s.Run(maxSteps)
//
// Run drives the interleaving until every process launched with Go has
// returned, or the step budget is exhausted.
//
// Process bodies run as coroutines driven by the goroutine that calls Go,
// Run or Drain (coro.go), so exactly one process runs at any time and no
// step costs a Go-scheduler handoff. A process that reaches the gate while
// every other live process waits there is at a quiescent point: it
// consults the PickFunc itself over the id-sorted waiting set. A
// self-grant keeps it running with no switch at all; otherwise it records
// the chosen pid and yields to the driver, which resumes that pid. A
// returning process arbitrates the same way on its way out. Go runs a body
// up to its first operation before returning; GoProc defers the whole body
// until the schedule first grants it a step.
type Scheduler struct {
	pick  PickFunc
	open  atomic.Bool
	kill  atomic.Bool  // DrainKill: unwind drained processes at their next operation
	clock atomic.Int64 // steps granted so far; see Steps

	// acc, when non-nil, is the per-step access log the Explorer's
	// partial-order reduction reads: entry i is the memory footprint of
	// step i, cleared to unknown at grant time and filled in by the granted
	// operation via noteAccess. Only the running process writes between
	// grants, so entries need no lock.
	acc []stepAccess

	// hist, when non-nil, is the per-process observation-history hash the
	// Explorer's visited-state reduction maintains: entry pid folds in the
	// address, result and abort-flag observation of every operation pid has
	// performed, via noteResult. For a deterministic body that history pins
	// the process's control state, which is what lets a fingerprint of
	// (memory, histories, signals) stand in for "same global state". Like
	// acc, only the running process writes its own entry between grants.
	// mem is the Memory whose state the fingerprint walks, attached by
	// SetGate so the pick callback can reach it at quiescent points.
	hist []uint64
	mem  *Memory

	mu       sync.Mutex
	waiting  []int // pids blocked at the gate, sorted ascending
	release  []int // Drain's scratch: the processes it still runs
	launched int   // processes started with Go or GoProc
	live     int   // launched minus returned
	started  bool  // Run has been called
	step     int
	maxSteps int
	stalled  bool // the run ended on an exhausted budget or a declined pick

	// Fault injection and liveness watchdog (fault.go). plan/fs are non-nil
	// only when SetFaultPlan installed a plan, wd only when SetWatchdog set
	// a bound, so the fault-off hot path pays a nil check per operation and
	// nothing else. picks counts PickFunc consultations — it equals step
	// except across a stall fast-forward, which burns steps without a
	// choice, and it is what PickFunc and the recorded schedule index by so
	// replays stay aligned under faults. All fields below are guarded by mu,
	// except fs.ops, which only the running process writes.
	plan        *FaultPlan
	fs          *faultState
	wdBound     int
	wd          *wdState
	recording   bool    // log choice indices into sched
	sched       []int   // recorded choice-index prefix of the current run
	picks       int     // choices made so far
	lastGranted int     // pid holding the step token; -1 before the first grant
	faults      []Fault // fault log, in occurrence order
	failure     *FaultError
	stopRun     bool // watchdog force-stop: end the run at the next grant

	// Deferred starts (GoProc): a process launched with GoProc joins the
	// waiting set immediately, but its body only starts when the schedule
	// first grants it a step, carrying that grant as a token its first
	// Await consumes.
	deferred []func() // per-pid body not yet started, or nil
	token    []bool   // per-pid: first step already granted at start

	// Process coroutines (coro.go). cur is the coroutine running now, nil
	// while the driver itself runs; procs maps each pid parked at the gate
	// to its coroutine; idle holds coroutines whose body returned, ready to
	// run the next one. next is the pid the last arbitration granted, or -1
	// when it granted none. reuse keeps idle coroutines across runs (the
	// Explorer's replayer, which stops them in close); any other Scheduler
	// stops them once a run leaves no process live.
	cur   *coproc
	procs []*coproc
	idle  []*coproc
	next  int
	reuse bool
}

var _ Gate = (*Scheduler)(nil)

// NewScheduler creates a scheduler for processes with ids in [0, n).
func NewScheduler(n int, pick PickFunc) *Scheduler {
	return &Scheduler{
		pick:        pick,
		waiting:     make([]int, 0, n),
		release:     make([]int, 0, n),
		deferred:    make([]func(), n),
		token:       make([]bool, n),
		procs:       make([]*coproc, n),
		lastGranted: -1,
		next:        -1,
	}
}

// Await implements Gate. Under an undrained schedule it parks the process
// at the gate until the schedule grants it the next step; once Drain has
// opened the gate it yields once so the drained processes take turns (an
// operation from outside any process passes straight through).
func (s *Scheduler) Await(pid int) {
	if s.open.Load() {
		if s.kill.Load() {
			// DrainKill: unwind this process through the containment path
			// instead of letting it spin against state a fault abandoned.
			panic(procCrash{pid})
		}
		if s.cur != nil {
			s.park(pid, -1)
		}
		return
	}
	stalled := false
	if s.fs != nil {
		// May panic(procCrash) to unwind a crash victim; runOne contains it.
		stalled = s.faultCheck(pid)
	}
	if s.token[pid] {
		// First operation of a GoProc process: the grant that started it
		// doubles as its first step — unless a stall window just opened,
		// in which case the process gives the grant back and parks at the
		// gate like everyone else so the window can hold it.
		s.token[pid] = false
		if !stalled {
			return
		}
	}
	s.mu.Lock()
	s.insertWaiting(pid)
	next := -1
	if s.started && len(s.waiting) == s.live {
		// Quiescent point: this process was the only one running, so it
		// arbitrates the next step itself.
		if next = s.grantNext(); next == pid {
			return // self-grant: keep running, no switch
		}
	} else {
		s.mu.Unlock()
	}
	s.park(pid, next)
}

// grantNext picks the next process to run at a quiescent point. Called with
// s.mu held and releases it. It returns the chosen pid after removing it
// from the waiting set, or -1 if the step budget ran out (in which case the
// run is marked stalled and the waiting set is left intact for Drain).
// Under a fault plan it first enlists due restarts, filters out stalled
// processes, and — when every waiting process is stalled — fast-forwards
// the global step to the next stall expiry or restart point (stall windows
// consume step budget but no schedule choice).
func (s *Scheduler) grantNext() int {
	for {
		if s.stopRun || s.step >= s.maxSteps {
			// Budget exhausted, or the watchdog force-stopped the run: end
			// it as a stall so the caller's drain protocol applies (Run
			// overlays the recorded failure, if any, on the outcome).
			s.stalled = true
			s.mu.Unlock()
			return -1
		}
		waiting := s.waiting
		if f := s.fs; f != nil && (f.numStalled > 0 || f.pending > 0) {
			s.enlistRestarts()
			waiting = s.eligible()
			if len(waiting) == 0 {
				// Every waiting process is stalled and any restarts are
				// still pending: fast-forward to the next fault event.
				if next, ok := s.nextFaultEvent(); ok && next <= s.maxSteps {
					s.step = next
				} else {
					s.step = s.maxSteps // the budget runs out mid-window
				}
				s.clock.Store(int64(s.step))
				continue
			}
		}
		i := s.pick(s.picks, waiting)
		if i < 0 {
			// The pick declined every waiting process (the Explorer's
			// reduction cut this schedule). End the run exactly like a
			// step-limit stall so the body's drain protocol applies
			// unchanged.
			s.stalled = true
			s.mu.Unlock()
			return -1
		}
		if s.acc != nil && s.step < len(s.acc) {
			s.acc[s.step] = unknownAccess
		}
		pid := waiting[i]
		if s.recording {
			s.sched = append(s.sched, i)
		}
		s.removeWaiting(pid)
		s.lastGranted = pid
		s.picks++
		s.step++
		s.clock.Store(int64(s.step))
		s.mu.Unlock()
		return pid
	}
}

// insertWaiting adds pid to the waiting set, keeping it sorted by id (it is
// almost always the largest-gap insertion of a handful of elements). The
// caller holds s.mu.
func (s *Scheduler) insertWaiting(pid int) {
	w := append(s.waiting, pid)
	i := len(w) - 1
	for ; i > 0 && w[i-1] > pid; i-- {
		w[i] = w[i-1]
	}
	w[i] = pid
	s.waiting = w
}

// removeWaiting deletes pid from the waiting set. The caller holds s.mu.
func (s *Scheduler) removeWaiting(pid int) {
	for i, q := range s.waiting {
		if q == pid {
			s.waiting = append(s.waiting[:i], s.waiting[i+1:]...)
			return
		}
	}
}

// faultCheck counts pid's operation attempt against the installed plan and
// applies any fault it scripts for this attempt. A crash (or
// crash-restart) unwinds the process body with a procCrash panic that
// runOne's containment swallows; a stall records its ineligibility
// window and reports true so Await parks the process at the gate.
func (s *Scheduler) faultCheck(pid int) (stalled bool) {
	f := s.fs
	op := f.ops[pid] + 1
	f.ops[pid] = op
	for _, sp := range f.specs[pid] {
		if int32(sp.Op) != op {
			continue
		}
		s.mu.Lock()
		flt := Fault{Proc: pid, Kind: sp.Kind, Op: sp.Op, Step: int64(s.step), Delay: sp.Delay}
		switch sp.Kind {
		case FaultStall:
			f.stallUntil[pid] = s.step + sp.Delay
			f.numStalled++
			stalled = true
		case FaultRestart:
			f.restartFn[pid] = s.plan.Restart(pid)
			f.restartAt[pid] = s.step + sp.Delay
			f.pending++
		}
		s.recordFault(flt)
		s.mu.Unlock()
		if sp.Kind != FaultStall {
			panic(procCrash{pid})
		}
	}
	return stalled
}

// recordFault appends to the fault log, attaching the replay prefix when
// schedule recording is on. The caller holds s.mu.
func (s *Scheduler) recordFault(flt Fault) Fault {
	if s.recording {
		flt.Schedule = append([]int(nil), s.sched...)
	}
	s.faults = append(s.faults, flt)
	return flt
}

// eligible filters the waiting set down to processes whose stall window has
// passed, expiring windows as it goes. The result lives in the fault
// state's scratch buffer. The caller holds s.mu.
func (s *Scheduler) eligible() []int {
	f := s.fs
	e := f.elig[:0]
	for _, pid := range s.waiting {
		if u := f.stallUntil[pid]; u > 0 {
			if u > s.step {
				continue // still inside the stall window
			}
			f.stallUntil[pid] = 0
			f.numStalled--
		}
		e = append(e, pid)
	}
	f.elig = e
	return e
}

// enlistRestarts enlists restart bodies whose delay has passed: the pid
// rejoins the machine as a deferred (GoProc-style) process, entering the
// waiting set and the live count together so the quiescence invariant
// (len(waiting) == live at arbitration) is preserved. The caller holds
// s.mu.
func (s *Scheduler) enlistRestarts() {
	f := s.fs
	if f.pending == 0 {
		return
	}
	for pid, fn := range f.restartFn {
		if fn == nil || f.restartAt[pid] > s.step {
			continue
		}
		f.restartFn[pid] = nil
		f.pending--
		s.launched++
		s.live++
		s.deferred[pid] = fn
		s.insertWaiting(pid)
	}
}

// nextFaultEvent returns the earliest global step at which a stalled
// process becomes eligible again or a pending restart becomes due. The
// caller holds s.mu; pending restarts due now were already enlisted.
func (s *Scheduler) nextFaultEvent() (int, bool) {
	f := s.fs
	next, ok := 0, false
	for _, pid := range s.waiting {
		if u := f.stallUntil[pid]; u > s.step && (!ok || u < next) {
			next, ok = u, true
		}
	}
	for pid, fn := range f.restartFn {
		if fn != nil && (!ok || f.restartAt[pid] < next) {
			next, ok = f.restartAt[pid], true
		}
	}
	return next, ok
}

// notePhase drives the liveness watchdog (SetWatchdog): it tracks which
// processes have completed the doorway (declared PhaseWaiting) and counts
// critical-section entries by others past each one; crossing the bound
// records a FaultStarvation with the overtaken process as the victim and
// force-stops the run, which then fails like a safety violation with a
// replayable schedule.
func (s *Scheduler) notePhase(pid int, old, ph Phase) {
	s.mu.Lock()
	w := s.wd
	if ph == PhaseWaiting {
		w.waiting[pid] = true
		w.over[pid] = 0
	} else if old == PhaseWaiting {
		w.waiting[pid] = false
	}
	if ph == PhaseCS && s.failure == nil {
		for q := range w.waiting {
			if q == pid || !w.waiting[q] {
				continue
			}
			w.over[q]++
			if int(w.over[q]) > s.wdBound {
				flt := s.recordFault(Fault{Proc: q, Kind: FaultStarvation, Op: int(w.over[q]), Step: int64(s.step)})
				s.failure = &FaultError{Fault: flt, sentinel: ErrStarvation}
				s.stopRun = true
				break
			}
		}
	}
	s.mu.Unlock()
}

// noteAccess records the memory footprint of the currently granted step;
// Proc's operation methods call it right after the gate grants them the
// step. The entry was cleared to unknown at grant time, so steps that
// never reach an operation (a process released by Drain, a Gate.Await with
// no operation behind it) conservatively stay unknown. Only the step-token
// holder runs between grants, and its write is ordered before the next
// grant by the gate handoff, so no lock is needed; clock pins the step the
// token holder owns.
func (s *Scheduler) noteAccess(a Addr, mut bool) {
	if s.acc == nil || s.open.Load() {
		return
	}
	if i := s.clock.Load() - 1; i >= 0 && i < int64(len(s.acc)) {
		s.acc[i] = stepAccess{addr: a, mut: mut}
	}
}

// noteResult folds an operation's address, result value, and the abort
// flag the process could have observed into its observation-history hash
// (see hist). Proc's operation methods call it on the gated fast paths,
// right after computing the result. Same write discipline as noteAccess:
// only the step-token holder runs between grants.
func (s *Scheduler) noteResult(pid int, a Addr, v uint64, aborted bool) {
	if s.hist == nil || s.open.Load() || pid >= len(s.hist) {
		return
	}
	fl := uint64(0)
	if aborted {
		fl = 1
	}
	s.hist[pid] = mix(mix(mix(s.hist[pid], uint64(a)), v), fl)
}

// Go launches fn as a scheduled process. It must be called for every
// process before Run, and fn must issue its shared-memory operations
// through a Proc of a Memory gated by this scheduler. fn runs on the
// calling goroutine's behalf up to its first operation, where it parks at
// the gate, before Go returns.
func (s *Scheduler) Go(fn func()) {
	s.mu.Lock()
	s.launched++
	s.live++
	s.mu.Unlock()
	s.resume(s.coroutine(fn))
	s.drive(s.next)
	s.settle()
}

// runOne runs one process body, containing any panic that unwinds it: an
// injected crash (procCrash) passes silently — the fault was recorded at
// the gate — and anything else is recorded as a FaultPanic that fails the
// run. Either way the process retires through exitNext, so the step token
// and the run's outcome survive the unwind instead of deadlocking the gate
// or killing the host test binary.
func (s *Scheduler) runOne(fn func()) {
	defer func() {
		if r := recover(); r != nil {
			s.contain(r)
			s.exitNext()
		}
	}()
	fn()
	s.exitNext()
}

// contain converts a recovered process panic into the run's failure
// record. Mid-schedule the panicking process necessarily holds the step
// token, so lastGranted attributes it; a panic before the first grant or
// after Drain opened the gate (when no step is granted) is attributed to
// process -1.
func (s *Scheduler) contain(r any) {
	if _, ok := r.(procCrash); ok {
		return // injected crash, recorded at the gate
	}
	stack := string(debug.Stack())
	s.mu.Lock()
	pid := s.lastGranted
	if s.open.Load() {
		pid = -1
	}
	flt := Fault{Proc: pid, Kind: FaultPanic, Step: int64(s.step), Value: r, Stack: stack}
	if f := s.fs; f != nil && pid >= 0 {
		flt.Op = int(f.ops[pid])
	}
	flt = s.recordFault(flt)
	if s.failure == nil {
		s.failure = &FaultError{Fault: flt, sentinel: ErrPanicked}
	}
	s.mu.Unlock()
}

// GoProc launches fn as the process with id pid, deferring its start until
// the scheduler first grants pid a step: the process joins the waiting set
// immediately, and the grant that starts it doubles as its first step. It
// explores the exact same schedule tree as Go for any body whose processes
// touch nothing shared before their first gated operation — the only
// observable difference is that fn's code before its first operation runs
// after the first grant instead of before Run. pid must match the Proc the
// function drives and must not be launched twice.
func (s *Scheduler) GoProc(pid int, fn func()) {
	s.mu.Lock()
	s.launched++
	s.live++
	s.deferred[pid] = fn
	s.insertWaiting(pid)
	s.mu.Unlock()
}

// exitNext retires a returning process. If it was the last one running
// while others wait at the gate, it arbitrates the next step and leaves
// the granted pid in next for the driver; if it was the last one alive,
// pending restarts may revive the run the same way.
func (s *Scheduler) exitNext() {
	s.mu.Lock()
	s.live--
	next := -1
	if s.started && !s.open.Load() && (s.live > 0 && len(s.waiting) == s.live || s.live == 0 && s.revivable()) {
		next = s.grantNext() // releases s.mu
	} else {
		s.mu.Unlock()
	}
	s.next = next
}

// revivable reports whether a run with no live process continues: a
// restart is still pending and the watchdog has not force-stopped the run.
// grantNext then fast-forwards to the restart point, enlists the body, and
// grants it. The caller holds s.mu.
func (s *Scheduler) revivable() bool {
	return s.fs != nil && s.fs.pending > 0 && !s.stopRun
}

// Run drives the schedule until all processes have returned or maxSteps
// shared-memory steps have been granted, in which case it returns
// ErrStepLimit. After ErrStepLimit the caller should resolve the stall
// (e.g. deliver abort signals) and call Drain to release every process.
//
// When a fault plan or the watchdog recorded a failure — a contained
// process panic, a starvation violation — Run returns that *FaultError
// (matching errors.Is ErrPanicked / ErrStarvation) instead, whatever the
// raw outcome: the failure usually caused the stall. The ErrStepLimit
// drain protocol applies to FaultError too, and both steps are no-ops when
// every process already returned.
func (s *Scheduler) Run(maxSteps int) error {
	s.mu.Lock()
	if s.launched == 0 {
		s.mu.Unlock()
		return nil
	}
	s.maxSteps = maxSteps
	s.started = true
	s.stalled = false
	next := -1
	// Every live process is parked at the gate (Go runs each body up to
	// its first operation), so grant the first step. With none live, a
	// pending restart — every process crashed before the schedule started
	// — revives the run.
	if s.live > 0 || s.revivable() {
		next = s.grantNext() // releases s.mu
	} else {
		s.mu.Unlock()
	}
	s.drive(next)
	s.settle()
	if s.stalled {
		return s.runErr(ErrStepLimit)
	}
	return s.runErr(nil)
}

// runErr overlays the run's recorded failure on its raw outcome.
func (s *Scheduler) runErr(err error) error {
	s.mu.Lock()
	failure := s.failure
	s.mu.Unlock()
	if failure != nil {
		return failure
	}
	return err
}

// reset returns the scheduler to its initial state so a driver (the
// Explorer) can reuse one scheduler — and its process coroutines — across
// many short runs instead of allocating a fresh one per run. It must only
// be called after Run (and Drain, if Run stalled) has returned, when no
// process from the previous run is live.
func (s *Scheduler) reset() {
	s.open.Store(false)
	s.clock.Store(0)
	s.waiting = s.waiting[:0]
	s.launched = 0
	s.live = 0
	s.started = false
	s.stalled = false
	s.step = 0
	s.maxSteps = 0
	s.picks = 0
	s.lastGranted = -1
	s.next = -1
	s.stopRun = false
	s.failure = nil
	s.mem = nil
	for i := range s.hist {
		s.hist[i] = 0
	}
	s.faults = s.faults[:0]
	s.sched = s.sched[:0]
	if s.fs != nil {
		s.fs.reset()
	}
	if s.wd != nil {
		s.wd.reset()
	}
	for i := range s.deferred {
		s.deferred[i] = nil
		s.token[i] = false
	}
}

// active reports whether a schedule is in progress: Run has been called,
// live processes remain, and the gate has not been drained open. Memory
// uses it to reject gate or observer swaps that would race the step token.
func (s *Scheduler) active() bool {
	if s.open.Load() {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.started && s.live > 0
}

// Steps returns a logical clock: the number of shared-memory steps granted
// so far. Processes may read it between their own operations to timestamp
// events for ordering assertions (the value is monotonic, and a value read
// by a process after one of its operations is ≥ that operation's step).
// Under a fault plan the clock also advances across stall fast-forwards.
func (s *Scheduler) Steps() int64 { return s.clock.Load() }

// SetFaultPlan installs a deterministic fault script (fault.go), or clears
// it with nil. It must be called before Run — never mid-schedule — and the
// plan persists across the Explorer's internal reuse of a scheduler.
// Installing a plan turns on schedule recording, so every Fault carries
// the choice-index prefix that replays it.
func (s *Scheduler) SetFaultPlan(plan *FaultPlan) {
	if s.active() {
		panic("rmr: SetFaultPlan during a schedule")
	}
	s.plan = plan
	if plan == nil {
		s.fs = nil
		s.recording = s.wd != nil
		return
	}
	plan.validate(len(s.token))
	s.fs = newFaultState(len(s.token), plan)
	s.recording = true
}

// FaultPlan returns the installed fault plan, or nil.
func (s *Scheduler) FaultPlan() *FaultPlan { return s.plan }

// SetWatchdog arms the liveness watchdog: once a process completes the
// doorway (declares PhaseWaiting via Proc.EnterPhase), more than bound
// critical-section entries by other processes before it leaves the waiting
// phase fail the run with a *FaultError wrapping ErrStarvation, carrying a
// replayable schedule. A meaningful bound depends on the lock: starvation-
// free locks bound overtaking by O(n) entries per passage, so a few times
// the process count is safe for single-passage bodies, while unfair locks
// (test-and-set) genuinely starve and will trip it. bound <= 0 disarms.
// Must not be called mid-schedule.
func (s *Scheduler) SetWatchdog(bound int) {
	if s.active() {
		panic("rmr: SetWatchdog during a schedule")
	}
	s.wdBound = bound
	if bound <= 0 {
		s.wd = nil
		s.recording = s.fs != nil
		return
	}
	if s.wd == nil {
		s.wd = newWdState(len(s.token))
	}
	s.recording = true
}

// RecordSchedule toggles choice recording independently of a fault plan or
// watchdog (either forces it on): Schedule then returns the choice-index
// prefix of the current run, replayable with ReplayPick. Must not be
// called mid-schedule.
func (s *Scheduler) RecordSchedule(on bool) {
	if s.active() {
		panic("rmr: RecordSchedule during a schedule")
	}
	s.recording = on || s.fs != nil || s.wd != nil
}

// Faults returns a copy of the faults recorded during the current (or last)
// run, in occurrence order: injected crashes and stalls that took effect,
// contained panics, and watchdog violations.
func (s *Scheduler) Faults() []Fault {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.faults) == 0 {
		return nil
	}
	return append([]Fault(nil), s.faults...)
}

// Schedule returns a copy of the recorded choice-index prefix of the
// current (or last) run. It is safe to call concurrently with a run — a
// wall-clock deadline handler can dump the in-flight schedule.
func (s *Scheduler) Schedule() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.sched) == 0 {
		return nil
	}
	return append([]int(nil), s.sched...)
}

// Err returns the failure the current (or last) run recorded — the
// *FaultError for a contained panic or watchdog violation — or nil. Run
// returns the same error; Err serves hand-driven drivers and deadline
// handlers that cannot wait for Run.
func (s *Scheduler) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failure == nil {
		return nil
	}
	return s.failure
}

// Drain opens the gate and runs every remaining process to completion.
// It is only needed after Run returned ErrStepLimit. The released
// processes take turns in id order, one operation per turn, so a drain is
// as deterministic as the run before it.
func (s *Scheduler) Drain() {
	s.drain()
}

// DrainKill is Drain for runs a fault wedged beyond cooperation: instead of
// running the released processes to completion through the open gate — which
// hangs when a survivor spins forever on state a crashed process abandoned
// and ignores its abort signal — every released process is unwound at its
// next shared-memory operation via the panic-containment path, as if
// crash-stopped there. The unwinds happen outside the recorded schedule and
// leave no fault-log entries, so they perturb neither replay nor
// exploration; the simulated memory is abandoned mid-operation and must not
// be trusted afterwards.
func (s *Scheduler) DrainKill() {
	s.kill.Store(true)
	s.drain()
	s.kill.Store(false)
}

func (s *Scheduler) drain() {
	s.open.Store(true)
	s.mu.Lock()
	// The release buffer is scheduler-owned scratch so that a drain — which
	// the Explorer's reduction triggers on every cut schedule — stays
	// allocation-free in steady state.
	s.release = append(s.release[:0], s.waiting...)
	s.waiting = s.waiting[:0]
	s.mu.Unlock()
	for len(s.release) > 0 {
		live := s.release[:0]
		for _, pid := range s.release {
			if s.resumePid(pid, false) {
				live = append(live, pid)
			}
		}
		s.release = live
	}
	s.settle()
}
