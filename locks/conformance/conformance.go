// Package conformance is the registry-wide lock test battery: every lock
// registered in sublock/locks is run, by name and without lock-specific
// code, through the properties the repository promises for all of them —
// mutual exclusion, schedule termination (deadlock freedom for the given
// workload), bounded abort responsiveness, and RMR-attribution invariants
// (the stats matrix conserves every charged RMR and labeled words carry the
// registered prefixes).
//
// Mutual exclusion is the rmr Scheduler's check (a run fails with
// rmr.ErrMutualExclusion when a process declares rmr.PhaseCS while another
// holds the critical section), so the battery requires every lock to
// declare PhaseCS on each successful Enter: without the declaration the
// check cannot see the critical section.
//
// The suite's own tests iterate locks.Infos(), so registering a lock is
// what opts it in: a new lock package gets the whole battery from its one
// blank import in locks/all. The exported Test entry point also lets an
// external lock package run the battery against its own registration.
//
// Two modes: the seeded checks here always run, and the bounded-exhaustive
// schedule enumeration (TestExhaustive in this package's test suite) is
// skipped under -short.
package conformance

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"sublock/locks"
	_ "sublock/locks/all"
	"sublock/rmr"
)

const (
	// defaultW is the tree arity handed to tree-based locks; locks without
	// a tree ignore it.
	defaultW = 4
	// stepBudget bounds a seeded schedule; exceeding it is a termination
	// failure.
	stepBudget = 100_000_000
	// abortBudget bounds the shared-memory steps an aborting waiter may
	// take between receiving the signal and returning from Enter. The
	// paper's locks abort in O(min(k, log W N)) RMRs; the budget is loose
	// enough for every registered baseline and tight enough to catch a
	// waiter that ignores the signal.
	abortBudget = 50_000
)

// Models returns the memory models info supports: CC always, DSM unless
// the lock is CC-only.
func Models(info locks.Info) []rmr.Model {
	if info.CCOnly {
		return []rmr.Model{rmr.CC}
	}
	return []rmr.Model{rmr.CC, rmr.DSM}
}

// Test runs the seeded conformance battery for one registered lock as
// subtests of t, once per supported memory model.
func Test(t *testing.T, info locks.Info) {
	for _, model := range Models(info) {
		model := model
		t.Run(strings.ToLower(model.String()), func(t *testing.T) {
			t.Run("mutex", func(t *testing.T) { testMutex(t, info, model) })
			if info.Abortable {
				t.Run("abort-mix", func(t *testing.T) { testAbortMix(t, info, model) })
				t.Run("abort-responsive", func(t *testing.T) { testAbortResponsive(t, info, model) })
				t.Run("abort-before-entry", func(t *testing.T) { testAbortBeforeEntry(t, info, model) })
			}
			t.Run("attribution", func(t *testing.T) { testAttribution(t, info, model) })
			t.Run("cost-transparency", func(t *testing.T) { testCostTransparency(t, info, model) })
			if !info.OneShot {
				t.Run("multi-passage", func(t *testing.T) { testMultiPassage(t, info, model) })
			}
		})
	}
}

// Passages is the battery's seeded driver: one Enter/CS/Exit passage per
// process of info's lock under the seeded random schedule, with the abort
// signal delivered to processes [0, aborters) before they start. It
// returns the memory the run used — each process's counters hold its
// passage's cost — and the first property the run violated: mutual
// exclusion (an error matching rmr.ErrMutualExclusion), termination within
// the step budget, a successful Enter that did not declare rmr.PhaseCS, or
// a process outside [0, aborters) that never entered. The lock is built
// with info.New, so an unregistered Info runs too.
func Passages(info locks.Info, model rmr.Model, nprocs, aborters int, seed int64) (*rmr.Memory, error) {
	m, _, err := passages(info, model, nprocs, aborters, seed, nil)
	return m, err
}

// runPassages is Passages under t: it fails t on a violated property and
// returns the memory and which processes entered. When st is non-nil it is
// installed as the memory's stats collector before any process runs.
func runPassages(t *testing.T, info locks.Info, model rmr.Model, nprocs, aborters int, seed int64, st **rmr.Stats) (*rmr.Memory, []bool) {
	t.Helper()
	m, entered, err := passages(info, model, nprocs, aborters, seed, st)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return m, entered
}

func passages(info locks.Info, model rmr.Model, nprocs, aborters int, seed int64, st **rmr.Stats) (*rmr.Memory, []bool, error) {
	s := rmr.NewScheduler(nprocs, rmr.RandomPick(seed))
	m := rmr.NewMemory(model, nprocs, nil)
	fn, err := info.New(m, defaultW, nprocs)
	if err != nil {
		return nil, nil, fmt.Errorf("build: %w", err)
	}
	if st != nil {
		// Sized after Build so the label dimension covers everything the
		// lock interned during construction.
		*st = rmr.NewStats(m)
		m.SetStats(*st)
	}
	m.SetGate(s)

	entered := make([]bool, nprocs)
	undeclared := -1 // a process whose Enter succeeded outside PhaseCS
	for i := 0; i < nprocs; i++ {
		p := m.Proc(i)
		if i < aborters {
			p.SignalAbort()
		}
		h := fn(p)
		s.Go(func() {
			if h.Enter() {
				if p.Phase() != rmr.PhaseCS && undeclared < 0 {
					undeclared = i
				}
				entered[i] = true
				h.Exit()
			}
		})
	}
	if err := s.Run(stepBudget); err != nil {
		// Nothing reads a failed run's state, so its processes are unwound
		// where they wait rather than drained.
		s.DrainKill()
		return nil, nil, fmt.Errorf("schedule failed: %w", err)
	}
	if undeclared >= 0 {
		return nil, nil, fmt.Errorf("process %d: Enter returned true without declaring rmr.PhaseCS", undeclared)
	}
	for i := aborters; i < nprocs; i++ {
		if !entered[i] {
			return nil, nil, fmt.Errorf("non-aborting process %d never entered", i)
		}
	}
	return m, entered, nil
}

// testMutex: with no aborts, every process completes exactly one passage
// under mutual exclusion, across several seeds.
func testMutex(t *testing.T, info locks.Info, model rmr.Model) {
	for seed := int64(0); seed < 5; seed++ {
		runPassages(t, info, model, 6, 0, seed, nil)
	}
}

// testAbortMix: with a third of the processes signalled to abort before
// starting, mutual exclusion holds and every non-aborter still completes
// (deadlock freedom is not lost to aborts).
func testAbortMix(t *testing.T, info locks.Info, model rmr.Model) {
	for seed := int64(0); seed < 5; seed++ {
		runPassages(t, info, model, 6, 2, seed, nil)
	}
}

// testAbortResponsive scripts the bounded-abort property with a hand-driven
// controller: a holder is parked inside the critical section, a waiter is
// enqueued and left spinning, and after SignalAbort the waiter must return
// false from Enter within abortBudget shared-memory steps — an abort must
// not wait for the lock to be released.
func testAbortResponsive(t *testing.T, info locks.Info, model rmr.Model) {
	const n = 2
	c := rmr.NewController(n)
	m := rmr.NewMemory(model, n, nil)
	fn, err := locks.Build(m, info.Name, defaultW, n)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	m.SetGate(c)
	h0, h1 := fn(m.Proc(0)), fn(m.Proc(1))

	finish := func(pid, budget int, what string) int {
		t.Helper()
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("%s: %v", what, r)
			}
		}()
		return c.Finish(pid, budget)
	}

	// The holder runs Enter and then pauses at the gate on Exit's first
	// shared-memory operation — holding the lock until stepped again.
	var holderIn atomic.Bool
	var holderEntered, waiterEntered bool
	c.Go(0, func() {
		if h0.Enter() {
			holderEntered = true
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

	// The waiter enqueues and spins against the held lock.
	c.Go(1, func() {
		waiterEntered = h1.Enter()
		if waiterEntered {
			h1.Exit()
		}
	})
	c.StepN(1, 200)

	// The signal arrives while the lock is still held: the waiter must
	// finish — with a false Enter — within the budget.
	m.Proc(1).SignalAbort()
	finish(1, abortBudget, "aborting waiter did not return")
	if waiterEntered {
		t.Fatal("waiter entered the CS despite holding an abort signal against a held lock")
	}

	finish(0, abortBudget, "holder's Exit did not complete")
	c.Wait()
	if !holderEntered {
		t.Fatal("holder's Enter returned false without an abort signal")
	}
}

// testAbortBeforeEntry scripts the already-delivered signal: the abort
// arrives before the waiter's Enter takes its first shared-memory step,
// while the lock is held. The attempt must return false within abortBudget
// steps — a pre-signalled process must be turned away at (or before) the
// doorway, not committed to waiting against a lock that is never released
// within the budget.
func testAbortBeforeEntry(t *testing.T, info locks.Info, model rmr.Model) {
	const n = 2
	c := rmr.NewController(n)
	m := rmr.NewMemory(model, n, nil)
	fn, err := locks.Build(m, info.Name, defaultW, n)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	m.SetGate(c)
	h0, h1 := fn(m.Proc(0)), fn(m.Proc(1))

	finish := func(pid, budget int, what string) {
		t.Helper()
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("%s: %v", what, r)
			}
		}()
		c.Finish(pid, budget)
	}

	// The holder acquires and pauses at the gate inside Exit, keeping the
	// lock held for the whole scripted scenario.
	var holderIn atomic.Bool
	var holderEntered, waiterEntered bool
	c.Go(0, func() {
		if h0.Enter() {
			holderEntered = true
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

	// The signal lands before the waiter's Enter is even started.
	m.Proc(1).SignalAbort()
	c.Go(1, func() {
		waiterEntered = h1.Enter()
		if waiterEntered {
			h1.Exit()
		}
	})
	finish(1, abortBudget, "pre-signalled waiter did not return")
	if waiterEntered {
		t.Fatal("waiter entered the CS despite a signal delivered before Enter against a held lock")
	}

	finish(0, abortBudget, "holder's Exit did not complete")
	c.Wait()
	if !holderEntered {
		t.Fatal("holder's Enter returned false without an abort signal")
	}
}

// testAttribution runs a stats-instrumented mixed workload and checks the
// RMR-attribution invariants: the (process × phase × label) matrix
// conserves every charged RMR, every labeled word carries one of the
// registered label prefixes, and the passage accounting matches the
// observed passage outcomes.
func testAttribution(t *testing.T, info locks.Info, model rmr.Model) {
	const nprocs = 6
	aborters := 0
	if info.Abortable {
		aborters = 2
	}
	var st *rmr.Stats
	m, enteredBy := runPassages(t, info, model, nprocs, aborters, 1, &st)
	snap := st.Snapshot()

	// Conservation: stats were installed before any process ran, so each
	// process's matrix row must sum to its simulator RMR counter exactly.
	for i := 0; i < nprocs; i++ {
		var sum int64
		for ph := rmr.Phase(0); ph < rmr.NumPhases; ph++ {
			sum += snap.ProcPhaseRMRs(i, ph)
		}
		if got := m.Proc(i).RMRs(); sum != got {
			t.Errorf("process %d: stats matrix sums to %d RMRs, simulator charged %d", i, sum, got)
		}
	}

	// Labels: everything the lock interned must carry a registered prefix,
	// so per-label reports attribute its RMRs to the right lock.
	if len(info.Labels) > 0 {
		for _, name := range m.Labels() {
			if name == "" {
				continue
			}
			ok := false
			for _, prefix := range info.Labels {
				if strings.HasPrefix(name, prefix) {
					ok = true
					break
				}
			}
			if !ok {
				t.Errorf("interned label %q outside the registered prefixes %v", name, info.Labels)
			}
		}
	}

	// Passage accounting (driven by the locks' phase annotations): every
	// process ran exactly one passage, completed iff it entered.
	var entered int64
	for _, e := range enteredBy {
		if e {
			entered++
		}
	}
	if snap.Passages != entered {
		t.Errorf("stats counted %d completed passages, %d processes entered", snap.Passages, entered)
	}
	if snap.Passages+snap.AbortedPassages != int64(nprocs) {
		t.Errorf("stats counted %d finished passages (completed %d + aborted %d), want %d",
			snap.Passages+snap.AbortedPassages, snap.Passages, snap.AbortedPassages, nprocs)
	}
}

// costRun is one fully-observed seeded run for the cost-transparency check:
// everything a cost model must NOT change (schedule, per-process RMR and
// step counters, passage outcomes, final memory words, and the event stream
// up to its simulated-time annotations).
type costRun struct {
	schedule []int
	events   []rmr.Event
	rmrs     []int64
	steps    []int64
	entered  []bool
	words    []uint64
}

// testCostTransparency is the registry-wide observe-only guarantee: running
// the same seeded schedule under a non-Unit cost model yields a
// bit-identical execution — the identical schedule, RMR and step counters,
// passage outcomes, memory contents, and trace — except for the events'
// Cost and STime annotations, which are exactly what the model is for. A
// cost model that steered an execution would invalidate every priced
// experiment, so this is checked for every lock under every memory model.
func testCostTransparency(t *testing.T, info locks.Info, model rmr.Model) {
	const nprocs, seed = 6, 3
	aborters := 0
	if info.Abortable {
		aborters = 2
	}
	run := func(cm rmr.CostModel) costRun {
		t.Helper()
		s := rmr.NewScheduler(nprocs, rmr.RandomPick(seed))
		s.RecordSchedule(true)
		m := rmr.NewMemory(model, nprocs, nil)
		var mu sync.Mutex
		var events []rmr.Event
		m.SetTracer(func(ev rmr.Event) {
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
		})
		fn, err := locks.Build(m, info.Name, defaultW, nprocs)
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		if cm != nil {
			m.SetCostModel(cm)
		}
		m.SetGate(s)
		r := costRun{entered: make([]bool, nprocs)}
		for i := 0; i < nprocs; i++ {
			p := m.Proc(i)
			if i < aborters {
				p.SignalAbort()
			}
			h := fn(p)
			s.Go(func() {
				if h.Enter() {
					r.entered[i] = true
					h.Exit()
				}
			})
		}
		if err := s.Run(stepBudget); err != nil {
			s.DrainKill()
			t.Fatalf("schedule failed: %v", err)
		}
		r.schedule = s.Schedule()
		r.events = events
		for i := 0; i < nprocs; i++ {
			r.rmrs = append(r.rmrs, m.Proc(i).RMRs())
			r.steps = append(r.steps, m.Proc(i).Steps())
		}
		for a := rmr.Addr(0); int(a) < m.Size(); a++ {
			r.words = append(r.words, m.Peek(a))
		}
		return r
	}

	cm := rmr.CostModel(rmr.NewCCNuma(9))
	if model == rmr.DSM {
		cm = rmr.NewDsmRemote(9)
	}
	base, priced := run(nil), run(cm)

	if len(base.schedule) != len(priced.schedule) {
		t.Fatalf("schedule length changed under cost=%s: %d -> %d",
			cm.Name(), len(base.schedule), len(priced.schedule))
	}
	for i := range base.schedule {
		if base.schedule[i] != priced.schedule[i] {
			t.Fatalf("schedule diverged at step %d under cost=%s: proc %d -> %d",
				i, cm.Name(), base.schedule[i], priced.schedule[i])
		}
	}
	for i := 0; i < nprocs; i++ {
		if base.rmrs[i] != priced.rmrs[i] {
			t.Errorf("proc %d: RMRs changed under cost=%s: %d -> %d", i, cm.Name(), base.rmrs[i], priced.rmrs[i])
		}
		if base.steps[i] != priced.steps[i] {
			t.Errorf("proc %d: steps changed under cost=%s: %d -> %d", i, cm.Name(), base.steps[i], priced.steps[i])
		}
		if base.entered[i] != priced.entered[i] {
			t.Errorf("proc %d: passage outcome changed under cost=%s: %v -> %v",
				i, cm.Name(), base.entered[i], priced.entered[i])
		}
	}
	for a, v := range base.words {
		if priced.words[a] != v {
			t.Errorf("word %d: final value changed under cost=%s: %d -> %d", a, cm.Name(), v, priced.words[a])
		}
	}
	if len(base.events) != len(priced.events) {
		t.Fatalf("trace length changed under cost=%s: %d -> %d events",
			cm.Name(), len(base.events), len(priced.events))
	}
	for i := range base.events {
		b, p := base.events[i], priced.events[i]
		// Cost and STime are the model's output — the one legitimate
		// difference. Everything else must match bit for bit.
		b.Cost, b.STime = 0, 0
		p.Cost, p.STime = 0, 0
		if b != p {
			t.Fatalf("event %d changed under cost=%s:\n  unit:   %+v\n  priced: %+v",
				i, cm.Name(), base.events[i], priced.events[i])
		}
	}
}

// testMultiPassage: a handle of a non-one-shot lock supports repeated
// passages — every process completes several rounds under mutual
// exclusion, declaring PhaseCS on each entry.
func testMultiPassage(t *testing.T, info locks.Info, model rmr.Model) {
	const nprocs, rounds = 4, 3
	s := rmr.NewScheduler(nprocs, rmr.RandomPick(7))
	m := rmr.NewMemory(model, nprocs, nil)
	fn, err := locks.Build(m, info.Name, defaultW, nprocs)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	m.SetGate(s)

	completed := make([]int, nprocs)
	undeclared := 0
	for i := 0; i < nprocs; i++ {
		p := m.Proc(i)
		h := fn(p)
		s.Go(func() {
			for r := 0; r < rounds; r++ {
				if !h.Enter() {
					return
				}
				if p.Phase() != rmr.PhaseCS {
					undeclared++
				}
				h.Exit()
				completed[i]++
			}
		})
	}
	if err := s.Run(stepBudget); err != nil {
		s.DrainKill()
		t.Fatalf("schedule failed: %v", err)
	}
	if undeclared > 0 {
		t.Fatalf("%d successful Enters did not declare rmr.PhaseCS", undeclared)
	}
	for i, got := range completed {
		if got != rounds {
			t.Errorf("process %d completed %d/%d passages", i, got, rounds)
		}
	}
}

// Covered returns the sorted names the conformance suite will run: exactly
// the registry. It exists for the CI guard, which diffs this against the
// lock packages present on disk so a package that forgets to register (and
// would silently escape the suite) fails the build.
func Covered() []string {
	return locks.Names()
}
