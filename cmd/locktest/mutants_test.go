package main

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"sublock/internal/harness"
	"sublock/locks"
	"sublock/locks/conformance"
	"sublock/rmr"
)

// The mutant corpus: locks broken on purpose, so that two processes can hold
// the critical section at once or an attempt abandons without its abort
// signal. Every driver that claims to check mutual exclusion and the
// passage rules must reject each of them with the mutant's error
// (rmr.ErrMutualExclusion, harness.ErrUnsignalledAbort). They are
// registered only in this test binary: its tests iterate the registry
// nowhere but in the unknown-lock listing, where extra names are harmless.
func init() {
	locks.Register(locks.Info{
		Name:        "mutant-racy",
		Summary:     "test-and-set whose acquisition reads 0 and then writes 1: both contenders can read 0",
		IDSymmetric: true,
		Rewindable:  true,
		New: func(m *rmr.Memory, _, _ int) (locks.HandleFunc, error) {
			word := m.Alloc(0)
			return func(p *rmr.Proc) locks.Abortable { return racy{p, word} }, nil
		},
	})
	locks.Register(locks.Info{
		Name:       "mutant-abort-enters",
		Summary:    "the paper's one-shot lock, except that an aborted attempt enters the critical section",
		Abortable:  true,
		OneShot:    true,
		Rewindable: true,
		New: func(m *rmr.Memory, w, capacity int) (locks.HandleFunc, error) {
			fn, err := locks.Build(m, "paper", w, capacity)
			if err != nil {
				return nil, err
			}
			return func(p *rmr.Proc) locks.Abortable { return &abortEnters{p: p, h: fn(p)} }, nil
		},
	})
	locks.Register(locks.Info{
		Name:       "mutant-gives-up",
		Summary:    "the paper's one-shot lock, except that process 0 gives up at its first wait, signalled or not",
		Abortable:  true,
		OneShot:    true,
		Rewindable: true,
		New: func(m *rmr.Memory, w, capacity int) (locks.HandleFunc, error) {
			fn, err := locks.Build(m, "paper", w, capacity)
			if err != nil {
				return nil, err
			}
			word := m.Alloc(0)
			return func(p *rmr.Proc) locks.Abortable {
				if p.ID() == 0 {
					return givesUp{p, word}
				}
				return fn(p)
			}, nil
		},
	})
}

type racy struct {
	p    *rmr.Proc
	word rmr.Addr
}

func (h racy) Enter() bool {
	h.p.EnterPhase(rmr.PhaseWaiting)
	for h.p.Read(h.word) != 0 {
	}
	h.p.Write(h.word, 1)
	h.p.EnterPhase(rmr.PhaseCS)
	return true
}

func (h racy) Exit() {
	h.p.EnterPhase(rmr.PhaseExit)
	h.p.Write(h.word, 0)
	h.p.EnterPhase(rmr.PhaseIdle)
}

// abortEnters wraps a paper handle; when the attempt aborts it enters the
// critical section anyway, and its Exit then releases nothing.
type abortEnters struct {
	p      *rmr.Proc
	h      locks.Abortable
	aborts bool // the current passage entered through the abort path
}

func (a *abortEnters) Enter() bool {
	if a.h.Enter() {
		return true
	}
	a.aborts = true
	a.p.EnterPhase(rmr.PhaseCS)
	return true
}

func (a *abortEnters) Exit() {
	if !a.aborts {
		a.h.Exit()
		return
	}
	a.aborts = false
	a.p.EnterPhase(rmr.PhaseExit)
	a.p.EnterPhase(rmr.PhaseIdle)
}

// givesUp is mutant-gives-up's process 0: it waits one step and returns
// false without taking a queue slot, whether or not it holds its abort
// signal.
type givesUp struct {
	p    *rmr.Proc
	word rmr.Addr
}

func (g givesUp) Enter() bool {
	g.p.EnterPhase(rmr.PhaseWaiting)
	g.p.Read(g.word)
	g.p.EnterPhase(rmr.PhaseIdle)
	return false
}

func (g givesUp) Exit() { panic("mutant-gives-up: Exit without a successful Enter") }

// mutant is one corpus entry with an exploration configuration that
// reaches its violation, the aborters of its seeded runs (which signal
// before the processes start) and the error every driver must report.
type mutant struct {
	name                       string
	n, aborters, steps, seeded int
	want                       error
}

var mutants = []mutant{
	{"mutant-racy", 2, 0, 8, 0, rmr.ErrMutualExclusion},
	{"mutant-racy", 3, 0, 12, 0, rmr.ErrMutualExclusion},
	{"mutant-abort-enters", 2, 1, 16, 1, rmr.ErrMutualExclusion},
	// Process 0 is the exploration's aborter: it is caught where it gives
	// up before the signal process has run.
	{"mutant-gives-up", 2, 1, 16, 0, harness.ErrUnsignalledAbort},
}

// explorerModes are the reduction stacks every mutant must fail under,
// each reporting the same lexmin schedule (docs/MODEL.md: the reductions
// preserve the lexicographically smallest violating schedule).
var explorerModes = []struct {
	name              string
	reduction         rmr.Reduction
	visited, symmetry bool
}{
	{"none", rmr.NoReduction, false, false},
	{"visited", rmr.NoReduction, true, false},
	{"por", rmr.SleepSets, false, false},
	{"por+visited", rmr.SleepSets, true, false},
	{"por+visited+symmetry", rmr.SleepSets, true, true},
}

func (mu mutant) config() harness.ExploreConfig {
	return harness.ExploreConfig{
		Model: rmr.CC, Algo: harness.Algo(mu.name), W: 4, N: mu.n, Aborters: mu.aborters,
		MaxSteps: mu.steps,
	}
}

// violation checks that err is the mutant's violation found by an
// exploration and returns its schedule.
func (mu mutant) violation(t *testing.T, what string, err error) []int {
	t.Helper()
	var ee *rmr.ErrExplore
	if !errors.As(err, &ee) || !errors.Is(err, mu.want) {
		t.Fatalf("%s: err = %v, want %v", what, err, mu.want)
	}
	return ee.Schedule
}

// TestMutantCorpusExplorer: every mutant fails every reduction stack at
// Workers 1 and 2, and every mode reports one lexmin schedule.
func TestMutantCorpusExplorer(t *testing.T) {
	for _, mu := range mutants {
		t.Run(fmt.Sprintf("%s/n=%d", mu.name, mu.n), func(t *testing.T) {
			var lexmin []int
			for _, md := range explorerModes {
				for _, workers := range []int{1, 2} {
					cfg := mu.config()
					cfg.Workers, cfg.Reduction, cfg.Visited, cfg.Symmetry = workers, md.reduction, md.visited, md.symmetry
					_, err := harness.Explore(cfg)
					what := fmt.Sprintf("%s, %d workers", md.name, workers)
					schedule := mu.violation(t, what, err)
					if lexmin == nil {
						lexmin = schedule
					} else if !slices.Equal(schedule, lexmin) {
						t.Errorf("%s: schedule %v, want the lexmin %v", what, schedule, lexmin)
					}
				}
			}
			t.Logf("lexmin schedule %v", lexmin)
		})
	}
}

// TestMutantCorpusSeeded: conformance's seeded driver and the gated queue
// drain reject every mutant, with nothing but the mutant's violation.
func TestMutantCorpusSeeded(t *testing.T) {
	for _, tc := range []struct {
		name     string
		aborters int
		want     error
	}{
		{"mutant-racy", 0, rmr.ErrMutualExclusion},
		{"mutant-abort-enters", 2, rmr.ErrMutualExclusion},
		{"mutant-gives-up", 0, harness.ErrUnsignalledAbort},
	} {
		info, _ := locks.Lookup(tc.name)
		caught := 0
		for seed := int64(0); seed < 20; seed++ {
			_, err := conformance.Passages(info, rmr.CC, 6, tc.aborters, seed)
			if err == nil {
				continue
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("%s seed %d: err = %v, want %v", tc.name, seed, err, tc.want)
			}
			caught++
		}
		if caught == 0 {
			t.Errorf("%s: no seed caught the violation", tc.name)
		}
	}
	if _, err := harness.QueueWorkload("mutant-gives-up", 4, 3); !errors.Is(err, harness.ErrUnsignalledAbort) {
		t.Errorf("QueueWorkload(mutant-gives-up): err = %v, want %v", err, harness.ErrUnsignalledAbort)
	}
}

// TestMutantCorpusLocktest: the CLI rejects every mutant in seeded mode
// (plain, under the watchdog, and under a stall plan: one driver,
// harness.Passages, runs them all) and in exhaustive mode.
func TestMutantCorpusLocktest(t *testing.T) {
	for _, mu := range mutants {
		args := func(aborters int, extra ...string) []string {
			return append([]string{"-lock", mu.name, "-w", "4",
				"-n", fmt.Sprint(mu.n), "-aborters", fmt.Sprint(aborters)}, extra...)
		}
		exhaustive := []string{"-exhaustive", "-exhauststeps", fmt.Sprint(mu.steps), "-exhaustcap", "0", "-workers", "2"}
		for _, a := range [][]string{
			args(mu.seeded, "-seeds", "20"),
			args(mu.seeded, "-seeds", "20", "-watchdog", "64"),
			args(mu.seeded, "-seeds", "20", "-faults", "stall:0@2+2"),
			args(mu.aborters, exhaustive...),
			args(mu.aborters, append(exhaustive, "-por", "-visited")...),
		} {
			if err := run(a); !errors.Is(err, mu.want) {
				t.Errorf("locktest %v: err = %v, want %v", a, err, mu.want)
			}
		}
	}
}
