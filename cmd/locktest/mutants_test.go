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

// The mutant corpus: locks broken on purpose so that two processes can hold
// the critical section at once. Every driver that claims to check mutual
// exclusion must reject each of them with rmr.ErrMutualExclusion. They are
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

// mutant is one corpus entry with an exploration configuration that
// reaches its violation.
type mutant struct {
	name               string
	n, aborters, steps int
}

var mutants = []mutant{
	{"mutant-racy", 2, 0, 8},
	{"mutant-racy", 3, 0, 12},
	{"mutant-abort-enters", 2, 1, 16},
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

// violation checks that err is a mutual-exclusion violation found by an
// exploration and returns its schedule.
func violation(t *testing.T, what string, err error) []int {
	t.Helper()
	var ee *rmr.ErrExplore
	if !errors.As(err, &ee) || !errors.Is(err, rmr.ErrMutualExclusion) {
		t.Fatalf("%s: err = %v, want a mutual-exclusion violation", what, err)
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
					schedule := violation(t, what, err)
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

// TestMutantCorpusSplit: splitting the root checkpoint leaves the
// violation in some part, and the smallest schedule the parts report is
// the unsplit exploration's.
func TestMutantCorpusSplit(t *testing.T) {
	for _, mu := range mutants {
		t.Run(fmt.Sprintf("%s/n=%d", mu.name, mu.n), func(t *testing.T) {
			cfg := mu.config()
			cfg.Reduction, cfg.Workers = rmr.SleepSets, 2
			_, err := harness.Explore(cfg)
			want := violation(t, "unsplit", err)

			root := cfg
			root.Workers, root.MaxSchedules = 1, 1
			_, ck, err := harness.ExploreCheckpoint(root, nil)
			if err != nil {
				t.Fatalf("root replay: %v", err)
			}
			var best []int
			for i, part := range ck.Split(3) {
				_, _, err := harness.ExploreCheckpoint(cfg, part)
				if err == nil {
					continue
				}
				schedule := violation(t, fmt.Sprintf("part %d", i), err)
				if best == nil || slices.Compare(schedule, best) < 0 {
					best = schedule
				}
			}
			if !slices.Equal(best, want) {
				t.Fatalf("smallest part schedule %v, want the unsplit %v", best, want)
			}
		})
	}
}

// TestMutantCorpusSeeded: conformance's seeded driver rejects every
// mutant, and nothing but mutual exclusion fails.
func TestMutantCorpusSeeded(t *testing.T) {
	for _, name := range []string{"mutant-racy", "mutant-abort-enters"} {
		info, _ := locks.Lookup(name)
		aborters := 0
		if info.Abortable {
			aborters = 2
		}
		caught := 0
		for seed := int64(0); seed < 20; seed++ {
			_, err := conformance.Passages(info, rmr.CC, 6, aborters, seed)
			if err == nil {
				continue
			}
			if !errors.Is(err, rmr.ErrMutualExclusion) {
				t.Fatalf("%s seed %d: err = %v, want a mutual-exclusion violation", name, seed, err)
			}
			caught++
		}
		if caught == 0 {
			t.Errorf("%s: no seed caught the violation", name)
		}
	}
}

// TestMutantCorpusLocktest: the CLI rejects every mutant in seeded and
// exhaustive mode, and on the shard that holds the violation.
func TestMutantCorpusLocktest(t *testing.T) {
	for _, mu := range mutants {
		args := func(extra ...string) []string {
			return append([]string{"-lock", mu.name, "-w", "4",
				"-n", fmt.Sprint(mu.n), "-aborters", fmt.Sprint(mu.aborters)}, extra...)
		}
		exhaustive := []string{"-exhaustive", "-exhauststeps", fmt.Sprint(mu.steps), "-exhaustcap", "0", "-workers", "2"}
		for _, a := range [][]string{
			args("-seeds", "20"),
			args(exhaustive...),
			args(append(exhaustive, "-por", "-visited")...),
		} {
			if err := run(a); !errors.Is(err, rmr.ErrMutualExclusion) {
				t.Errorf("locktest %v: err = %v, want a mutual-exclusion violation", a, err)
			}
		}
		caught := 0
		for _, shard := range []string{"0/2", "1/2"} {
			a := args(append(exhaustive, "-por", "-shard", shard)...)
			switch err := run(a); {
			case errors.Is(err, rmr.ErrMutualExclusion):
				caught++
			case err != nil:
				t.Errorf("locktest %v: err = %v, want none or a mutual-exclusion violation", a, err)
			}
		}
		if caught == 0 {
			t.Errorf("%s: no shard caught the violation", mu.name)
		}
	}
}
