package conformance_test

import (
	"os"
	"strings"
	"testing"

	"sublock/internal/harness"
	"sublock/locks"
	"sublock/locks/conformance"
	"sublock/rmr"
)

// TestConformance runs the seeded battery against every registered lock —
// registering a lock is what opts it in, so a new lock package gets the
// whole suite from its blank import in locks/all.
func TestConformance(t *testing.T) {
	infos := locks.Infos()
	if len(infos) == 0 {
		t.Fatal("empty lock registry")
	}
	for _, info := range infos {
		info := info
		t.Run(info.Name, func(t *testing.T) {
			t.Parallel()
			conformance.Test(t, info)
		})
	}
}

// TestFaultConformance runs the fault-injection battery — crash sweeps,
// stall windows, panic containment, abort-while-stalled, watchdog-clean —
// against every registered lock. Like the seeded battery, registration is
// what opts a lock in.
func TestFaultConformance(t *testing.T) {
	for _, info := range locks.Infos() {
		info := info
		t.Run(info.Name, func(t *testing.T) {
			t.Parallel()
			conformance.TestFaults(t, info)
		})
	}
}

// TestExhaustiveCrashRobust explores every registered abortable lock at
// N=2 under single crash-stop plans (harness.ExploreFaults): mutual
// exclusion must hold and every surviving non-aborter must complete in
// every schedule of every crash plan. Skipped under -short.
func TestExhaustiveCrashRobust(t *testing.T) {
	if testing.Short() {
		t.Skip("bounded-exhaustive exploration skipped in -short mode")
	}
	const (
		n                            = 2
		maxScheds                    = 3000
		minSteps, stepGrow, maxSteps = 14, 6, 56
	)
	for _, info := range locks.Infos() {
		info := info
		t.Run(info.Name, func(t *testing.T) {
			t.Parallel()
			explored := false
			for steps := minSteps; steps <= maxSteps; steps += stepGrow {
				res, _, err := harness.ExploreFaults(harness.ExploreConfig{
					Model: rmr.CC, Algo: harness.Algo(info.Name), W: 4, N: n,
					MaxSteps: steps, MaxSchedules: maxScheds, Workers: 2,
					Reduction: rmr.SleepSets,
				}, harness.Faults{CrashPoints: []int{1, 2, 3}})
				if err != nil {
					t.Fatalf("steps=%d: %v", steps, err)
				}
				if res.Explored > 0 {
					explored = true
					t.Logf("steps=%d: %d explored, %d pruned, %d equivalent across crash plans",
						steps, res.Explored, res.Pruned, res.Equivalent)
					break
				}
			}
			if !explored {
				t.Fatalf("no complete schedule within %d steps under crash plans", maxSteps)
			}
		})
	}
}

// TestExhaustive enumerates every schedule of bounded length for every
// registered lock at N=2 (bounded model checking via harness.Explore),
// without aborts and — for abortable locks — with one aborter whose signal
// the explorer places at every possible point. Partial-order reduction is
// on: the schedule budget buys equivalence classes instead of redundant
// reorderings of commuting steps, so the same cap reaches deeper into the
// tree. Skipped under -short.
func TestExhaustive(t *testing.T) {
	if testing.Short() {
		t.Skip("bounded-exhaustive exploration skipped in -short mode")
	}
	const (
		n         = 2
		maxScheds = 3000
		// The step bound starts small and grows until at least one complete
		// schedule fits: a passage of the long-lived transformation takes
		// ~24 shared-memory steps (~50 with bounded memory management) where
		// the one-shot lock needs ~10, and a fixed bound would either
		// explore nothing or waste the budget.
		minSteps, stepGrow, maxSteps = 14, 6, 56
	)
	for _, info := range locks.Infos() {
		info := info
		t.Run(info.Name, func(t *testing.T) {
			t.Parallel()
			aborterCounts := []int{0}
			if info.Abortable {
				aborterCounts = append(aborterCounts, 1)
			}
			for _, a := range aborterCounts {
				explored := false
				for steps := minSteps; steps <= maxSteps; steps += stepGrow {
					res, err := harness.Explore(harness.ExploreConfig{
						Model: rmr.CC, Algo: harness.Algo(info.Name), W: 4, N: n, Aborters: a,
						MaxSteps: steps, MaxSchedules: maxScheds, Workers: 2,
						Reduction: rmr.SleepSets,
					})
					if err != nil {
						t.Fatalf("aborters=%d steps=%d: %v", a, steps, err)
					}
					if res.Explored > 0 {
						explored = true
						t.Logf("aborters=%d steps=%d: %d explored, %d pruned, %d equivalent, exhausted=%v",
							a, steps, res.Explored, res.Pruned, res.Equivalent, res.Exhausted)
						break
					}
				}
				if !explored {
					t.Fatalf("aborters=%d: no complete schedule within %d steps", a, maxSteps)
				}
			}
		})
	}
}

// TestExhaustiveReductionLattice is the registry-wide agreement check over
// the Explorer's reduction lattice: for every lock whose full choice tree
// is affordable to exhaust, the points full, POR, POR+visited, and
// POR+visited+symmetry must report the identical Exhausted verdict and the
// identical violation/no-violation outcome, with every reduced point
// replaying at most as many schedules as the unreduced search. The chain
// is deliberately not required to shrink monotonically: cutting a subtree
// at a visited hit also removes the sleep-set backfill that subtree would
// have produced, so a stronger reduction can occasionally replay a few
// more schedules than a weaker one while still beating the full count.
// The reduced points run at multiple worker counts; Exhausted must agree across them
// (replay counts are scheduling-dependent at Workers > 1 and are checked
// per-point, not across counts). Symmetry participates only where the
// registry marks the lock IDSymmetric — elsewhere the harness keeps it off
// and the last two points coincide. Skipped under -short.
func TestExhaustiveReductionLattice(t *testing.T) {
	if testing.Short() {
		t.Skip("bounded-exhaustive exploration skipped in -short mode")
	}
	const (
		n = 2
		// fullCap guards against locks whose full tree is too large to
		// enumerate at this bound: when the unreduced run hits it, the lock
		// is compared at no deeper bound rather than burning minutes.
		fullCap                      = 40000
		minSteps, stepGrow, maxSteps = 14, 6, 56
	)
	lattice := []struct {
		name          string
		visited, symm bool
	}{
		{"por", false, false},
		{"por+visited", true, false},
		{"por+visited+symmetry", true, true},
	}
	for _, info := range locks.Infos() {
		info := info
		t.Run(info.Name, func(t *testing.T) {
			t.Parallel()
			aborterCounts := []int{0}
			if info.Abortable {
				aborterCounts = append(aborterCounts, 1)
			}
			for _, a := range aborterCounts {
				compared := false
				for steps := minSteps; steps <= maxSteps; steps += stepGrow {
					cfg := harness.ExploreConfig{
						Model: rmr.CC, Algo: harness.Algo(info.Name), W: 4, N: n, Aborters: a,
						MaxSteps: steps, MaxSchedules: fullCap, Workers: 2,
					}
					full, err := harness.Explore(cfg)
					if err != nil {
						t.Fatalf("aborters=%d steps=%d: full: %v", a, steps, err)
					}
					if !full.Exhausted {
						break // the cap stopped the full search; deeper bounds only grow
					}
					for _, pt := range lattice {
						rcfg := cfg
						rcfg.Reduction = rmr.SleepSets
						rcfg.MaxSchedules = 0
						rcfg.Visited, rcfg.Symmetry = pt.visited, pt.symm
						for _, workers := range []int{1, 2} {
							rcfg.Workers = workers
							res, err := harness.Explore(rcfg)
							if err != nil {
								t.Fatalf("aborters=%d steps=%d: %s w=%d: %v", a, steps, pt.name, workers, err)
							}
							if !res.Exhausted {
								t.Fatalf("aborters=%d steps=%d: %s w=%d not exhausted where full was",
									a, steps, pt.name, workers)
							}
							if res.Replays() > full.Replays() {
								t.Fatalf("aborters=%d steps=%d: %s w=%d replayed %d > full %d",
									a, steps, pt.name, workers, res.Replays(), full.Replays())
							}
							if workers == 1 && full.Explored > 0 {
								t.Logf("aborters=%d steps=%d: %s %d replays (full: %d)",
									a, steps, pt.name, res.Replays(), full.Replays())
							}
						}
					}
					if full.Explored > 0 {
						compared = true
						break
					}
				}
				if !compared {
					t.Logf("aborters=%d: full tree unaffordable before any complete schedule; agreement checked on shallower bounds only", a)
				}
			}
		})
	}
}

// TestRegistryCoversDiskPackages is the CI coverage guard: every lock
// package present under locks/ must register at least one lock, because
// the conformance suite reaches locks only through the registry — a
// package that forgets to register would silently escape the battery.
func TestRegistryCoversDiskPackages(t *testing.T) {
	entries, err := os.ReadDir("..")
	if err != nil {
		t.Fatal(err)
	}
	registered := map[string]bool{}
	for _, pkg := range locks.Packages() {
		registered[pkg] = true
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		switch e.Name() {
		case "all", "conformance":
			continue // infrastructure, not lock implementations
		}
		if !registered[e.Name()] {
			t.Errorf("locks/%s exists on disk but registered no lock: it escapes the conformance suite (add a locks.Register init and a blank import in locks/all)", e.Name())
		}
	}
}

// TestCoveredMatchesRegistry pins the suite's coverage claim: Covered is
// exactly the sorted registry.
func TestCoveredMatchesRegistry(t *testing.T) {
	covered := conformance.Covered()
	names := locks.Names()
	if len(covered) != len(names) {
		t.Fatalf("Covered() lists %d locks, registry has %d", len(covered), len(names))
	}
	for i := range names {
		if covered[i] != names[i] {
			t.Fatalf("Covered()[%d] = %q, registry has %q", i, covered[i], names[i])
		}
	}
}

// silentTAS is a correct test-and-set lock that declares no phases, so the
// Scheduler's mutual-exclusion check cannot see its critical section.
type silentTAS struct {
	p    *rmr.Proc
	word rmr.Addr
}

func (h silentTAS) Enter() bool {
	for !h.p.CAS(h.word, 0, 1) {
	}
	return true
}

func (h silentTAS) Exit() { h.p.Write(h.word, 0) }

// TestPassagesRequiresPhaseCS: the battery's seeded driver rejects a lock
// whose successful Enter does not declare rmr.PhaseCS.
func TestPassagesRequiresPhaseCS(t *testing.T) {
	info := locks.Info{Name: "silent-tas", New: func(m *rmr.Memory, _, _ int) (locks.HandleFunc, error) {
		word := m.Alloc(0)
		return func(p *rmr.Proc) locks.Abortable { return silentTAS{p, word} }, nil
	}}
	if _, err := conformance.Passages(info, rmr.CC, 3, 0, 1); err == nil || !strings.Contains(err.Error(), "PhaseCS") {
		t.Fatalf("err = %v, want the missing PhaseCS declaration reported", err)
	}
}
