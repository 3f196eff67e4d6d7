package oneshot

// Bounded exhaustive verification (model checking): every schedule of
// length ≤ MaxSteps of small configurations is explored via rmr.Explorer,
// not sampled. Schedules longer than the bound — necessarily containing
// long busy-wait runs, since honest completions are much shorter — are
// pruned and counted. This is the strongest correctness evidence in the
// suite for the one-shot lock's mutual exclusion and safety under
// adversarial scheduling.

import (
	"fmt"
	"slices"
	"testing"

	"sublock/rmr"
)

// passageBody builds a fresh lock and runs one passage per process, with
// processes whose id is in aborters receiving the abort signal as a
// *scheduled* event: a dedicated signal process performs one shared-memory
// step and then delivers the signal, so the exploration covers every
// possible timing of the abort relative to the victims' steps.
func passageBody(nlock int, w int, adaptive bool, aborters []int) (int, rmr.Body) {
	nprocs := nlock
	signalProc := -1
	if len(aborters) > 0 {
		signalProc = nprocs
		nprocs++
	}
	body := func(s *rmr.Scheduler, maxSteps int) error {
		m := rmr.NewMemory(rmr.CC, nprocs, nil)
		lk, err := New(m, Config{W: w, N: nlock, Adaptive: adaptive})
		if err != nil {
			return err
		}
		m.SetGate(s)
		entered := make([]bool, nlock)
		for i := 0; i < nlock; i++ {
			h := lk.Handle(m.Proc(i))
			s.Go(func() {
				if h.Enter() {
					entered[i] = true
					h.Exit()
				}
			})
		}
		if signalProc >= 0 {
			p := m.Proc(signalProc)
			scratch := m.Alloc(0)
			s.Go(func() {
				// One dummy step places the delivery at every possible
				// point of the explored schedule.
				p.Read(scratch)
				for _, victim := range aborters {
					m.Proc(victim).SignalAbort()
				}
			})
		}
		if err := s.Run(maxSteps); err != nil {
			// Pruned schedule: release everyone and report the step limit.
			for i := 0; i < nprocs; i++ {
				m.Proc(i).SignalAbort()
			}
			s.Drain()
			return err
		}
		// At termination every non-aborter must have completed a passage.
		for i := 0; i < nlock; i++ {
			isAborter := false
			for _, a := range aborters {
				if a == i {
					isAborter = true
				}
			}
			if !isAborter && !entered[i] {
				return fmt.Errorf("process %d starved", i)
			}
		}
		return nil
	}
	return nprocs, body
}

func TestExhaustiveTwoProcsNoAborts(t *testing.T) {
	// Honest completion ≈ 17 steps (two passages + spin re-reads); bound
	// at 20 so only spin-unfair schedules are pruned. Calibration: this
	// exhausts ~88k length-bounded schedules in ~2s.
	nprocs, body := passageBody(2, 2, true, nil)
	e := &rmr.Explorer{MaxSteps: 20}
	res, err := e.Run(nprocs, body)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exhausted {
		t.Fatal("choice tree not exhausted")
	}
	t.Logf("2 procs, no aborts: %d schedules explored, %d pruned", res.Explored, res.Pruned)
	if res.Explored < 100 {
		t.Fatalf("suspiciously few schedules: %+v", res)
	}
}

func TestExhaustiveTwoProcsOneAborter(t *testing.T) {
	// Process 1 receives the signal at a schedule-controlled instant; all
	// timings relative to its doorway/spin/abort within the length bound
	// are covered. It may still enter (granted before noticing) — the body
	// demands mutual exclusion, termination, and process 0's completion.
	nprocs, body := passageBody(2, 2, true, []int{1})
	e := &rmr.Explorer{MaxSteps: 22, MaxSchedules: 80000}
	res, err := e.Run(nprocs, body)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("2 procs + aborter: %d schedules explored, %d pruned (exhausted=%v)",
		res.Explored, res.Pruned, res.Exhausted)
}

func TestExhaustiveThreeProcsCapped(t *testing.T) {
	// Three processes explode combinatorially; cover a 60k-schedule
	// depth-first prefix (every explored schedule is still a full run),
	// explored in parallel to exercise the Workers path on a real lock.
	nprocs, body := passageBody(3, 2, true, nil)
	e := &rmr.Explorer{MaxSteps: 30, MaxSchedules: 50000, Workers: 4}
	res, err := e.Run(nprocs, body)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("3 procs: %d schedules explored, %d pruned (exhausted=%v)",
		res.Explored, res.Pruned, res.Exhausted)
}

func TestExhaustiveParallelEquivalence(t *testing.T) {
	// The Explorer's parallel determinism contract on the real lock: an
	// uncapped exploration must produce exactly the sequential
	// Explored/Pruned/Exhausted at every worker count. The bound is kept
	// below the honest completion length so the tree stays small; pruned
	// schedules dominate, which stresses the accounting equally.
	for _, cfg := range []struct {
		name     string
		nlock    int
		aborters []int
		maxSteps int
	}{
		{"2procs", 2, nil, 17},
		{"2procs+aborter", 2, []int{1}, 14},
		{"3procs", 3, nil, 10},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			nprocs, body := passageBody(cfg.nlock, 2, true, cfg.aborters)
			seq := &rmr.Explorer{MaxSteps: cfg.maxSteps}
			want, err := seq.Run(nprocs, body)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 4, 8} {
				par := &rmr.Explorer{MaxSteps: cfg.maxSteps, Workers: workers}
				got, err := par.Run(nprocs, body)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if got.Explored != want.Explored || got.Pruned != want.Pruned ||
					got.Exhausted != want.Exhausted || !slices.Equal(got.Depths, want.Depths) {
					t.Errorf("workers=%d: Result = %+v, want %+v", workers, got, want)
				}
			}
		})
	}
}

func TestExhaustivePORReduction(t *testing.T) {
	// The reduction's acceptance bar on the E8 aborter configuration: with
	// sleep sets on, the explorer must reach the identical Exhausted verdict
	// and the identical pass/violation outcome while exploring at least 10×
	// fewer complete schedules. The leverage comes from the signal process:
	// its single private read commutes with every lock step, so the full
	// tree repeats the whole contention tree once per placement of that
	// read while the reduced tree keeps one placement per equivalence class.
	nprocs, body := passageBody(2, 4, true, []int{1})
	const maxSteps = 16
	full := &rmr.Explorer{MaxSteps: maxSteps}
	want, err := full.Run(nprocs, body)
	if err != nil {
		t.Fatal(err)
	}
	if !want.Exhausted {
		t.Fatal("full exploration did not exhaust the tree")
	}
	por := &rmr.Explorer{MaxSteps: maxSteps, Reduction: rmr.SleepSets}
	got, err := por.Run(nprocs, body)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Exhausted {
		t.Fatal("reduced exploration did not exhaust the tree")
	}
	t.Logf("full: %d explored (%d replays); por: %d explored (%d replays) — %.1fx fewer",
		want.Explored, want.Replays(), got.Explored, got.Replays(),
		float64(want.Explored)/float64(got.Explored))
	if got.Explored*10 > want.Explored {
		t.Errorf("reduction below 10x: full explored %d, por explored %d", want.Explored, got.Explored)
	}
	if got.Replays() > want.Replays() {
		t.Errorf("por replayed %d > full %d", got.Replays(), want.Replays())
	}
}

func TestExhaustiveVisitedReduction(t *testing.T) {
	// The visited-caching acceptance bar on the same E8 aborter
	// configuration as TestExhaustivePORReduction: stacking the state-hash
	// cache on top of sleep sets must reach the identical Exhausted verdict
	// and pass/violation outcome while replaying at least 2× fewer
	// schedules than POR alone. The leverage comes from re-convergence:
	// different interleavings of the abort race funnel into identical
	// (memory, observation, depth) states, and the cache cuts each
	// re-converged subtree at its root. Measured leverage on this
	// configuration is >100×; the pin is kept at the 2× acceptance bar so
	// fingerprint refinements (which lower hit rates) don't flake the test.
	nprocs, body := passageBody(2, 4, true, []int{1})
	const maxSteps = 16
	por := &rmr.Explorer{MaxSteps: maxSteps, Reduction: rmr.SleepSets}
	want, err := por.Run(nprocs, body)
	if err != nil {
		t.Fatal(err)
	}
	if !want.Exhausted {
		t.Fatal("POR exploration did not exhaust the tree")
	}
	vis := &rmr.Explorer{MaxSteps: maxSteps, Reduction: rmr.SleepSets, Visited: true}
	got, err := vis.Run(nprocs, body)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Exhausted {
		t.Fatal("POR+visited exploration did not exhaust the tree")
	}
	t.Logf("por: %d replays; por+visited: %d replays (%d hits) — %.1fx fewer",
		want.Replays(), got.Replays(), got.VisitedHits,
		float64(want.Replays())/float64(got.Replays()))
	if got.VisitedHits == 0 {
		t.Error("visited cache recorded no hits on the E8 configuration")
	}
	if got.Replays()*2 > want.Replays() {
		t.Errorf("visited caching below 2x: por replayed %d, por+visited %d",
			want.Replays(), got.Replays())
	}
}

func TestExhaustivePlainFindNextVariant(t *testing.T) {
	nprocs, body := passageBody(2, 2, false, []int{0})
	e := &rmr.Explorer{MaxSteps: 22, MaxSchedules: 80000}
	res, err := e.Run(nprocs, body)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("plain variant + aborter: %d schedules explored, %d pruned (exhausted=%v)",
		res.Explored, res.Pruned, res.Exhausted)
}
