package rmr

import (
	"errors"
	"fmt"
	"slices"
	"testing"
)

// spinLockBodyGo is spinLockBody with processes launched through Go
// instead of GoProc. The two launch paths must explore identical trees.
func spinLockBodyGo(s *Scheduler, maxSteps int) error {
	const procs = 3
	m := NewMemory(CC, procs, s)
	lock := m.Alloc(0)
	count := m.Alloc(0)
	for i := 0; i < procs; i++ {
		p := m.Proc(i)
		s.Go(func() {
			for !p.CAS(lock, 0, 1) {
				if p.AbortSignal() {
					return
				}
			}
			p.FAA(count, 1)
			p.Write(lock, 0)
		})
	}
	if err := s.Run(maxSteps); err != nil {
		for i := 0; i < procs; i++ {
			m.Proc(i).SignalAbort()
		}
		s.Drain()
		return err
	}
	if got := m.Peek(count); got != procs {
		return fmt.Errorf("count = %d, want %d", got, procs)
	}
	return nil
}

// buggyLockBody is a deliberately broken test-and-set lock (the test and
// the set are separate steps), used to check that parallel exploration
// reports the same — lexicographically smallest — violating schedule the
// sequential search finds first.
func buggyLockBody(s *Scheduler, maxSteps int) error {
	const procs = 2
	m := NewMemory(CC, procs, s)
	lock := m.Alloc(0)
	inCS := m.Alloc(0)
	bad := m.Alloc(0)
	for i := 0; i < procs; i++ {
		p := m.Proc(i)
		s.GoProc(i, func() {
			for p.Read(lock) != 0 {
				if p.AbortSignal() {
					return
				}
			}
			p.Write(lock, 1) // too late: another tester may be past the gate
			if p.FAA(inCS, 1) > 0 {
				p.Write(bad, 1)
			}
			p.FAA(inCS, ^uint64(0))
			p.Write(lock, 0)
		})
	}
	if err := s.Run(maxSteps); err != nil {
		for i := 0; i < procs; i++ {
			m.Proc(i).SignalAbort()
		}
		s.Drain()
		return err
	}
	if m.Peek(bad) != 0 {
		return errors.New("mutual exclusion violated")
	}
	return nil
}

// TestParallelEquivalence: an uncapped parallel exploration must produce
// exactly the sequential Result — same Explored, same Pruned, same
// Exhausted — at every worker count, for both launch styles.
func TestParallelEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name     string
		body     Body
		maxSteps int
	}{
		{"spinlock-goproc", spinLockBody, 11},
		{"spinlock-go", spinLockBodyGo, 11},
	} {
		t.Run(tc.name, func(t *testing.T) {
			seq := &Explorer{MaxSteps: tc.maxSteps}
			want, err := seq.Run(3, tc.body)
			if err != nil {
				t.Fatal(err)
			}
			if want.Explored == 0 {
				t.Fatal("sequential run explored nothing")
			}
			for _, workers := range []int{2, 4, 8} {
				par := &Explorer{MaxSteps: tc.maxSteps, Workers: workers}
				got, err := par.Run(3, tc.body)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if !resultsEqual(got, want) {
					t.Errorf("workers=%d: Result = %+v, want %+v", workers, got, want)
				}
			}
		})
	}
}

// TestGoAndGoProcEquivalent: the deferred-start launch path must explore
// the same tree as plain Go launches for a body that touches nothing
// shared before its first gated operation.
func TestGoAndGoProcEquivalent(t *testing.T) {
	a := &Explorer{MaxSteps: 11}
	ra, err := a.Run(3, spinLockBody)
	if err != nil {
		t.Fatal(err)
	}
	b := &Explorer{MaxSteps: 11}
	rb, err := b.Run(3, spinLockBodyGo)
	if err != nil {
		t.Fatal(err)
	}
	if !resultsEqual(ra, rb) {
		t.Fatalf("GoProc result %+v != Go result %+v", ra, rb)
	}
}

// resultsEqual compares Results including the depth histogram, which must
// itself be deterministic for uncapped runs at any worker count.
func resultsEqual(a, b Result) bool {
	return a.Explored == b.Explored && a.Pruned == b.Pruned &&
		a.Equivalent == b.Equivalent && a.VisitedHits == b.VisitedHits &&
		a.SymmetryCuts == b.SymmetryCuts && a.Exhausted == b.Exhausted &&
		a.VisitedSaturated == b.VisitedSaturated &&
		slices.Equal(a.Depths, b.Depths)
}

// TestParallelViolationDeterministic: on a buggy body the parallel search
// must report the very schedule the sequential DFS finds first — the
// lexicographically smallest violation — at every worker count.
func TestParallelViolationDeterministic(t *testing.T) {
	const maxSteps = 12
	seq := &Explorer{MaxSteps: maxSteps}
	_, err := seq.Run(2, buggyLockBody)
	var want *ErrExplore
	if !errors.As(err, &want) {
		t.Fatalf("sequential run found no violation: %v", err)
	}
	for _, workers := range []int{2, 4, 8} {
		par := &Explorer{MaxSteps: maxSteps, Workers: workers}
		_, err := par.Run(2, buggyLockBody)
		var got *ErrExplore
		if !errors.As(err, &got) {
			t.Fatalf("workers=%d: no violation: %v", workers, err)
		}
		if fmt.Sprint(got.Schedule) != fmt.Sprint(want.Schedule) {
			t.Errorf("workers=%d: schedule %v, want %v", workers, got.Schedule, want.Schedule)
		}
		// Replaying the reported schedule must reproduce the violation.
		rp := newReplayer(2, exploreConfig{maxSteps: maxSteps, red: NoReduction})
		if rerr := rp.run(got.Schedule, buggyLockBody, maxSteps); rerr == nil {
			t.Errorf("workers=%d: reported schedule does not reproduce", workers)
		}
		rp.close()
	}
}

// counterBody runs three processes through a fixed sequence of four
// operations on two shared words: no process waits on another, so every
// run completes within a bound of 12 steps.
func counterBody(s *Scheduler, maxSteps int) error {
	const procs = 3
	m := NewMemory(CC, procs, s)
	a, b := m.Alloc(0), m.Alloc(0)
	for i := 0; i < procs; i++ {
		p := m.Proc(i)
		s.GoProc(i, func() {
			p.FAA(a, 1)
			p.Write(b, uint64(i+1))
			p.FAA(a, 1)
			p.Read(b)
		})
	}
	if err := s.Run(maxSteps); err != nil {
		return err
	}
	if got := m.Peek(a); got != 2*procs {
		return fmt.Errorf("counter = %d, want %d", got, 2*procs)
	}
	return nil
}

// TestParallelGrowthEquivalence: a visited exploration whose set starts at
// 256 slots and grows several times counts the same Result at Workers 1
// and 2. No run of its body reaches the step bound, so which of two
// racing workers records a state first moves no count (docs/MODEL.md,
// "Determinism scope"); a key lost in a growth would. (The 31 slots held
// back at 256 take the at most 2·12 states two tasks record between the
// request and the growth.)
func TestParallelGrowthEquivalence(t *testing.T) {
	run := func(workers int) (Result, int) {
		e := &Explorer{Visited: true, Workers: workers}
		cfg := e.config(3)
		releaseVisitedSet(cfg.set)
		cfg.set = newVisitedSet(256, 1<<16)
		res, err := e.runParallel(3, counterBody, cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res, len(cfg.set.slots)
	}
	want, size := run(1)
	if size < 1024 || want.VisitedSaturated || want.VisitedHits == 0 || want.Pruned != 0 || !want.Exhausted {
		t.Fatalf("workers=1: %d slots, %+v; want a set grown at least twice, unsaturated, with visited hits and nothing pruned", size, want)
	}
	t.Logf("workers=1: %d slots, %+v", size, want)
	for i := 0; i < 5; i++ {
		if got, _ := run(2); !resultsEqual(got, want) {
			t.Errorf("workers=2: %+v, want %+v", got, want)
		}
	}
}
