package rmr

import (
	"errors"
	"fmt"
	"testing"
)

// TestExploreCountsInterleavings: two processes issuing 2 ops each have
// C(4,2) = 6 interleavings; the explorer must enumerate exactly those.
func TestExploreCountsInterleavings(t *testing.T) {
	e := &Explorer{}
	res, err := e.Run(2, func(s *Scheduler, maxSteps int) error {
		m := NewMemory(CC, 2, s)
		a := m.Alloc(0)
		for i := 0; i < 2; i++ {
			p := m.Proc(i)
			s.Go(func() {
				p.FAA(a, 1)
				p.FAA(a, 1)
			})
		}
		if err := s.Run(maxSteps); err != nil {
			return err
		}
		if got := m.Peek(a); got != 4 {
			return fmt.Errorf("counter = %d, want 4", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exhausted {
		t.Fatal("tree not exhausted")
	}
	if res.Explored != 6 || res.Pruned != 0 {
		t.Fatalf("explored %d (pruned %d) schedules, want 6 (0)", res.Explored, res.Pruned)
	}
}

// TestExploreFindsViolation: a property that fails only in one specific
// interleaving must be found, and the reported schedule must reproduce it.
func TestExploreFindsViolation(t *testing.T) {
	body := func(s *Scheduler, maxSteps int) error {
		m := NewMemory(CC, 2, s)
		a := m.Alloc(0)
		var observed [2]uint64
		for i := 0; i < 2; i++ {
			i := i
			p := m.Proc(i)
			s.Go(func() {
				p.Write(a, uint64(i)+1)
				observed[i] = p.Read(a)
			})
		}
		if err := s.Run(maxSteps); err != nil {
			return err
		}
		// "Violation": both processes saw their own write survive — true
		// in some interleavings only.
		if observed[0] == 1 && observed[1] == 2 {
			return errors.New("both writes survived")
		}
		return nil
	}
	e := &Explorer{}
	_, err := e.Run(2, body)
	var ee *ErrExplore
	if !errors.As(err, &ee) {
		t.Fatalf("err = %v, want *ErrExplore", err)
	}
	if len(ee.Schedule) == 0 {
		t.Fatal("violation schedule empty")
	}
	// Replay: forcing the reported schedule must reproduce the violation.
	rec := &recorder{prefix: ee.Schedule}
	s := NewScheduler(2, rec.pick)
	if replayErr := body(s, 100000); replayErr == nil {
		t.Fatal("replaying the reported schedule did not reproduce the violation")
	}
}

// TestExploreMaxSchedules: the cap stops the search unexhausted. One worker
// stops at the cap; with more, a worker may finish the replay it holds when
// another reaches the cap, so up to Workers−1 replays land beyond it.
func TestExploreMaxSchedules(t *testing.T) {
	const maxSchedules = 3
	for _, workers := range []int{1, 2} {
		// Two processes of two steps each: six schedules.
		e := &Explorer{MaxSchedules: maxSchedules, Workers: workers}
		res, err := e.Run(2, func(s *Scheduler, maxSteps int) error {
			m := NewMemory(CC, 2, s)
			a := m.Alloc(0)
			for i := 0; i < 2; i++ {
				p := m.Proc(i)
				s.Go(func() {
					p.FAA(a, 1)
					p.FAA(a, 1)
				})
			}
			return s.Run(maxSteps)
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Exhausted {
			t.Errorf("workers=%d: reported exhausted despite the cap", workers)
		}
		if n := res.Replays(); n < maxSchedules || n > maxSchedules+workers-1 {
			t.Errorf("workers=%d: %d replays, want %d to %d", workers, n, maxSchedules, maxSchedules+workers-1)
		}
		if res.Explored != res.Replays() {
			t.Errorf("workers=%d: %d of %d replays explored, want all", workers, res.Explored, res.Replays())
		}
	}
}

// TestExploreSingleProcess: one process has exactly one schedule.
func TestExploreSingleProcess(t *testing.T) {
	e := &Explorer{}
	res, err := e.Run(1, func(s *Scheduler, maxSteps int) error {
		m := NewMemory(CC, 1, s)
		a := m.Alloc(0)
		p := m.Proc(0)
		s.Go(func() {
			p.Write(a, 1)
			p.Write(a, 2)
			p.Write(a, 3)
		})
		return s.Run(maxSteps)
	})
	if err != nil || !res.Exhausted || res.Explored != 1 {
		t.Fatalf("res=%+v err=%v, want 1 explored, exhausted, nil", res, err)
	}
}

// TestExploreStepLimit: schedules that hit the step bound are pruned —
// counted, backtracked past, and never reported as violations.
func TestExploreStepLimit(t *testing.T) {
	e := &Explorer{MaxSteps: 16}
	res, err := e.Run(1, func(s *Scheduler, maxSteps int) error {
		m := NewMemory(CC, 1, s)
		a := m.Alloc(0)
		p := m.Proc(0)
		s.Go(func() {
			for p.Read(a) == 0 { // spins until aborted; nobody writes a
				if p.AbortSignal() {
					return
				}
			}
		})
		err := s.Run(maxSteps)
		if err != nil {
			p.SignalAbort()
			s.Drain()
		}
		return err
	})
	if err != nil {
		t.Fatalf("pruning must not report a violation, got %v", err)
	}
	if res.Pruned != 1 || res.Explored != 0 || !res.Exhausted {
		t.Fatalf("res = %+v, want exactly one pruned schedule and exhaustion", res)
	}
}
