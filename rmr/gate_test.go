package rmr

import (
	"errors"
	"runtime"
	"testing"
	"time"
)

// runCounters runs n processes that each FAA a shared counter `per` times
// under the given scheduler and returns the final counter value.
func runCounters(t *testing.T, n, per int, pick PickFunc, maxSteps int) (uint64, error) {
	t.Helper()
	s := NewScheduler(n, pick)
	m := NewMemory(CC, n, s)
	a := m.Alloc(0)
	for i := 0; i < n; i++ {
		p := m.Proc(i)
		s.Go(func() {
			for j := 0; j < per; j++ {
				p.FAA(a, 1)
			}
		})
	}
	err := s.Run(maxSteps)
	if err != nil {
		s.Drain()
	}
	return m.Peek(a), err
}

func TestSchedulerRunsAll(t *testing.T) {
	got, err := runCounters(t, 5, 20, RandomPick(1), 1_000_000)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got != 100 {
		t.Fatalf("counter = %d, want 100", got)
	}
}

func TestSchedulerRoundRobin(t *testing.T) {
	got, err := runCounters(t, 4, 10, RoundRobinPick(), 1_000_000)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got != 40 {
		t.Fatalf("counter = %d, want 40", got)
	}
}

func TestSchedulerStepLimit(t *testing.T) {
	_, err := runCounters(t, 2, 1000, RandomPick(7), 10)
	if !errors.Is(err, ErrStepLimit) {
		t.Fatalf("err = %v, want ErrStepLimit", err)
	}
}

func TestSchedulerDeterminism(t *testing.T) {
	// The same seed must produce the same interleaving. Record the order of
	// winners of a CAS race across two runs.
	run := func(seed int64) []uint64 {
		const n = 4
		s := NewScheduler(n, RandomPick(seed))
		m := NewMemory(CC, n, s)
		a := m.Alloc(0)
		log := m.Alloc(0) // accumulates winner ids in base-8 digits
		for i := 0; i < n; i++ {
			p := m.Proc(i)
			s.Go(func() {
				for !p.CAS(a, 0, uint64(p.ID())+1) {
					p.Read(a)
				}
				p.FAA(log, uint64(p.ID())+1)
				p.Write(a, 0)
			})
		}
		if err := s.Run(1_000_000); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return []uint64{m.Peek(log)}
	}
	for seed := int64(1); seed <= 5; seed++ {
		a, b := run(seed), run(seed)
		if a[0] != b[0] {
			t.Fatalf("seed %d: runs diverged: %v vs %v", seed, a, b)
		}
	}
}

func TestPreferPick(t *testing.T) {
	// With process 1 preferred, it should finish all its steps before
	// process 0 takes any (both only FAA, so both are always ready).
	const n = 2
	s := NewScheduler(n, PreferPick([]int{1}, RandomPick(3)))
	m := NewMemory(CC, n, s)
	a := m.Alloc(0)
	firstSeen := m.Alloc(0) // records the first writer: 0 means proc1 won
	for i := 0; i < n; i++ {
		p := m.Proc(i)
		s.Go(func() {
			p.CAS(firstSeen, 0, uint64(p.ID())+1)
			for j := 0; j < 5; j++ {
				p.FAA(a, 1)
			}
		})
	}
	if err := s.Run(1_000_000); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := m.Peek(firstSeen); got != 2 {
		t.Fatalf("first CAS winner token = %d, want 2 (process 1)", got)
	}
}

func TestControllerStepByStep(t *testing.T) {
	c := NewController(2)
	m := NewMemory(CC, 2, c)
	a := m.Alloc(0)
	p0, p1 := m.Proc(0), m.Proc(1)

	c.Go(0, func() {
		p0.Write(a, 1)
		p0.Write(a, 2)
		p0.Write(a, 3)
	})
	c.Go(1, func() {
		p1.Write(a, 100)
	})

	if !c.Step(0) {
		t.Fatal("Step(0) reported finished too early")
	}
	if got := m.Peek(a); got != 1 {
		t.Fatalf("after step 1: a = %d, want 1", got)
	}
	c.Step(1) // p1 writes 100 and finishes
	if got := m.Peek(a); got != 100 {
		t.Fatalf("after p1: a = %d, want 100", got)
	}
	steps := c.Finish(0, 100)
	if steps != 2 {
		t.Fatalf("Finish(0) = %d steps, want 2", steps)
	}
	if got := m.Peek(a); got != 3 {
		t.Fatalf("final a = %d, want 3", got)
	}
	c.Wait()
	if !c.Finished(0) || !c.Finished(1) {
		t.Fatal("processes not marked finished")
	}
}

func TestControllerStepN(t *testing.T) {
	c := NewController(1)
	m := NewMemory(CC, 1, c)
	a := m.Alloc(0)
	p := m.Proc(0)
	c.Go(0, func() {
		for i := 0; i < 4; i++ {
			p.FAA(a, 1)
		}
	})
	if got := c.StepN(0, 2); got != 2 {
		t.Fatalf("StepN = %d, want 2", got)
	}
	if got := m.Peek(a); got != 2 {
		t.Fatalf("a = %d, want 2", got)
	}
	c.Wait()
	if got := m.Peek(a); got != 4 {
		t.Fatalf("final a = %d, want 4", got)
	}
}

func TestControllerDoubleLaunchPanics(t *testing.T) {
	c := NewController(1)
	c.Go(0, func() {})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
		c.Wait()
	}()
	c.Go(0, func() {})
}

func TestGatedAbortSignal(t *testing.T) {
	// A process spinning under the scheduler escapes via its abort signal,
	// demonstrating the harness pattern used for liveness tests.
	s := NewScheduler(1, RandomPick(1))
	m := NewMemory(CC, 1, s)
	a := m.Alloc(0)
	p := m.Proc(0)
	aborted := false
	s.Go(func() {
		for p.Read(a) == 0 {
			if p.AbortSignal() {
				aborted = true
				return
			}
		}
	})
	if err := s.Run(100); !errors.Is(err, ErrStepLimit) {
		t.Fatalf("Run = %v, want ErrStepLimit", err)
	}
	p.SignalAbort()
	s.Drain()
	if !aborted {
		t.Fatal("process did not abort")
	}
	p.ClearAbort()
	if p.AbortSignal() {
		t.Fatal("ClearAbort did not clear the signal")
	}
}

// awaitGoroutines waits briefly for the goroutine count to fall back to
// base — goroutines a finished shape ended may still be on their way out —
// and fails the test naming the shape if it does not.
func awaitGoroutines(t *testing.T, shape string, base int) {
	t.Helper()
	var n int
	for i := 0; i < 200; i++ {
		if n = runtime.NumGoroutine(); n <= base {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("%s: %d goroutines after 200 runs, want %d: process coroutines leaked", shape, n, base)
}

// TestSchedulerLeavesNoGoroutines: every way a schedule can end stops the
// process coroutines it started. Each shape runs 200 times on fresh
// schedulers (and Explorer.Run on its reused ones), so a single leaked
// coroutine per run shows up as hundreds.
func TestSchedulerLeavesNoGoroutines(t *testing.T) {
	spin := func(s *Scheduler, n int) (*Memory, Addr) {
		m := NewMemory(CC, n, s)
		lock := m.Alloc(0)
		for i := 0; i < n; i++ {
			p := m.Proc(i)
			s.GoProc(i, func() {
				for !p.CAS(lock, 0, 1) {
					if p.AbortSignal() {
						return
					}
				}
				p.Write(lock, 0)
			})
		}
		return m, lock
	}
	shapes := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"Go run to completion", func(t *testing.T) {
			if _, err := runCounters(t, 3, 4, RandomPick(1), 1000); err != nil {
				t.Fatal(err)
			}
		}},
		{"GoProc run", func(t *testing.T) {
			s := NewScheduler(3, RandomPick(2))
			spin(s, 3)
			if err := s.Run(1000); err != nil {
				t.Fatal(err)
			}
		}},
		{"step-limit stall then Drain", func(t *testing.T) {
			s := NewScheduler(3, RandomPick(3))
			m, _ := spin(s, 3)
			if err := s.Run(4); !errors.Is(err, ErrStepLimit) {
				t.Fatalf("Run = %v, want ErrStepLimit", err)
			}
			for i := 0; i < 3; i++ {
				m.Proc(i).SignalAbort()
			}
			s.Drain()
		}},
		{"DrainKill after a crash plan", func(t *testing.T) {
			// Process 0 takes the lock and crashes before releasing it; the
			// others spin on it without ever checking an abort signal.
			s := NewScheduler(3, RoundRobinPick())
			s.SetFaultPlan(&FaultPlan{Faults: []FaultSpec{{Proc: 0, Kind: FaultCrash, Op: 2}}})
			m := NewMemory(CC, 3, s)
			lock := m.Alloc(0)
			for i := 0; i < 3; i++ {
				p := m.Proc(i)
				s.GoProc(i, func() {
					for !p.CAS(lock, 0, 1) {
					}
					p.Write(lock, 0)
				})
			}
			if err := s.Run(50); !errors.Is(err, ErrStepLimit) {
				t.Fatalf("Run = %v, want ErrStepLimit", err)
			}
			s.DrainKill()
		}},
		{"contained panic", func(t *testing.T) {
			s := NewScheduler(2, RoundRobinPick())
			m := NewMemory(CC, 2, s)
			a := m.Alloc(0)
			p0, p1 := m.Proc(0), m.Proc(1)
			s.Go(func() { p0.FAA(a, 1); p0.FAA(a, 1) })
			s.Go(func() { p1.FAA(a, 1); panic("boom") })
			if err := s.Run(100); !errors.Is(err, ErrPanicked) {
				t.Fatalf("Run = %v, want ErrPanicked", err)
			}
		}},
		{"crash-restart plan", func(t *testing.T) {
			s := NewScheduler(2, RoundRobinPick())
			m := NewMemory(CC, 2, s)
			a := m.Alloc(0)
			s.SetFaultPlan(&FaultPlan{
				Faults: []FaultSpec{{Proc: 0, Kind: FaultRestart, Op: 2, Delay: 3}},
				Restart: func(pid int) func() {
					p := m.Proc(pid)
					return func() { p.FAA(a, 1) }
				},
			})
			for i := 0; i < 2; i++ {
				p := m.Proc(i)
				s.Go(func() {
					for j := 0; j < 3; j++ {
						p.FAA(a, 1)
					}
				})
			}
			if err := s.Run(100); err != nil {
				t.Fatal(err)
			}
		}},
		{"Explorer.Run with one worker", func(t *testing.T) {
			e := &Explorer{MaxSteps: 6, Workers: 1, Reduction: SleepSets}
			if _, err := e.Run(3, spinLockBody); err != nil {
				t.Fatal(err)
			}
		}},
		{"Explorer.Run with two workers", func(t *testing.T) {
			e := &Explorer{MaxSteps: 6, Workers: 2, Reduction: SleepSets}
			if _, err := e.Run(3, spinLockBody); err != nil {
				t.Fatal(err)
			}
		}},
	}
	base := runtime.NumGoroutine()
	for _, sh := range shapes {
		for i := 0; i < 200; i++ {
			sh.run(t)
		}
		awaitGoroutines(t, sh.name, base)
	}
}

// TestDrainDeterministic: Drain runs the released processes in turns of
// one operation each, in id order, so the state a drain leaves behind is
// a function of the schedule. The same stalled schedule, drained 50 times,
// must leave identical per-process RMR counts and identical memory.
func TestDrainDeterministic(t *testing.T) {
	const n, words = 3, 3
	type outcome struct {
		rmrs, steps [n]int64
		vals        [words]uint64
	}
	run := func() outcome {
		s := NewScheduler(n, RandomPick(11))
		m := NewMemory(CC, n, s)
		lock := m.Alloc(0)
		count := m.Alloc(0)
		last := m.Alloc(0)
		for i := 0; i < n; i++ {
			p := m.Proc(i)
			s.Go(func() {
				for j := 0; j < 5; j++ {
					for !p.CAS(lock, 0, 1) {
					}
					p.FAA(count, 1)
					p.Write(lock, 0)
					p.Read(last)
					p.Write(last, uint64(p.ID())+1)
				}
			})
		}
		if err := s.Run(12); !errors.Is(err, ErrStepLimit) {
			t.Fatalf("Run = %v, want ErrStepLimit", err)
		}
		s.Drain()
		var o outcome
		for i := 0; i < n; i++ {
			o.rmrs[i], o.steps[i] = m.Proc(i).RMRs(), m.Proc(i).Steps()
		}
		for a := 0; a < words; a++ {
			o.vals[a] = m.Peek(Addr(a))
		}
		return o
	}
	want := run()
	if want.vals[1] != n*5 {
		t.Fatalf("count = %d after Drain, want %d", want.vals[1], n*5)
	}
	for i := 1; i < 50; i++ {
		if got := run(); got != want {
			t.Fatalf("drain %d left %+v, first drain left %+v", i, got, want)
		}
	}
}

// TestDrainKillDropsUnstartedProcesses: DrainKill drops a GoProc process
// the schedule never granted a step without ever running its body, and
// unwinds a started one; afterwards no process is live and the scheduler
// runs its next schedule normally.
func TestDrainKillDropsUnstartedProcesses(t *testing.T) {
	s := NewScheduler(2, func(step int, _ []int) int {
		if step == 0 {
			return 0 // grant process 0 its first step, then stall the run
		}
		return -1
	})
	m := NewMemory(CC, 2, s)
	a := m.Alloc(0)
	var ran [2]bool
	for i := 0; i < 2; i++ {
		p := m.Proc(i)
		s.GoProc(i, func() {
			ran[i] = true
			for {
				p.FAA(a, 1)
			}
		})
	}
	if err := s.Run(100); !errors.Is(err, ErrStepLimit) {
		t.Fatalf("Run = %v, want ErrStepLimit", err)
	}
	s.DrainKill()
	if !ran[0] || ran[1] {
		t.Fatalf("ran = %v: want process 0 started and unwound, process 1 never started", ran)
	}
	if s.live != 0 || s.deferred[1] != nil {
		t.Fatalf("after DrainKill: %d live, deferred body kept = %v", s.live, s.deferred[1] != nil)
	}
	s.reset()
	s.pick = RoundRobinPick()
	p, done := m.Proc(1), false
	s.GoProc(1, func() { p.FAA(a, 1); done = true })
	if err := s.Run(10); err != nil || !done {
		t.Fatalf("next run after DrainKill: err %v, body done %v", err, done)
	}
}
