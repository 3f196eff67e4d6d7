package rmr

import (
	"errors"
	"fmt"
	"slices"
	"testing"
)

// phasedLockBody runs one passage per process of a test-and-set lock that
// declares its phases, so the Scheduler's mutual-exclusion check sees its
// critical sections. With racy, acquisition is a Read until 0 followed by
// a Write of 1 — two processes can both read 0 — instead of a CAS.
func phasedLockBody(procs int, racy bool) Body {
	return func(s *Scheduler, maxSteps int) error {
		m := NewMemory(CC, procs, s)
		lock := m.Alloc(0)
		for i := 0; i < procs; i++ {
			p := m.Proc(i)
			s.GoProc(i, func() {
				p.EnterPhase(PhaseWaiting)
				if racy {
					for p.Read(lock) != 0 {
					}
					p.Write(lock, 1)
				} else {
					for !p.CAS(lock, 0, 1) {
					}
				}
				p.EnterPhase(PhaseCS)
				p.EnterPhase(PhaseExit)
				p.Write(lock, 0)
				p.EnterPhase(PhaseIdle)
			})
		}
		if err := s.Run(maxSteps); err != nil {
			s.DrainKill()
			return err
		}
		return nil
	}
}

// TestMutualExclusionCheckCatchesRacyLock: the racy lock fails every
// exploration mode with ErrMutualExclusion at the same lexmin schedule,
// and the correct lock passes the same modes.
func TestMutualExclusionCheckCatchesRacyLock(t *testing.T) {
	type mode struct {
		name string
		e    Explorer
	}
	var modes []mode
	for _, w := range []int{1, 2} {
		modes = append(modes,
			mode{fmt.Sprintf("none/w%d", w), Explorer{Workers: w}},
			mode{fmt.Sprintf("visited/w%d", w), Explorer{Workers: w, Visited: true}},
			mode{fmt.Sprintf("por/w%d", w), Explorer{Workers: w, Reduction: SleepSets}},
			mode{fmt.Sprintf("por+visited/w%d", w), Explorer{Workers: w, Reduction: SleepSets, Visited: true}},
			mode{fmt.Sprintf("por+visited+symmetry/w%d", w), Explorer{Workers: w, Reduction: SleepSets, Visited: true, Symmetry: true}},
		)
	}
	for _, procs := range []int{2, 3} {
		var want []int
		for _, md := range modes {
			e := md.e
			e.MaxSteps = 4 * procs
			_, err := e.Run(procs, phasedLockBody(procs, true))
			var ee *ErrExplore
			if !errors.As(err, &ee) || !errors.Is(err, ErrMutualExclusion) {
				t.Fatalf("n=%d %s: err = %v, want a mutual-exclusion violation", procs, md.name, err)
			}
			if want == nil {
				want = ee.Schedule
			} else if !slices.Equal(ee.Schedule, want) {
				t.Errorf("n=%d %s: schedule %v, want %v", procs, md.name, ee.Schedule, want)
			}
			e.MaxSteps = 3 * procs
			if res, err := e.Run(procs, phasedLockBody(procs, false)); err != nil || res.Explored == 0 {
				t.Errorf("n=%d %s: correct lock: %d explored, err = %v", procs, md.name, res.Explored, err)
			}
		}
		if len(want) == 0 {
			t.Fatalf("n=%d: empty violating schedule", procs)
		}
	}
}

// TestMutualExclusionHoldingRule scripts the holding rule with a
// Controller: a process in PhaseExit holds until its first exit operation
// executes, and a crashed holder holds for the rest of the run.
func TestMutualExclusionHoldingRule(t *testing.T) {
	setup := func() (*Controller, *Memory, Addr) {
		c := NewController(2)
		m := NewMemory(CC, 2, nil)
		a := m.Alloc(0)
		m.SetGate(c)
		return c, m, a
	}
	holder := func(m *Memory, a Addr) func() {
		return func() {
			p := m.Proc(0)
			p.Read(a)
			p.EnterPhase(PhaseCS)
			p.EnterPhase(PhaseExit)
			p.Write(a, 0) // first exit operation
			p.Read(a)
			p.EnterPhase(PhaseIdle)
		}
	}
	enter := func(m *Memory, a Addr) func() {
		return func() {
			p := m.Proc(1)
			p.Read(a)
			p.EnterPhase(PhaseCS)
			p.EnterPhase(PhaseIdle)
		}
	}

	// Holder parked at its first exit operation: still holds.
	c, m, a := setup()
	c.Go(0, holder(m, a))
	c.Go(1, enter(m, a))
	c.Step(0) // holder enters the CS and parks at its exit write
	c.Step(1)
	if err := c.Err(); !errors.Is(err, ErrMutualExclusion) {
		t.Fatalf("entry while the holder waits at its first exit operation: err = %v, want ErrMutualExclusion", err)
	}
	var fe *FaultError
	if !errors.As(c.Err(), &fe) || fe.Fault.Proc != 1 || fe.Fault.Op != 0 || fe.Fault.Kind != FaultMutualExclusion {
		t.Fatalf("fault = %+v, want process 1 entering over holder 0", fe)
	}
	c.Wait()

	// Once the first exit operation executed, the holder has released.
	c, m, a = setup()
	c.Go(0, holder(m, a))
	c.Go(1, enter(m, a))
	c.StepN(0, 2) // CS, then the exit write; parks at the next read
	c.Step(1)
	if err := c.Err(); err != nil {
		t.Fatalf("entry after the holder's first exit operation: err = %v", err)
	}
	c.Wait()

	// A crashed holder keeps holding.
	c, m, a = setup()
	c.Go(0, holder(m, a))
	c.Go(1, enter(m, a))
	c.Crash(0) // strikes the holder's next attempt, its exit write
	c.Step(0)  // the holder enters the CS and crash-stops in PhaseExit
	c.Step(1)
	if err := c.Err(); !errors.Is(err, ErrMutualExclusion) {
		t.Fatalf("entry after the holder crashed: err = %v, want ErrMutualExclusion", err)
	}
	c.Wait()
}

// racer describes a lock that excludes only its holders: the holder takes
// word A by CAS and releases it, while the racer reads A until it is 0 and
// then writes word B instead of taking A — so the racer can enter while
// the holder holds, and the holder while the racer holds.
type racer struct {
	procs, racer, holder int
	spinner              int  // a process that reads a word of its own forever, or -1
	racerExitOp          bool // the racer writes B back in its exit protocol; without it, it holds no longer than its PhaseCS declaration
	holderFirst          bool // the holder reads A once before its first CAS
	holderLast           bool // the holder reads A once after its passage
}

func (rc racer) body() Body {
	return func(s *Scheduler, maxSteps int) error {
		m := NewMemory(CC, rc.procs, s)
		a, b, f := m.Alloc(0), m.Alloc(0), m.Alloc(0)
		if rc.spinner >= 0 {
			p := m.Proc(rc.spinner)
			s.GoProc(rc.spinner, func() {
				for p.Read(f) == 0 {
				}
			})
		}
		r := m.Proc(rc.racer)
		s.GoProc(rc.racer, func() {
			for r.Read(a) != 0 {
			}
			r.Write(b, 1)
			r.EnterPhase(PhaseCS)
			r.EnterPhase(PhaseExit)
			if rc.racerExitOp {
				r.Write(b, 0)
			}
			r.EnterPhase(PhaseIdle)
		})
		h := m.Proc(rc.holder)
		s.GoProc(rc.holder, func() {
			if rc.holderFirst {
				h.Read(a)
			}
			for !h.CAS(a, 0, 1) {
			}
			h.EnterPhase(PhaseCS)
			h.EnterPhase(PhaseExit)
			h.Write(a, 0)
			h.EnterPhase(PhaseIdle)
			if rc.holderLast {
				h.Read(a)
			}
		})
		if err := s.Run(maxSteps); err != nil {
			s.DrainKill()
			return err
		}
		return nil
	}
}

// lateRacerBody is a lock whose racer enters on seeing the lock word set
// by anyone: process 0 sets word A, process 1 reads A and, if it reads 1,
// writes word B and enters the critical section, and process 2 reads A
// once, then takes A by CAS, enters, and releases A. So the racer enters
// while the holder holds when the holder's CAS comes first, and enters
// alone — learning what follows each of its steps — when the setter's
// write does.
func lateRacerBody(s *Scheduler, maxSteps int) error {
	m := NewMemory(CC, 3, s)
	a, b := m.Alloc(0), m.Alloc(0)
	st, r, h := m.Proc(0), m.Proc(1), m.Proc(2)
	s.GoProc(0, func() { st.Write(a, 1) })
	s.GoProc(1, func() {
		if r.Read(a) == 1 {
			r.Write(b, 1)
			r.EnterPhase(PhaseCS)
			r.EnterPhase(PhaseExit)
			r.EnterPhase(PhaseIdle)
		}
	})
	s.GoProc(2, func() {
		h.Read(a)
		for !h.CAS(a, 0, 1) {
		}
		h.EnterPhase(PhaseCS)
		h.EnterPhase(PhaseExit)
		h.Write(a, 0)
		h.EnterPhase(PhaseIdle)
	})
	if err := s.Run(maxSteps); err != nil {
		s.DrainKill()
		return err
	}
	return nil
}

// TestMutualExclusionNotPredictedThrough: the explorer's replay
// prediction must not count a replay that declares PhaseCS while another
// process holds the critical section, even when an earlier replay
// learned, with nobody holding, what the process does after that step.
//
//   - bound: the lexmin violation is the holder's CAS while the racer
//     holds, the branch step of its task and the last step the bound
//     allows; the spinner keeps it a sibling choice, and the holder
//     learned that it parks after the same CAS in schedule [0 0 0 2 2];
//   - branch: the lexmin violation is the racer's write of B while the
//     holder holds, the branch step of its task. The racer then exits, so
//     the holder is the only process left to pick, and its release
//     reaches the state schedule [1 0 0 1] recorded as visited (the holder
//     enters and leaves, then the racer writes and exits), where the racer
//     learned that it exits after the same write;
//   - three below: the lexmin violation [2 2 0 0 0] is lateRacerBody's
//     racer writing B three steps below the holder's CAS, its task's
//     branch. The walk from that branch passes the setter's write and the
//     racer's read of 1, both learned in schedule [0 0 0], where the racer
//     also learned what follows its write; the step after it is the last
//     the bound allows.
//
// Each case must fail with ErrMutualExclusion at the same lexmin schedule
// with the prediction on and off.
func TestMutualExclusionNotPredictedThrough(t *testing.T) {
	cases := []struct {
		name     string
		procs    int
		body     Body
		maxSteps int
		want     []int
	}{
		{"bound", 3, racer{procs: 3, spinner: 0, racer: 1, holder: 2, racerExitOp: true, holderFirst: true}.body(), 5, []int{0, 1, 1, 2, 2}},
		{"branch", 2, racer{procs: 2, spinner: -1, racer: 1, holder: 0, holderLast: true}.body(), 6, []int{1, 0, 1}},
		{"three below", 3, lateRacerBody, 5, []int{2, 2, 0, 0, 0}},
	}
	for _, tc := range cases {
		for _, red := range []Reduction{NoReduction, SleepSets} {
			for _, predict := range []bool{false, true} {
				e := &Explorer{MaxSteps: tc.maxSteps, Visited: true, Reduction: red, noPredict: !predict}
				_, err := e.Run(tc.procs, tc.body)
				var ee *ErrExplore
				if !errors.As(err, &ee) || !errors.Is(err, ErrMutualExclusion) {
					t.Errorf("%s reduction=%d predict=%v: err = %v, want a mutual-exclusion violation", tc.name, red, predict, err)
					continue
				}
				if !slices.Equal(ee.Schedule, tc.want) {
					t.Errorf("%s reduction=%d predict=%v: schedule %v, want %v", tc.name, red, predict, ee.Schedule, tc.want)
				}
			}
		}
	}
}
