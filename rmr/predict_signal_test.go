package rmr

import (
	"reflect"
	"testing"
)

// Abort signals raised by a process's own continuation. The learn table
// records which abort flags a continuation sets when nothing else moved
// Memory.epoch since the operation it follows (Scheduler.noteSignal), and
// the walk then steps the signalling process like any other. These bodies
// hold that to what it promises: a continuation that only signals is
// learned and predicted, one that also allocates or clears a flag stays
// unpredictable, and one whose signals differ under the same control
// history becomes unpredictable.

// Every signal body allocates the words a, b and c in that order, so the
// signallers read address sigAddr.
const sigAddr Addr = 2

// signalBody runs two targets, processes 0 and 1, each of which reads a up
// to four times and writes its id to b as soon as it sees its abort flag,
// and the signallers, processes 2 and up, each of which runs its own body
// on the word c. setup runs on the memory before the processes start.
func signalBody(setup func(m *Memory), signallers ...func(p *Proc, c Addr)) Body {
	procs := 2 + len(signallers)
	return func(s *Scheduler, maxSteps int) error {
		m := NewMemory(CC, procs, s)
		a, b, c := m.Alloc(0), m.Alloc(0), m.Alloc(0)
		if setup != nil {
			setup(m)
		}
		for i := 0; i < 2; i++ {
			p := m.Proc(i)
			s.GoProc(i, func() {
				for k := 0; k < 4; k++ {
					p.Read(a)
					if p.AbortSignal() {
						p.Write(b, uint64(p.ID()+1))
						return
					}
				}
			})
		}
		for i, sig := range signallers {
			p := m.Proc(2 + i)
			s.GoProc(2+i, func() { sig(p, c) })
		}
		if err := s.Run(maxSteps); err != nil {
			s.DrainKill()
			return err
		}
		return nil
	}
}

// signalBodies are the corpus. predicted says the signaller's steps are
// learned and walked; if not, they are learned as unpredictable. launch
// says the signaller signals before its read, in the continuation of its
// launch, rather than after it.
var signalBodies = []struct {
	name              string
	procs             int
	body              Body
	predicted, launch bool
}{
	{"signal two and exit", 3, signalBody(nil, func(p *Proc, c Addr) {
		p.Read(c)
		p.Memory().Proc(0).SignalAbort()
		p.Memory().Proc(1).SignalAbort()
	}), true, false},
	{"signal at launch", 3, signalBody(nil, func(p *Proc, c Addr) {
		p.Memory().Proc(0).SignalAbort()
		p.Memory().Proc(1).SignalAbort()
		p.Read(c)
	}), true, true},
	{"signal then alloc", 3, signalBody(nil, func(p *Proc, c Addr) {
		p.Read(c)
		p.Memory().Proc(0).SignalAbort()
		p.Memory().Alloc(0)
	}), false, false},
	{"signal then clear", 3, signalBody(func(m *Memory) { m.Proc(1).SignalAbort() }, func(p *Proc, c Addr) {
		p.Read(c)
		p.Memory().Proc(0).SignalAbort()
		p.Memory().Proc(1).ClearAbort()
	}), false, false},
}

// TestPredictionSignals explores each signal body at Workers 1 without the
// prediction, with it, and in check mode, under visited caching with and
// without sleep sets: the Results must agree and the check mode must find
// no mismatch. Where the signallers are predicted, the check mode must have
// compared steps that set abort flags and no walk may give up at an
// unpredictable step; where they are not, no walked step may set a flag
// and some walk must give up at one.
func TestPredictionSignals(t *testing.T) {
	for _, tc := range signalBodies {
		var signals, unpredictable int64
		for _, red := range []Reduction{NoReduction, SleepSets} {
			mk := func(predict bool) *Explorer {
				return &Explorer{MaxSteps: 9, Visited: true, Reduction: red, noPredict: !predict, Monitor: &Monitor{}}
			}
			off, offErr := mk(false).Run(tc.procs, tc.body)
			on := mk(true)
			onRes, onErr := on.Run(tc.procs, tc.body)
			chk := mk(true)
			au := &predictAudit{}
			chk.audit = au
			chkRes, chkErr := chk.Run(tc.procs, tc.body)
			if offErr != nil || onErr != nil || chkErr != nil {
				t.Fatalf("%s reduction=%d: errors %v, %v, %v", tc.name, red, offErr, onErr, chkErr)
			}
			if !reflect.DeepEqual(off, onRes) || !reflect.DeepEqual(off, chkRes) {
				t.Errorf("%s reduction=%d: without prediction %+v, with %+v, check mode %+v", tc.name, red, off, onRes, chkRes)
			}
			var checked, mismatched int64
			for k := range au.checked {
				checked, mismatched = checked+au.checked[k].Load(), mismatched+au.mismatched[k].Load()
			}
			if mismatched != 0 {
				t.Errorf("%s reduction=%d: %d of %d predicted steps disagree with their replays", tc.name, red, mismatched, checked)
			}
			why := on.Monitor.Replayed()
			t.Logf("%s reduction=%d: %d of %d replays counted without running; %d signalling steps checked; replayed %+v",
				tc.name, red, on.Monitor.Predicted(), onRes.Replays(), au.signals.Load(), why)
			signals += au.signals.Load()
			unpredictable += why.Unpredictable
		}
		if tc.predicted && (signals == 0 || unpredictable != 0) {
			t.Errorf("%s: %d signalling steps checked, %d walks stopped at an unpredictable step; want some and none",
				tc.name, signals, unpredictable)
		}
		if !tc.predicted && (signals != 0 || unpredictable == 0) {
			t.Errorf("%s: %d signalling steps checked, %d walks stopped at an unpredictable step; want none and some",
				tc.name, signals, unpredictable)
		}
	}
}

// learnRuns runs body once per schedule (ReplayPick) with the replay
// prediction's learning on, sharing one learn table, and returns it.
func learnRuns(t *testing.T, procs int, body Body, schedules ...[]int) *learnTable {
	t.Helper()
	learn := newLearnTable()
	for _, sched := range schedules {
		s := NewScheduler(procs, ReplayPick(sched))
		s.hist, s.pend, s.ctl, s.learn = make([]uint64, procs), make([]pendingOp, procs), make([]uint64, procs), learn
		if err := body(s, 64); err != nil {
			t.Fatalf("schedule %v: %v", sched, err)
		}
	}
	return learn
}

// signallerSlot returns what learn holds for signaller pid's read of
// sigAddr, which it performs first with its abort flag clear.
func signallerSlot(learn *learnTable, pid int) learnSlot {
	return learn.next(pid, ctlFold(launchCtl(false), OpRead, sigAddr, 0, false))
}

// TestLearnSignalMask checks the learn table's entries for the signallers
// directly: the flags a signalling continuation sets are learned with it,
// a continuation that also allocates or clears a flag is unpredictable,
// and so is one whose signals differ between two runs under the same
// control history.
func TestLearnSignalMask(t *testing.T) {
	first := []int{2} // the signaller runs first; then choice 0 throughout
	for _, tc := range signalBodies {
		learn := learnRuns(t, tc.procs, tc.body, first)
		sl, want := signallerSlot(learn, 2), uint64(learnExits)
		if tc.launch {
			sl, want = learn.next(2, launchCtl(false)), learnParks
		}
		switch {
		case tc.predicted && (sl.class() != want || sl.sig != 0b11):
			t.Errorf("%s: learned class %d with signals %b, want %d with 11", tc.name, sl.class(), sl.sig, want)
		case !tc.predicted && (sl.class() != learnUnpredictable || sl.sig != 0):
			t.Errorf("%s: learned class %d with signals %b, want unpredictable (%d) with none", tc.name, sl.class(), sl.sig, learnUnpredictable)
		}
	}

	// Process 3 signals 1 if 0 was signalled, and 0 otherwise: its
	// continuation reads a flag its control history does not cover.
	body := signalBody(nil,
		func(p *Proc, c Addr) {
			p.Read(c)
			p.Memory().Proc(0).SignalAbort()
		},
		func(p *Proc, c Addr) {
			p.Read(c)
			if m := p.Memory(); m.Proc(0).AbortSignal() {
				m.Proc(1).SignalAbort()
			} else {
				m.Proc(0).SignalAbort()
			}
		})
	after := []int{2, 2} // process 2, then process 3 (the third of 0, 1, 3)
	if sl := signallerSlot(learnRuns(t, 4, body, after), 3); sl.class() != learnExits || sl.sig != 0b10 {
		t.Errorf("one run: learned class %d with signals %b, want exits (%d) with 10", sl.class(), sl.sig, learnExits)
	}
	before := []int{3} // process 3 first
	if sl := signallerSlot(learnRuns(t, 4, body, after, before), 3); sl.class() != learnUnpredictable {
		t.Errorf("two runs: learned class %d with signals %b, want unpredictable (%d)", sl.class(), sl.sig, learnUnpredictable)
	}
}
