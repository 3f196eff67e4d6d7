package harness

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"sublock/internal/testutil"
	"sublock/locks"
	"sublock/rmr"
)

// testLock is a test-local, unregistered lock over one word. Its acquire
// is a read-then-write when racy (two contenders can both read 0) and a
// CAS otherwise; it declares rmr.PhaseCS only when declare is set, and its
// Exit leaves the word held when noRelease is set. No variant honors an
// abort signal; with givesUp, Enter returns false after one read, whether
// signalled or not.
type testLock struct {
	p                                 *rmr.Proc
	word                              rmr.Addr
	racy, declare, noRelease, givesUp bool
}

func (l testLock) Enter() bool {
	l.p.EnterPhase(rmr.PhaseWaiting)
	if l.givesUp {
		l.p.Read(l.word)
		l.p.EnterPhase(rmr.PhaseIdle)
		return false
	}
	if l.racy {
		for l.p.Read(l.word) != 0 {
		}
		l.p.Write(l.word, 1)
	} else {
		for !l.p.CAS(l.word, 0, 1) {
		}
	}
	if l.declare {
		l.p.EnterPhase(rmr.PhaseCS)
	}
	return true
}

func (l testLock) Exit() {
	l.p.EnterPhase(rmr.PhaseExit)
	if !l.noRelease {
		l.p.Write(l.word, 0)
	}
	l.p.EnterPhase(rmr.PhaseIdle)
}

// buildTestLock allocates the lock's word in m; variant sets the flags.
func buildTestLock(m *rmr.Memory, variant testLock) HandleFn {
	word := m.Alloc(0)
	return func(p *rmr.Proc) Handle {
		l := variant
		l.p, l.word = p, word
		return l
	}
}

// TestPassages: the seeded driver reports each property a run violates,
// judges no passage of a crashed process, and leaves no process goroutine
// behind when it fails.
func TestPassages(t *testing.T) {
	const n = 4
	for _, tc := range []struct {
		name  string
		build func(m *rmr.Memory) (HandleFn, error)
		plan  string
		want  func(err error) bool // nil: the run must pass
	}{
		{
			name: "racy-read-then-write",
			build: func(m *rmr.Memory) (HandleFn, error) {
				return buildTestLock(m, testLock{racy: true, declare: true}), nil
			},
			want: func(err error) bool { return errors.Is(err, rmr.ErrMutualExclusion) },
		},
		{
			name: "enter-skips-phase-cs",
			build: func(m *rmr.Memory) (HandleFn, error) {
				return buildTestLock(m, testLock{}), nil
			},
			want: func(err error) bool {
				return errors.Is(err, ErrUndeclaredCS) && strings.Contains(err.Error(), "rmr.PhaseCS")
			},
		},
		{
			name: "enter-gives-up-unsignalled",
			build: func(m *rmr.Memory) (HandleFn, error) {
				return buildTestLock(m, testLock{givesUp: true}), nil
			},
			want: func(err error) bool { return errors.Is(err, ErrUnsignalledAbort) },
		},
		{
			name: "tas-crashed-process-exempt",
			build: func(m *rmr.Memory) (HandleFn, error) {
				return locks.Build(m, string(AlgoTAS), DefaultW, n)
			},
			plan: "crash:0@1",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			m := rmr.NewMemory(rmr.CC, n, nil)
			fn, err := tc.build(m)
			if err != nil {
				t.Fatal(err)
			}
			s := rmr.NewScheduler(n, rmr.RandomPick(0))
			plan, err := ParseFaults(tc.plan)
			if err != nil {
				t.Fatal(err)
			}
			if plan != nil {
				s.SetFaultPlan(plan)
			}
			entered, err := Passages(s, m, fn, 0, 100_000)
			switch {
			case tc.want == nil && err != nil:
				t.Fatalf("Passages = %v, want nil", err)
			case tc.want != nil && !tc.want(err):
				t.Fatalf("Passages = %v, want the %s violation", err, tc.name)
			}
			if plan != nil {
				if entered[0] {
					t.Error("process 0 entered although the plan crashed it at its first operation")
				}
				for i := 1; i < n; i++ {
					if !entered[i] {
						t.Errorf("survivor %d never entered", i)
					}
				}
			}
			testutil.WaitGoroutinesSettle(t, base, 5*time.Second)
		})
	}
}

// TestRunScheduledKillsWedgedRun: a run whose waiters spin forever on a
// lock that is never released, and ignore their abort signals, ends at the
// step budget with rmr.ErrStepLimit and is unwound: a drain would run the
// spinning processes forever.
func TestRunScheduledKillsWedgedRun(t *testing.T) {
	const n = 4
	base := runtime.NumGoroutine()
	m := rmr.NewMemory(rmr.CC, n, nil)
	fn := buildTestLock(m, testLock{declare: true, noRelease: true})
	s := rmr.NewScheduler(n, rmr.RandomPick(1))
	err := runScheduled(m, s, 1000, func(i int) func() {
		h := fn(m.Proc(i))
		return func() {
			if h.Enter() {
				h.Exit()
			}
		}
	})
	if !errors.Is(err, rmr.ErrStepLimit) {
		t.Fatalf("runScheduled = %v, want rmr.ErrStepLimit", err)
	}
	testutil.WaitGoroutinesSettle(t, base, 5*time.Second)
}
