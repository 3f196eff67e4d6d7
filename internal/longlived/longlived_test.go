package longlived

import (
	"sync/atomic"
	"testing"

	"sublock/rmr"
)

func configs() map[string]Config {
	return map[string]Config{
		"unbounded":          {W: 4, N: 8},
		"unbounded/adaptive": {W: 4, N: 8, Adaptive: true},
		"bounded":            {W: 4, N: 8, Bounded: true},
		"bounded/adaptive":   {W: 4, N: 8, Bounded: true, Adaptive: true},
		"bounded/tinyver":    {W: 4, N: 8, Bounded: true, VersionBits: 2},
	}
}

func TestPackUnpack(t *testing.T) {
	for _, tt := range []struct{ lock, spn, ref uint64 }{
		{0, 0, 0},
		{1, 2, 3},
		{lockMask, spnMask, refcntMask},
		{12345, 67890, 999},
	} {
		l, s, r := unpack(pack(tt.lock, tt.spn, tt.ref))
		if l != tt.lock || s != tt.spn || r != tt.ref {
			t.Fatalf("roundtrip (%d,%d,%d) = (%d,%d,%d)", tt.lock, tt.spn, tt.ref, l, s, r)
		}
	}
	// Refcount field arithmetic: +1 and −1 touch only the low field.
	d := pack(5, 9, 0)
	if _, _, r := unpack(d + 1); r != 1 {
		t.Fatal("increment leaked out of the refcount field")
	}
	if l, s, r := unpack(d + 1 + decRefcnt); l != 5 || s != 9 || r != 0 {
		t.Fatal("decrement corrupted the descriptor")
	}
}

func TestValidation(t *testing.T) {
	dsm := rmr.NewMemory(rmr.DSM, 2, nil)
	if _, err := New(dsm, Config{W: 4, N: 2}); err == nil {
		t.Error("DSM memory accepted")
	}
	cc := rmr.NewMemory(rmr.CC, 2, nil)
	if _, err := New(cc, Config{W: 4, N: 0}); err == nil {
		t.Error("N=0 accepted")
	}
	if _, err := New(cc, Config{W: 4, N: 1 << 16}); err == nil {
		t.Error("N=2^16 accepted")
	}
	if _, err := New(cc, Config{W: 1, N: 2}); err == nil {
		t.Error("W=1 accepted")
	}
}

func TestSequentialPassages(t *testing.T) {
	for name, cfg := range configs() {
		t.Run(name, func(t *testing.T) {
			m := rmr.NewMemory(rmr.CC, cfg.N, nil)
			lk, err := New(m, cfg)
			if err != nil {
				t.Fatal(err)
			}
			h := lk.Handle(m.Proc(0))
			for i := 0; i < 30; i++ {
				if !h.Enter() {
					t.Fatalf("passage %d: Enter failed", i)
				}
				h.Exit()
			}
			if cfg.Bounded {
				if got := lk.Instances(); got != cfg.N+2 {
					t.Fatalf("bounded instances = %d, want %d", got, cfg.N+2)
				}
			} else if got := lk.Instances(); got != 31 {
				// Every solo passage drops the refcount to zero and switches.
				t.Fatalf("unbounded instances = %d, want 31", got)
			}
		})
	}
}

func TestInterleavedProcessesSequential(t *testing.T) {
	// Distinct processes acquire alternately with no concurrency; each
	// passage must succeed and each handle's oldSpn bookkeeping must keep
	// it out of instances it already used.
	for name, cfg := range configs() {
		t.Run(name, func(t *testing.T) {
			m := rmr.NewMemory(rmr.CC, cfg.N, nil)
			lk, err := New(m, cfg)
			if err != nil {
				t.Fatal(err)
			}
			handles := make([]*Handle, cfg.N)
			for i := range handles {
				handles[i] = lk.Handle(m.Proc(i))
			}
			for round := 0; round < 10; round++ {
				for i := 0; i < cfg.N; i++ {
					if !handles[i].Enter() {
						t.Fatalf("round %d proc %d: Enter failed", round, i)
					}
					handles[i].Exit()
				}
			}
		})
	}
}

// runConcurrent runs nprocs processes × passages acquisitions each under a
// seeded random schedule and checks mutual exclusion and completion.
func runConcurrent(t *testing.T, cfg Config, passages int, seed int64, aborters map[int]bool) (completed []int, aborted []int) {
	t.Helper()
	s := rmr.NewScheduler(cfg.N, rmr.RandomPick(seed))
	m := rmr.NewMemory(rmr.CC, cfg.N, nil)
	lk, err := New(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	handles := make([]*Handle, cfg.N)
	for i := range handles {
		handles[i] = lk.Handle(m.Proc(i))
	}
	m.SetGate(s)

	completed = make([]int, cfg.N)
	aborted = make([]int, cfg.N)
	for i := 0; i < cfg.N; i++ {
		p := m.Proc(i)
		s.Go(func() {
			for k := 0; k < passages; k++ {
				if aborters[i] && k%2 == 1 {
					p.SignalAbort()
				}
				if handles[i].Enter() {
					completed[i]++
					handles[i].Exit()
				} else {
					aborted[i]++
				}
				p.ClearAbort()
			}
		})
	}
	if err := s.Run(200_000_000); err != nil {
		t.Fatalf("seed %d: schedule did not terminate: %v", seed, err)
	}
	return completed, aborted
}

func TestConcurrentNoAborts(t *testing.T) {
	for name, cfg := range configs() {
		t.Run(name, func(t *testing.T) {
			for seed := int64(0); seed < 8; seed++ {
				completed, _ := runConcurrent(t, cfg, 4, seed, nil)
				for i, c := range completed {
					if c != 4 {
						t.Fatalf("seed %d: process %d completed %d/4 passages", seed, i, c)
					}
				}
			}
		})
	}
}

func TestConcurrentWithAborts(t *testing.T) {
	aborters := map[int]bool{1: true, 3: true, 6: true}
	for name, cfg := range configs() {
		t.Run(name, func(t *testing.T) {
			for seed := int64(0); seed < 8; seed++ {
				completed, aborted := runConcurrent(t, cfg, 4, seed, aborters)
				for i := range completed {
					want := 4
					if aborters[i] {
						// Odd-numbered attempts run with the signal set and
						// may abort; all attempts must terminate either way.
						if completed[i]+aborted[i] != 4 {
							t.Fatalf("seed %d: aborter %d: %d+%d attempts", seed, i, completed[i], aborted[i])
						}
						continue
					}
					if completed[i] != want {
						t.Fatalf("seed %d: process %d completed %d/%d", seed, i, completed[i], want)
					}
				}
			}
		})
	}
}

func TestSpinNodeWaitPath(t *testing.T) {
	// Script the lines 57–61 wait: p uses the instance and returns while q
	// still holds a reference (no switch); p's re-entry must block on the
	// spin node until q's cleanup switches the descriptor and sets go.
	for _, bounded := range []bool{false, true} {
		name := "unbounded"
		if bounded {
			name = "bounded"
		}
		t.Run(name, func(t *testing.T) {
			cfg := Config{W: 4, N: 4, Bounded: bounded}
			c := rmr.NewController(2)
			m := rmr.NewMemory(rmr.CC, cfg.N, nil)
			lk, err := New(m, cfg)
			if err != nil {
				t.Fatal(err)
			}
			hp, hq := lk.Handle(m.Proc(0)), lk.Handle(m.Proc(1))
			m.SetGate(c)

			// p: first passage, then a second Enter that must wait.
			var pSecond atomic.Bool
			c.Go(0, func() {
				if !hp.Enter() {
					t.Error("p first Enter failed")
					return
				}
				hp.Exit()
				if !hp.Enter() {
					t.Error("p second Enter failed")
					return
				}
				pSecond.Store(true)
				hp.Exit()
			})
			// Drive p through its first passage up to the point where its
			// cleanup F&A ran. q has not entered yet, so p's own cleanup
			// switched the instance... to prevent that, let q increment
			// first.
			var qDone atomic.Bool
			c.Go(1, func() {
				if !hq.Enter() {
					t.Error("q Enter failed")
					return
				}
				hq.Exit()
				qDone.Store(true)
			})
			// q: desc read + F&A (+hazard write in bounded) + oneshot
			// doorway F&A + go read (slot 0: granted) + Head write.
			qSteps := 5
			if bounded {
				qSteps += 3 // hazard write + version read + V_w reads vary; overshoot below handles it
			}
			c.StepN(1, qSteps)
			// p: full first passage + re-entry attempt. p's cleanup sees
			// refcnt 2→1: no switch. Its second Enter reads desc: same spn
			// as oldSpn → spins. Give it a bounded number of steps; it must
			// NOT complete its second Enter.
			c.StepN(0, 400)
			if pSecond.Load() {
				t.Fatal("p re-entered the same instance without waiting for the switch")
			}
			// q finishes: exits the CS, cleanup drops refcnt to 0, switches,
			// sets the spin node; p's spin breaks and its second Enter uses
			// the fresh instance.
			c.Finish(1, 100_000)
			c.Finish(0, 100_000)
			c.Wait()
			if !pSecond.Load() {
				t.Fatal("p never completed its second passage")
			}
			if !qDone.Load() {
				t.Fatal("q never finished")
			}
		})
	}
}

func TestBoundedSpaceIsConstant(t *testing.T) {
	// The point of §6.2: memory footprint must not grow with passages.
	cfg := Config{W: 4, N: 4, Bounded: true}
	m := rmr.NewMemory(rmr.CC, cfg.N, nil)
	lk, err := New(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := lk.Handle(m.Proc(0))
	h.Enter()
	h.Exit()
	size := m.Size()
	for i := 0; i < 100; i++ {
		h.Enter()
		h.Exit()
	}
	if got := m.Size(); got != size {
		t.Fatalf("bounded mode grew from %d to %d words over 100 passages", size, got)
	}
}

func TestUnboundedSpaceGrows(t *testing.T) {
	cfg := Config{W: 4, N: 4}
	m := rmr.NewMemory(rmr.CC, cfg.N, nil)
	lk, err := New(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := lk.Handle(m.Proc(0))
	before := m.Size()
	for i := 0; i < 10; i++ {
		h.Enter()
		h.Exit()
	}
	if got := m.Size(); got <= before {
		t.Fatalf("unbounded mode did not grow (%d → %d words)", before, got)
	}
}

func TestVersionWraparoundStress(t *testing.T) {
	// VersionBits=1 wraps the version every 2 recycles; heavy reuse must
	// never leak a stale value (which would surface as a one-shot protocol
	// violation: a doorway landing on a non-zero Tail, double grants, or a
	// panic).
	cfg := Config{W: 2, N: 3, Bounded: true, VersionBits: 1}
	m := rmr.NewMemory(rmr.CC, cfg.N, nil)
	lk, err := New(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	handles := make([]*Handle, cfg.N)
	for i := range handles {
		handles[i] = lk.Handle(m.Proc(i))
	}
	for round := 0; round < 200; round++ {
		i := round % cfg.N
		if !handles[i].Enter() {
			t.Fatalf("round %d: Enter failed", round)
		}
		handles[i].Exit()
	}
}

func TestMisusePanics(t *testing.T) {
	m := rmr.NewMemory(rmr.CC, 2, nil)
	lk, err := New(m, Config{W: 4, N: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Run("exit without enter", func(t *testing.T) {
		h := lk.Handle(m.Proc(0))
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		h.Exit()
	})
	t.Run("enter while holding", func(t *testing.T) {
		h := lk.Handle(m.Proc(1))
		if !h.Enter() {
			t.Fatal("Enter failed")
		}
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
			h.Exit()
		}()
		h.Enter()
	})
}

// TestFreeRunningStress: long unscripted time-sliced schedules — every
// process makes 50 attempts, some of them signaled — stress the pool
// bookkeeping and check mutual exclusion throughout.
func TestFreeRunningStress(t *testing.T) {
	for name, cfg := range map[string]Config{
		"unbounded": {W: 8, N: 6},
		"bounded":   {W: 8, N: 6, Bounded: true, VersionBits: 3},
	} {
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				s := rmr.NewScheduler(cfg.N, timeslicePick(seed, 64))
				m := rmr.NewMemory(rmr.CC, cfg.N, nil)
				lk, err := New(m, cfg)
				if err != nil {
					t.Fatal(err)
				}
				m.SetGate(s)
				for i := 0; i < cfg.N; i++ {
					p := m.Proc(i)
					h := lk.Handle(p)
					s.Go(func() {
						for k := 0; k < 50; k++ {
							if i%3 == 0 && k%4 == 3 {
								p.SignalAbort()
							}
							if h.Enter() {
								h.Exit()
							}
							p.ClearAbort()
						}
					})
				}
				if err := s.Run(50_000_000); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
		})
	}
}
