package longlived

import (
	"math/rand"
	"testing"

	"sublock/rmr"
)

func TestNoSpinNodesValidation(t *testing.T) {
	m := rmr.NewMemory(rmr.CC, 2, nil)
	if _, err := New(m, Config{W: 4, N: 2, Bounded: true, NoSpinNodes: true}); err == nil {
		t.Fatal("NoSpinNodes + Bounded accepted")
	}
}

func TestNoSpinNodesPassages(t *testing.T) {
	// The ablation variant must still be a correct lock.
	m := rmr.NewMemory(rmr.CC, 3, nil)
	lk, err := New(m, Config{W: 4, N: 8, NoSpinNodes: true})
	if err != nil {
		t.Fatal(err)
	}
	handles := []*Handle{lk.Handle(m.Proc(0)), lk.Handle(m.Proc(1)), lk.Handle(m.Proc(2))}
	for round := 0; round < 20; round++ {
		h := handles[round%3]
		if !h.Enter() {
			t.Fatalf("round %d: Enter failed", round)
		}
		h.Exit()
	}
}

func TestNoSpinNodesDescriptorWait(t *testing.T) {
	// Force the descriptor-polling wait path: p uses the instance, q pins
	// the refcount, p re-enters and must poll until q's cleanup switches.
	c := rmr.NewController(2)
	m := rmr.NewMemory(rmr.CC, 2, nil)
	lk, err := New(m, Config{W: 4, N: 4, NoSpinNodes: true})
	if err != nil {
		t.Fatal(err)
	}
	hp, hq := lk.Handle(m.Proc(0)), lk.Handle(m.Proc(1))
	m.SetGate(c)

	okP := make([]bool, 2)
	c.Go(0, func() {
		okP[0] = hp.Enter()
		hp.Exit()
		okP[1] = hp.Enter()
		hp.Exit()
	})
	// p enters: desc read, desc F&A, doorway F&A, go read (granted), Head
	// write → 5 steps; in CS.
	c.StepN(0, 5)
	var okQ bool
	c.Go(1, func() {
		okQ = hq.Enter()
		hq.Exit()
	})
	// q pins the refcount and enqueues: desc read, F&A, doorway, go read.
	c.StepN(1, 4)
	// p exits (handoff to q, no switch: refcount 2→1) and re-enters: its
	// descriptor-poll loop must hold it (give it a bounded head start).
	c.StepN(0, 40)
	if okP[1] {
		t.Fatal("p re-entered the same instance without a switch")
	}
	// q completes: enters the CS, exits, switches; p proceeds.
	c.Finish(1, 100_000)
	c.Finish(0, 100_000)
	c.Wait()
	if !okP[0] || !okP[1] || !okQ {
		t.Fatalf("passages: p=%v q=%v", okP, okQ)
	}
}

func TestUnallocUnboundedPath(t *testing.T) {
	// unalloc in unbounded mode is a no-op; exercise it through the CAS
	// race (covered deterministically in race_test.go for unbounded; this
	// checks the bounded branch's pool restitution after a failed switch).
	for seed := int64(1); seed <= 4; seed++ {
		s := rmr.NewScheduler(3, timeslicePick(seed, 32))
		m := rmr.NewMemory(rmr.CC, 3, nil)
		lk, err := New(m, Config{W: 2, N: 4, Bounded: true})
		if err != nil {
			t.Fatal(err)
		}
		// The only CAS on the descriptor is the switch (line 76); a failed
		// one takes the unalloc path.
		lost := 0
		m.SetTracer(func(ev rmr.Event) {
			if ev.Op == rmr.OpCAS && ev.Addr == lk.desc && !ev.OK {
				lost++
			}
		})
		m.SetGate(s)
		// Drive the dip-revive-dip race repeatedly; pool conservation
		// afterwards proves every unalloc returned its instances.
		for i := 0; i < 3; i++ {
			h := lk.Handle(m.Proc(i))
			s.Go(func() {
				for k := 0; k < 40; k++ {
					if h.Enter() {
						h.Exit()
					}
				}
			})
		}
		if err := s.Run(10_000_000); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if lost == 0 {
			t.Fatalf("seed %d: no switch CAS failed; the schedule missed the race", seed)
		}
		if got := 1 + len(lk.freeLocks); got != lk.cfg.N+2 {
			t.Fatalf("seed %d: instance pool: live+free = %d, want %d", seed, got, lk.cfg.N+2)
		}
	}
}

// timeslicePick returns a seeded PickFunc that keeps granting the process
// it picked for a random burst of up to maxBurst steps, like an OS time
// slice: a process stalls mid-protocol while others complete whole
// passages, which uniform per-step picks almost never produce.
func timeslicePick(seed int64, maxBurst int) rmr.PickFunc {
	rng := rand.New(rand.NewSource(seed))
	cur, left := -1, 0
	return func(_ int, waiting []int) int {
		if left > 0 {
			for i, pid := range waiting {
				if pid == cur {
					left--
					return i
				}
			}
		}
		i := rng.Intn(len(waiting))
		cur, left = waiting[i], rng.Intn(maxBurst)
		return i
	}
}
