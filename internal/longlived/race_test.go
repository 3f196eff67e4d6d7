package longlived

// Scripted interleavings for the Cleanup switch race (Algorithm 6.3):
// two processes can both observe a pre-decrement refcount of 1 for the
// same instance epoch (the count dips to zero, a late arrival revives it,
// then drops it to zero again); both attempt the line-76 CAS and exactly
// one switch must happen, with the loser's allocations returned unused.

import (
	"testing"

	"sublock/rmr"
)

func TestCleanupCASRace(t *testing.T) {
	const nprocs = 3
	c := rmr.NewController(nprocs)
	m := rmr.NewMemory(rmr.CC, nprocs, nil)
	lk, err := New(m, Config{W: 2, N: 4})
	if err != nil {
		t.Fatal(err)
	}
	hp, hq, hr := lk.Handle(m.Proc(0)), lk.Handle(m.Proc(1)), lk.Handle(m.Proc(2))
	m.SetGate(c)

	// p acquires instance 0 / slot 0: desc read (1), desc F&A (2), tail
	// F&A (3), go[0] read (4), Head write (5).
	okP := make([]bool, 2)
	c.Go(0, func() {
		okP[0] = hp.Enter()
		hp.Exit()
		okP[1] = hp.Enter() // second passage must land on a fresh instance
		hp.Exit()
	})
	c.StepN(0, 5)

	// q enqueues behind p: desc read, desc F&A, tail F&A, go[1] read.
	var okQ bool
	c.Go(1, func() {
		okQ = hq.Enter()
		hq.Exit()
	})
	c.StepN(1, 4)

	// p exits fully: one-shot exit (head read, last write, FindNext(0) ≈ 1
	// read, go[1] write) then cleanup F&A with pre-decrement refcount 2 —
	// no switch. Generous budget; p then blocks at its second Enter's
	// first step… which Step() would execute, so stop exactly: p's exit is
	// 5 ops (head, last, 1 FindNext read, go write, desc F&A).
	c.StepN(0, 5)

	// q completes Enter (go[1] re-read, Head write) and exits up to the
	// moment *after* its cleanup F&A (pre-decrement 1: switch path) but
	// *before* its line-76 CAS: head read (cached, still an op), last
	// write, FindNext(1): root + node{2,3} reads (leaf 2 is unclaimed and
	// live) — its level-1 node {0,1} read comes first, so 3 reads —
	// go[2] write, desc F&A. That is 2 + 7 = 9 ops; the 10th would be the
	// CAS.
	c.StepN(1, 9)

	// r performs a complete passage on the *same* instance (slot 2 was
	// pre-granted by q's exit): it revives the refcount (0→1), drops it to
	// zero again, sees pre-decrement 1, and its CAS succeeds.
	var okR bool
	c.Go(2, func() {
		okR = hr.Enter()
		hr.Exit()
	})
	c.Finish(2, 10_000)
	if !okR {
		t.Fatal("r failed its passage")
	}
	if got := lk.Instances(); got != 3 {
		// 0 = original, 1 = q's pending allocation, 2 = r's installed one.
		t.Fatalf("instances = %d, want 3 (q allocated, r allocated+installed)", got)
	}

	// q resumes: its CAS must fail against r's switch, take the unalloc
	// path, and finish cleanly.
	c.Finish(1, 10_000)
	if !okQ {
		t.Fatal("q failed its passage")
	}

	// The switch must have been signalled exactly once: spin node 0 set.
	if got := m.Peek(lk.spinAddr(0)); got != 1 {
		t.Fatalf("original spin node = %d, want 1 (switch signalled)", got)
	}

	// p's second passage must use the freshly installed instance.
	c.Finish(0, 10_000)
	c.Wait()
	if !okP[0] || !okP[1] {
		t.Fatalf("p passages = %v, want both true", okP)
	}
}

func TestCleanupCASRaceBounded(t *testing.T) {
	// The same dip-revive-dip race in bounded mode, driven sequentially
	// (step counts are mode-specific); the invariant checked is pool
	// conservation: after full quiescence every instance and spin node is
	// accounted for and the lock keeps functioning.
	m := rmr.NewMemory(rmr.CC, 3, nil)
	lk, err := New(m, Config{W: 2, N: 4, Bounded: true})
	if err != nil {
		t.Fatal(err)
	}
	handles := []*Handle{lk.Handle(m.Proc(0)), lk.Handle(m.Proc(1)), lk.Handle(m.Proc(2))}
	for round := 0; round < 50; round++ {
		h := handles[round%3]
		if !h.Enter() {
			t.Fatalf("round %d: enter failed", round)
		}
		h.Exit()
	}
	// Conservation: live(1) + free + retired = N+2 instances; spin nodes
	// likewise across free/retired/live.
	if got := 1 + len(lk.freeLocks); got != lk.cfg.N+2 {
		t.Fatalf("instance pool conservation: live+free = %d, want %d", got, lk.cfg.N+2)
	}
	total := 1 + len(lk.freeSpins) + len(lk.retiredSpins)
	if total != 2*lk.cfg.N+4 {
		t.Fatalf("spin-node conservation: %d accounted, want %d", total, 2*lk.cfg.N+4)
	}
}
