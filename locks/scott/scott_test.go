package scott

import (
	"testing"

	"sublock/rmr"
)

func TestSequential(t *testing.T) {
	m := rmr.NewMemory(rmr.CC, 1, nil)
	l := New(m)
	h := l.Handle(m.Proc(0))
	for i := 0; i < 5; i++ {
		if !h.Enter() {
			t.Fatal("Enter failed")
		}
		h.Exit()
	}
}

func TestAllAbortThenFreshArrival(t *testing.T) {
	// Every waiter aborts; a later arrival must still acquire by adopting
	// through the chain of aborted nodes.
	const n = 6
	c := rmr.NewController(n)
	m := rmr.NewMemory(rmr.CC, n, nil)
	l := New(m)
	handles := make([]*Handle, n)
	for i := range handles {
		handles[i] = l.Handle(m.Proc(i))
	}
	m.SetGate(c)

	// proc0 acquires: swap + read of the available dummy. It is now in the
	// CS, blocked at Exit's release write.
	var ok0 bool
	c.Go(0, func() {
		ok0 = handles[0].Enter()
		handles[0].Exit()
	})
	c.StepN(0, 2)

	// procs 1..4 enqueue and then abort while waiting.
	res := make([]bool, n)
	for i := 1; i <= 4; i++ {
		i := i
		c.Go(i, func() { res[i] = handles[i].Enter() })
		c.StepN(i, 2) // swap + first pred read (waiting)
	}
	for i := 1; i <= 4; i++ {
		m.Proc(i).SignalAbort()
		c.Finish(i, 1000)
		if res[i] {
			t.Fatalf("aborter %d entered", i)
		}
	}

	// proc0 releases; proc5 arrives fresh and must adopt through the four
	// aborted nodes to find the available grant.
	c.Finish(0, 1000)
	if !ok0 {
		t.Fatal("holder failed")
	}
	c.Go(5, func() {
		res[5] = handles[5].Enter()
		handles[5].Exit()
	})
	c.Finish(5, 1000)
	c.Wait()
	if !res[5] {
		t.Fatal("fresh arrival failed to adopt through aborted chain")
	}
}

func TestAdoptionCostLinearInAborts(t *testing.T) {
	// A waiter behind k aborted nodes pays ~k RMRs adopting through them:
	// the linear-in-aborts adaptive shape of Table 1's Scott row.
	const aborts = 16
	nprocs := aborts + 2
	c := rmr.NewController(nprocs)
	m := rmr.NewMemory(rmr.CC, nprocs, nil)
	l := New(m)
	handles := make([]*Handle, nprocs)
	for i := range handles {
		handles[i] = l.Handle(m.Proc(i))
	}
	m.SetGate(c)

	c.Go(0, func() {
		handles[0].Enter()
		handles[0].Exit()
	})
	c.StepN(0, 2) // holder in CS, blocked at the release write
	// Enqueue all aborters first, then abort them in reverse order: each
	// aborts while its own predecessor is still waiting, so every aborted
	// node records its direct predecessor and the full chain survives for
	// the waiter to adopt through. (Aborting front-to-back would let each
	// waiter adopt past the already-aborted prefix first, collapsing the
	// chain to O(1) — a nice property of the algorithm, but not the
	// worst case this test prices.)
	for i := 1; i <= aborts; i++ {
		i := i
		c.Go(i, func() { handles[i].Enter() })
		c.StepN(i, 2) // swap + first pred read (waiting)
	}
	for i := aborts; i >= 1; i-- {
		m.Proc(i).SignalAbort()
		c.Finish(i, 1000)
	}
	// The holder releases, then the measured waiter arrives behind the
	// whole chain of aborted nodes and must adopt through every one.
	c.Finish(0, 1000)
	waiter := m.Proc(nprocs - 1)
	var ok bool
	c.Go(nprocs-1, func() {
		ok = handles[nprocs-1].Enter()
		handles[nprocs-1].Exit()
	})
	c.Finish(nprocs-1, 10_000)
	c.Wait()
	if !ok {
		t.Fatal("waiter failed to acquire")
	}
	// Passage cost: swap + one read per aborted node adopted + the read of
	// the holder's available node + release write ≈ aborts + 3.
	cost := waiter.RMRs()
	if cost < int64(aborts) || cost > int64(3*aborts) {
		t.Fatalf("waiter passage RMRs = %d for %d aborts, want ≈ linear (between %d and %d)",
			cost, aborts, aborts, 3*aborts)
	}
}

func TestSpaceGrowsPerAcquisition(t *testing.T) {
	// Table 1: unbounded space — every acquisition allocates a node.
	m := rmr.NewMemory(rmr.CC, 1, nil)
	l := New(m)
	h := l.Handle(m.Proc(0))
	base := m.Size()
	for i := 0; i < 10; i++ {
		h.Enter()
		h.Exit()
	}
	if got := m.Size() - base; got != 10 {
		t.Fatalf("10 passages allocated %d words, want 10", got)
	}
}
