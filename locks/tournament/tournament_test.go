package tournament

import (
	"testing"

	"sublock/rmr"
)

func TestValidation(t *testing.T) {
	m := rmr.NewMemory(rmr.CC, 1, nil)
	if _, err := New(m, 0); err == nil {
		t.Fatal("n=0 accepted")
	}
}

func TestHeight(t *testing.T) {
	for _, tt := range []struct{ n, want int }{
		{1, 1}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4}, {1024, 10},
	} {
		m := rmr.NewMemory(rmr.CC, 1, nil)
		l, err := New(m, tt.n)
		if err != nil {
			t.Fatal(err)
		}
		if l.Height() != tt.want {
			t.Errorf("Height(n=%d) = %d, want %d", tt.n, l.Height(), tt.want)
		}
	}
}

func TestSequential(t *testing.T) {
	m := rmr.NewMemory(rmr.CC, 4, nil)
	l, err := New(m, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		h := l.Handle(m.Proc(i))
		if !h.Enter() {
			t.Fatalf("process %d failed to enter", i)
		}
		h.Exit()
	}
}

func TestAbortReleasesHeldNodes(t *testing.T) {
	// A process that aborts halfway up must leave no node held, or its
	// sibling subtree deadlocks. Script: proc0 holds the root; proc2 climbs
	// one level and aborts; proc3 (proc2's level-1 sibling) must then
	// acquire once proc0 releases.
	const n = 4
	c := rmr.NewController(n)
	m := rmr.NewMemory(rmr.CC, n, nil)
	l, err := New(m, n)
	if err != nil {
		t.Fatal(err)
	}
	handles := make([]*Handle, n)
	for i := range handles {
		handles[i] = l.Handle(m.Proc(i))
	}
	m.SetGate(c)

	var ok0 bool
	c.Go(0, func() {
		ok0 = handles[0].Enter()
		handles[0].Exit()
	})
	c.StepN(0, 4) // level1: read+CAS, root: read+CAS → in CS

	res := make([]bool, n)
	c.Go(2, func() { res[2] = handles[2].Enter() })
	c.StepN(2, 3) // level1 {2,3}: read+CAS (held), root: read (busy) → spinning
	m.Proc(2).SignalAbort()
	c.Finish(2, 1000)
	if res[2] {
		t.Fatal("aborter entered")
	}

	c.Go(3, func() {
		res[3] = handles[3].Enter()
		handles[3].Exit()
	})
	c.Finish(0, 1000)
	c.Finish(3, 100_000)
	c.Wait()
	if !ok0 {
		t.Fatal("holder failed")
	}
	if !res[3] {
		t.Fatal("sibling deadlocked: abort did not release held nodes")
	}
}

func TestPassageCostIsLogN(t *testing.T) {
	// Every passage — even uncontended — pays Θ(log N): the shape Table 1's
	// Jayanti row contributes to the comparison.
	var costs []int64
	for _, n := range []int{4, 16, 64, 256, 1024} {
		m := rmr.NewMemory(rmr.CC, n, nil)
		l, err := New(m, n)
		if err != nil {
			t.Fatal(err)
		}
		p := m.Proc(0)
		h := l.Handle(p)
		before := p.RMRs()
		if !h.Enter() {
			t.Fatal("Enter failed")
		}
		h.Exit()
		cost := p.RMRs() - before
		// Exactly 3 RMRs per level uncontended: read (miss), CAS, release
		// write. The read after our own CAS is cached.
		if want := int64(3 * l.Height()); cost != want {
			t.Errorf("n=%d: passage RMRs = %d, want %d", n, cost, want)
		}
		costs = append(costs, cost)
	}
	for i := 1; i < len(costs); i++ {
		if costs[i] <= costs[i-1] {
			t.Fatalf("passage cost did not grow with N: %v", costs)
		}
	}
}
