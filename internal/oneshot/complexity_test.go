package oneshot

// Complexity-bound tests for Corollary 22: a complete passage costs
// O(log_W A_i) RMRs where A_i is the number of aborts during the passage,
// and an aborted attempt costs O(log_W A_t). These drive concrete workloads
// and check the measured counts against the analytical bounds with explicit
// constants.

import (
	"fmt"
	"math"
	"testing"

	"sublock/rmr"
)

// logW returns ⌈log_w(max(2,a))⌉, the height-like bound used in assertions.
func logW(w, a int) int {
	if a < 2 {
		a = 2
	}
	return int(math.Ceil(math.Log(float64(a)) / math.Log(float64(w))))
}

// stormPassage runs: holder enters; A waiters enqueue and then abort (in
// enqueue order, signalled and run to completion one at a time); one live
// waiter enqueues; holder exits. The script runs on a Controller, so every
// count is exact. Returns (holder passage RMRs, waiter passage RMRs, max
// aborted-attempt RMRs).
func stormPassage(t *testing.T, w, n, aborts int, adaptive bool) (int64, int64, int64) {
	t.Helper()
	const budget = 1_000_000
	c := rmr.NewController(n)
	m := rmr.NewMemory(rmr.CC, n, nil)
	lk, err := New(m, Config{W: w, N: n, Adaptive: adaptive})
	if err != nil {
		t.Fatal(err)
	}
	m.SetGate(c)

	type attempt struct {
		p        *rmr.Proc
		ok, held bool
		rmrs     int64
	}
	// start launches process id's passage and runs it alone until it holds
	// the lock, finishes, or is certainly past its doorway (4 steps).
	start := func(id int) *attempt {
		a := &attempt{p: m.Proc(id)}
		h := lk.Handle(a.p)
		c.Go(id, func() {
			before := a.p.RMRs()
			if h.Enter() {
				a.held = true
				h.Exit()
				a.ok = true
			}
			a.rmrs = a.p.RMRs() - before
		})
		for a.p.Steps() < 4 && !a.held && c.Step(id) {
		}
		return a
	}

	holder := start(0)
	for !holder.held {
		if !c.Step(0) {
			t.Fatal("holder failed")
		}
	}
	aborters := make([]*attempt, aborts)
	for i := range aborters {
		aborters[i] = start(1 + i)
	}
	waiter := start(n - 1)
	var maxAborted int64
	for i, a := range aborters {
		a.p.SignalAbort()
		c.Finish(1+i, budget)
		if !a.ok && a.rmrs > maxAborted {
			maxAborted = a.rmrs
		}
	}
	c.Finish(0, budget)
	c.Finish(n-1, budget)
	if !waiter.ok {
		t.Fatal("waiter failed")
	}
	return holder.rmrs, waiter.rmrs, maxAborted
}

func TestCompletePassageBoundAdaptive(t *testing.T) {
	// Corollary 22 with explicit constants: passage ≤ base + perLevel·⌈log_W A⌉.
	const w, n = 4, 1026
	for _, aborts := range []int{0, 1, 3, 15, 63, 255, 1023} {
		holder, waiter, aborted := stormPassage(t, w, n, aborts, true)
		bound := int64(6 + 4*logW(w, aborts+1))
		if holder > bound {
			t.Errorf("A=%d: holder passage = %d RMRs, bound %d", aborts, holder, bound)
		}
		if waiter > bound {
			t.Errorf("A=%d: waiter passage = %d RMRs, bound %d", aborts, waiter, bound)
		}
		if aborted > bound {
			t.Errorf("A=%d: aborted attempt = %d RMRs, bound %d", aborts, aborted, bound)
		}
	}
}

func TestPlainFindNextPaysFullHeight(t *testing.T) {
	// The non-adaptive variant's handoff is Θ(height) even for A_i=1 when
	// the exiting slot sits at a subtree boundary — the gap
	// AdaptiveFindNext closes (§4.1). Drive the lock until the holder
	// occupies slot n/W−1 (rightmost leaf of the leftmost level-(H−1)
	// subtree), abort its immediate successor, and measure the exit.
	const w = 2
	exitCost := func(n int, adaptive bool) int64 {
		// One process per slot: the lock is one-shot, so the chain that
		// burns slots 0..k-1 needs a fresh process for each passage.
		m := rmr.NewMemory(rmr.CC, n, nil)
		lk, err := New(m, Config{W: w, N: n, Adaptive: adaptive})
		if err != nil {
			t.Fatal(err)
		}
		k := n/w - 1
		for i := 0; i < k; i++ {
			h := lk.Handle(m.Proc(i))
			if !h.Enter() {
				t.Fatalf("chain slot %d failed", i)
			}
			h.Exit()
		}
		holderP := m.Proc(k)
		holder := lk.Handle(holderP)
		if !holder.Enter() {
			t.Fatal("holder failed")
		}
		// Aborter takes slot k+1 and abandons it (signal pre-set: it
		// enqueues, reads its go slot once, and aborts synchronously).
		abP := m.Proc(k + 1)
		abP.SignalAbort()
		if lk.Handle(abP).Enter() {
			t.Fatal("aborter entered")
		}
		before := holderP.RMRs()
		holder.Exit()
		return holderP.RMRs() - before
	}
	type cost struct{ plain, adaptive int64 }
	var costs []cost
	for _, n := range []int{8, 64, 512} {
		costs = append(costs, cost{exitCost(n, false), exitCost(n, true)})
	}
	for i, c := range costs {
		if c.adaptive != costs[0].adaptive {
			t.Errorf("adaptive cost changed with N: %v (index %d)", costs, i)
		}
	}
	if costs[len(costs)-1].plain <= costs[0].plain {
		t.Errorf("plain cost should grow with N: %v", costs)
	}
}

func TestWSweepMonotonicity(t *testing.T) {
	// Larger W strictly helps once the height actually drops (the §1
	// time/space tradeoff).
	const n, aborts = 257, 255
	var prev int64 = 1 << 60
	for _, w := range []int{2, 4, 16, 64} {
		holder, _, _ := stormPassage(t, w, n, aborts, true)
		if holder > prev {
			t.Errorf("W=%d: holder passage %d RMRs > previous width's %d", w, holder, prev)
		}
		prev = holder
	}
}

func TestAbortedAttemptIndependentOfN(t *testing.T) {
	// An aborted attempt costs O(log_W A_t) — independent of N when the
	// abort count is fixed.
	const w, aborts = 4, 7
	var base int64
	for i, n := range []int{16, 256, 1024} {
		_, _, aborted := stormPassage(t, w, n, aborts, true)
		if i == 0 {
			base = aborted
			continue
		}
		if aborted > base+2 {
			t.Errorf("N=%d: aborted attempt = %d RMRs vs %d at N=16 (should not scale with N)", n, aborted, base)
		}
	}
}

func TestNamingTheConstant(t *testing.T) {
	// Document the actual constant for the abort-free fast path: with
	// AdaptiveFindNext an uncontended complete passage costs exactly 6 RMRs
	// (doorway F&A, go-slot read, Head write, LastExited write, one tree
	// read, go-grant write); this pins the fast path against regressions.
	m := rmr.NewMemory(rmr.CC, 1, nil)
	lk, err := New(m, Config{W: 8, N: 64, Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	p := m.Proc(0)
	h := lk.Handle(p)
	before := p.RMRs()
	if !h.Enter() {
		t.Fatal("enter failed")
	}
	h.Exit()
	if got := p.RMRs() - before; got != 6 {
		t.Fatalf("uncontended adaptive passage = %d RMRs, want exactly 6", got)
	}
}

func TestStormDeterminism(t *testing.T) {
	// The storm driver serializes aborts, so measured costs are stable
	// run-to-run — the property the benchmark suite relies on.
	for i := 0; i < 3; i++ {
		h1, w1, a1 := stormPassage(t, 8, 66, 64, true)
		h2, w2, a2 := stormPassage(t, 8, 66, 64, true)
		if h1 != h2 || w1 != w2 || a1 != a2 {
			t.Fatalf("storm run %d not deterministic: (%d,%d,%d) vs (%d,%d,%d)",
				i, h1, w1, a1, h2, w2, a2)
		}
	}
}

func TestManyArities(t *testing.T) {
	// Cross-arity sanity sweep of the full storm at small scale.
	for _, w := range []int{2, 3, 5, 8, 17, 64} {
		t.Run(fmt.Sprintf("W=%d", w), func(t *testing.T) {
			holder, waiter, _ := stormPassage(t, w, 34, 32, true)
			bound := int64(6 + 4*logW(w, 33))
			if holder > bound || waiter > bound {
				t.Errorf("W=%d: holder=%d waiter=%d exceed bound %d", w, holder, waiter, bound)
			}
		})
	}
}
