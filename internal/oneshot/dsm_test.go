package oneshot

// Focused tests for the §3 DSM variant: the announce/spin-bit indirection
// must preserve every lock property while keeping waiting local.

import (
	"testing"

	"sublock/rmr"
)

func TestDSMFCFS(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		const n = 10
		s := rmr.NewScheduler(n, rmr.RandomPick(seed))
		m := rmr.NewMemory(rmr.DSM, n, nil)
		lk, err := New(m, Config{W: 2, N: n})
		if err != nil {
			t.Fatal(err)
		}
		m.SetGate(s)
		var order []int
		for i := 0; i < n; i++ {
			h := lk.Handle(m.Proc(i))
			s.Go(func() {
				if h.Enter() {
					order = append(order, h.Slot()) // safe: inside the CS
					h.Exit()
				}
			})
		}
		if err := s.Run(50_000_000); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(order) != n {
			t.Fatalf("seed %d: %d of %d entered", seed, len(order), n)
		}
		for k := 1; k < n; k++ {
			if order[k] < order[k-1] {
				t.Fatalf("seed %d: DSM FCFS violated: %v", seed, order)
			}
		}
	}
}

func TestDSMAbortHandoff(t *testing.T) {
	// Slot 1 aborts after publishing its spin bit; the signaller's grant
	// path (go write, announce read, spin-bit write) must still wake the
	// live waiter at slot 2 through its own indirection.
	const n = 3
	c := rmr.NewController(n)
	m := rmr.NewMemory(rmr.DSM, n, nil)
	lk, err := New(m, Config{W: 2, N: n})
	if err != nil {
		t.Fatal(err)
	}
	h := []*Handle{lk.Handle(m.Proc(0)), lk.Handle(m.Proc(1)), lk.Handle(m.Proc(2))}
	m.SetGate(c)

	res := make([]bool, n)
	c.Go(0, func() {
		res[0] = h[0].Enter()
		h[0].Exit()
	})
	c.StepN(0, 4) // F&A, announce publish, go[0] read (=1), Head write → CS

	c.Go(1, func() { res[1] = h[1].Enter() })
	c.StepN(1, 4) // F&A, announce publish, go read (=0), first local spin read
	c.Go(2, func() { res[2] = h[2].Enter() })
	c.StepN(2, 4)

	// Slot 1 aborts fully while the holder is inside the CS.
	m.Proc(1).SignalAbort()
	c.Finish(1, 1000)
	if res[1] {
		t.Fatal("aborter entered")
	}

	// Holder exits: FindNext(0) skips the abandoned slot 1, grants slot 2
	// via announce indirection; the waiter wakes from its local spin.
	c.Finish(0, 1000)
	c.Finish(2, 1000)
	c.Wait()
	if !res[0] || !res[2] {
		t.Fatalf("results = %v, want holder and waiter true", res)
	}
}

func TestDSMNaiveVariantStillCorrect(t *testing.T) {
	// NaiveDSM changes costs, not semantics: mutual exclusion and
	// progress must hold.
	for seed := int64(0); seed < 15; seed++ {
		const n = 8
		s := rmr.NewScheduler(n, rmr.RandomPick(seed))
		m := rmr.NewMemory(rmr.DSM, n, nil)
		lk, err := New(m, Config{W: 4, N: n, NaiveDSM: true})
		if err != nil {
			t.Fatal(err)
		}
		m.SetGate(s)
		entered := make([]bool, n)
		for i := 0; i < n; i++ {
			h := lk.Handle(m.Proc(i))
			s.Go(func() {
				if h.Enter() {
					entered[i] = true
					h.Exit()
				}
			})
		}
		if err := s.Run(50_000_000); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for i, e := range entered {
			if !e {
				t.Fatalf("seed %d: process %d starved", seed, i)
			}
		}
	}
}

func TestDSMGrantBeforePublishRace(t *testing.T) {
	// The §3 handshake: the waiter publishes announce[i] then re-checks
	// go[i]; the signaller writes go[i] then reads announce[i]. Force the
	// order where the grant lands before the publish: the waiter must
	// catch it on its go re-check rather than spin forever.
	const n = 2
	c := rmr.NewController(n)
	m := rmr.NewMemory(rmr.DSM, n, nil)
	lk, err := New(m, Config{W: 2, N: n})
	if err != nil {
		t.Fatal(err)
	}
	h0, h1 := lk.Handle(m.Proc(0)), lk.Handle(m.Proc(1))
	m.SetGate(c)

	var ok0, ok1 bool
	c.Go(0, func() {
		ok0 = h0.Enter()
		h0.Exit()
	})
	c.StepN(0, 4) // in CS

	// Waiter performs only its doorway F&A, pausing before the announce
	// publish.
	c.Go(1, func() { ok1 = h1.Enter() })
	c.StepN(1, 1)

	// Holder exits completely: its FindNext grants slot 1 — go[1] ← 1 and
	// announce[1] read as ⊥ (not yet published), so no spin-bit write.
	c.Finish(0, 1000)
	if !ok0 {
		t.Fatal("holder failed")
	}

	// Waiter resumes: publish announce[1], then re-check go[1] — it must
	// see the grant and enter without waiting on its never-to-be-written
	// spin bit.
	c.Finish(1, 1000)
	c.Wait()
	if !ok1 {
		t.Fatal("waiter missed the pre-publish grant")
	}
}
