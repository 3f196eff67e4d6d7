package linearscan

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

func TestSequentialChain(t *testing.T) {
	const n = 8
	m := rmr.NewMemory(rmr.CC, n, nil)
	l, err := New(m, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		h := l.Handle(m.Proc(i))
		if !h.Enter() {
			t.Fatalf("process %d failed to enter", i)
		}
		if h.Slot() != i {
			t.Fatalf("process %d got slot %d", i, h.Slot())
		}
		h.Exit()
	}
}

func TestTooManyEntrantsPanics(t *testing.T) {
	m := rmr.NewMemory(rmr.CC, 2, nil)
	l, err := New(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	h := l.Handle(m.Proc(0))
	h.Enter()
	h.Exit()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	l.Handle(m.Proc(1)).Enter()
}

func TestHandoffCostLinearInAborts(t *testing.T) {
	// An exiter followed by k consecutive abandoned slots pays k+1 CASes:
	// the Θ(A) adaptive shape the paper's tree reduces to O(log_W A).
	for _, aborts := range []int{1, 4, 16, 64} {
		n := aborts + 3
		m := rmr.NewMemory(rmr.CC, n, nil)
		l, err := New(m, n)
		if err != nil {
			t.Fatal(err)
		}
		holder := l.Handle(m.Proc(0))
		if !holder.Enter() {
			t.Fatal("holder failed")
		}
		// k waiters enqueue and abort (sequentially: signal already set).
		for i := 1; i <= aborts; i++ {
			p := m.Proc(i)
			p.SignalAbort()
			if l.Handle(p).Enter() {
				t.Fatalf("aborter %d entered", i)
			}
		}
		// One live waiter enqueues and spins (it will be granted by the
		// holder): its doorway F&A and two reads of its slot.
		c := rmr.NewController(n)
		m.SetGate(c)
		waiter := l.Handle(m.Proc(n - 1))
		var ok bool
		c.Go(n-1, func() {
			if ok = waiter.Enter(); ok {
				waiter.Exit()
			}
		})
		c.StepN(n-1, 3)

		p0 := m.Proc(0)
		before := p0.RMRs()
		c.Go(0, holder.Exit)
		c.Finish(0, 10_000)
		cost := p0.RMRs() - before
		c.Finish(n-1, 10_000)
		if !ok {
			t.Fatal("waiter failed to acquire")
		}
		want := int64(aborts + 1) // one failed CAS per abandoned slot + grant
		if cost != want {
			t.Errorf("aborts=%d: exit RMRs = %d, want %d", aborts, cost, want)
		}
	}
}

func TestGrantDuringAbortHandsOff(t *testing.T) {
	// The grant/abort race: slot1's process decides to abort, the holder
	// grants slot1 concurrently, and the aborter must pass the lock to
	// slot2 itself.
	const n = 3
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

	res := make([]bool, n)
	c.Go(0, func() {
		res[0] = handles[0].Enter()
		handles[0].Exit()
	})
	c.StepN(0, 2) // F&A + slot read (granted) → in CS
	c.Go(1, func() { res[1] = handles[1].Enter() })
	c.StepN(1, 2) // F&A + slot read (waiting) → spinning
	c.Go(2, func() { res[2] = handles[2].Enter() })
	c.StepN(2, 2)

	// slot1's process takes one more spin read (still waiting), then the
	// signal arrives: its next operation will be the CAS(waiting→abandoned).
	c.Step(1)
	m.Proc(1).SignalAbort()
	c.Step(1) // one more read of waiting; now committed to the abort CAS

	// The holder exits first, granting slot 1 — so the abort CAS fails
	// against the grant and the aborter must hand the lock to slot 2.
	c.Finish(0, 1000)
	c.Finish(1, 1000)
	if res[1] {
		t.Fatal("aborter reported success")
	}
	c.Finish(2, 1000)
	c.Wait()
	if !res[2] {
		t.Fatal("slot 2 stranded: grant/abort race lost the lock")
	}
}
