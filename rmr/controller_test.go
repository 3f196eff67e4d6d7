package rmr

import (
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"sublock/internal/testutil"
)

// planFaultsScript runs the script of TestControllerPlanFaults — a crash of
// process 0 at its second attempt and a two-tick stall of process 1 at its
// first — and returns the fault log.
func planFaultsScript(t *testing.T) []Fault {
	t.Helper()
	c := NewController(2)
	c.SetFaultPlan(&FaultPlan{Faults: []FaultSpec{
		{Proc: 0, Kind: FaultCrash, Op: 2},
		{Proc: 1, Kind: FaultStall, Op: 1, Delay: 2},
	}})
	m := NewMemory(CC, 2, c)
	a := m.Alloc(0)
	p0, p1 := m.Proc(0), m.Proc(1)
	c.Go(0, func() {
		for j := 0; j < 3; j++ {
			p0.FAA(a, 1)
		}
	})
	c.Go(1, func() {
		p1.FAA(a, 1)
		p1.FAA(a, 1)
	})
	if n, err := c.FinishBudget(0, 10); err != nil || n != 1 {
		t.Fatalf("FinishBudget(0) = %d, %v; want crash after 1 grant", n, err)
	}
	if n, err := c.FinishBudget(1, 10); err != nil || n != 4 {
		t.Fatalf("FinishBudget(1) = %d, %v; want 2 stall ticks + 2 operations", n, err)
	}
	return c.Faults()
}

// TestControllerFaultRecordsDeterministic: a scripted fault records the
// same Kind, Proc, Op and Step on every run. Go runs each body up to its
// first attempt before returning, so process 1's stall strikes before the
// first Step, at step 0, every time.
func TestControllerFaultRecordsDeterministic(t *testing.T) {
	want := []Fault{
		{Proc: 1, Kind: FaultStall, Op: 1, Step: 0, Delay: 2},
		{Proc: 0, Kind: FaultCrash, Op: 2, Step: 1},
	}
	for run := 0; run < 200; run++ {
		if got := planFaultsScript(t); !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: faults = %+v, want %+v", run, got, want)
		}
	}
}

// TestControllerWaitDeterministic: Wait drains the unfinished processes in
// id order, one operation per turn, so the final memory and the full trace
// are the same on every run.
func TestControllerWaitDeterministic(t *testing.T) {
	type op struct {
		proc     int
		op       Op
		old, new uint64
	}
	// After process 0's first FAA (0→1), the drain alternates 0, 1, 0, 1, 0.
	want := []op{
		{0, OpFAA, 0, 1},
		{0, OpFAA, 1, 2}, {1, OpWrite, 2, 100},
		{0, OpFAA, 100, 101}, {1, OpWrite, 101, 200},
		{0, OpFAA, 200, 201},
	}
	var first []Event
	for run := 0; run < 50; run++ {
		c := NewController(2)
		m := NewMemory(CC, 2, c)
		a := m.Alloc(0)
		var trace []Event
		m.SetTracer(func(e Event) { trace = append(trace, e) })
		p0, p1 := m.Proc(0), m.Proc(1)
		c.Go(0, func() {
			for j := 0; j < 4; j++ {
				p0.FAA(a, 1)
			}
		})
		c.Go(1, func() {
			p1.Write(a, 100)
			p1.Write(a, 200)
		})
		c.Step(0)
		c.Wait()
		if !c.Finished(0) || !c.Finished(1) {
			t.Fatal("Wait returned with a process unfinished")
		}
		if got := m.Peek(a); got != 201 {
			t.Fatalf("run %d: final word = %d, want 201", run, got)
		}
		var got []op
		for _, e := range trace {
			got = append(got, op{e.Proc, e.Op, e.Old, e.New})
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: trace = %v, want %v", run, got, want)
		}
		if first == nil {
			first = trace
		} else if !reflect.DeepEqual(trace, first) {
			t.Fatalf("run %d: trace differs from run 0:\n%+v\n%+v", run, trace, first)
		}
	}
}

// TestControllerPanicAttribution: a contained panic names the process that
// panicked — also one that panics in Go or Restart before its first
// operation, while another process was the last one stepped, and one that
// panics during Wait's drain. Scripts driven to the end leave no process
// coroutine behind.
func TestControllerPanicAttribution(t *testing.T) {
	procOf := func(err error) int {
		var fe *FaultError
		if !errors.As(err, &fe) || !errors.Is(err, ErrPanicked) {
			t.Fatalf("Err() = %v, want a contained panic", err)
		}
		return fe.Fault.Proc
	}
	base := runtime.NumGoroutine()
	for run := 0; run < 50; run++ {
		// Panic during Go.
		c := NewController(2)
		m := NewMemory(CC, 2, c)
		a := m.Alloc(0)
		p0 := m.Proc(0)
		c.Go(0, func() {
			for j := 0; j < 3; j++ {
				p0.FAA(a, 1)
			}
		})
		c.Step(0)
		c.Go(1, func() { panic("in Go") })
		if !c.Finished(1) {
			t.Fatal("process panicking in Go not retired")
		}
		if got := procOf(c.Err()); got != 1 {
			t.Fatalf("panic in Go attributed to process %d, want 1", got)
		}
		c.Wait()

		// Panic during Restart, after a crash before the first operation.
		c = NewController(2)
		m = NewMemory(CC, 2, c)
		a = m.Alloc(0)
		p0, p1 := m.Proc(0), m.Proc(1)
		c.Crash(1)
		c.Go(1, func() { p1.FAA(a, 1) })
		c.Go(0, func() {
			for j := 0; j < 3; j++ {
				p0.FAA(a, 1)
			}
		})
		c.Step(0)
		if err := c.Err(); err != nil {
			t.Fatalf("Err() = %v after an injected crash, want nil", err)
		}
		c.Restart(1, func() { panic("in Restart") })
		if got := procOf(c.Err()); got != 1 {
			t.Fatalf("panic in Restart attributed to process %d, want 1", got)
		}
		c.Wait()

		// Panic during Wait's drain.
		c = NewController(2)
		m = NewMemory(CC, 2, c)
		a = m.Alloc(0)
		p0, p1 = m.Proc(0), m.Proc(1)
		c.Go(0, func() { p0.FAA(a, 1); p0.FAA(a, 1) })
		c.Go(1, func() { p1.FAA(a, 1); panic("in Wait") })
		c.Wait()
		if got := procOf(c.Err()); got != 1 {
			t.Fatalf("panic in Wait attributed to process %d, want 1", got)
		}
		if got := m.Peek(a); got != 3 {
			t.Fatalf("word = %d after Wait, want 3", got)
		}
	}
	testutil.WaitGoroutinesSettle(t, base, 5*time.Second)
}

// TestSpinLoopStepsAndRMRs: a spin loop takes exactly one step per read,
// finishes on the read after the release write, and pays the two RMRs the
// CC model charges: the first read and the invalidated re-read.
func TestSpinLoopStepsAndRMRs(t *testing.T) {
	c := NewController(2)
	m := NewMemory(CC, 2, nil)
	a := m.Alloc(0)
	m.SetGate(c)

	spins := 0
	c.Go(0, func() {
		p := m.Proc(0)
		for p.Read(a) == 0 {
			spins++
		}
	})
	if got := c.StepN(0, 50); got != 50 || spins != 50 {
		t.Fatalf("50 grants: %d steps, %d spins; want 50 of each", got, spins)
	}
	c.Go(1, func() { m.Proc(1).Write(a, 1) })
	if got := c.Finish(1, 10); got != 1 {
		t.Fatalf("release took %d steps, want 1", got)
	}
	if got := c.Finish(0, 10); got != 1 {
		t.Fatalf("waiter took %d steps after the release, want 1", got)
	}
	p := m.Proc(0)
	if spins != 50 || p.Steps() != 51 || p.RMRs() != 2 {
		t.Fatalf("waiter: %d spins, %d steps, %d RMRs; want 50, 51, 2", spins, p.Steps(), p.RMRs())
	}
}
