package abortable

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitForParks polls until the counter reported by parks reaches want, so
// a test can line its next act up against waiters that have demonstrably
// escalated to tier 3. Fails the test after a generous deadline.
func waitForParks(t *testing.T, parks func() int64, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for parks() < want {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d parks (have %d)", want, parks())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSpinBudget(t *testing.T) {
	if got := spinBudget(1); got != 0 {
		t.Errorf("spinBudget(1) = %d, want 0: spinning on a single-P host only delays the holder", got)
	}
	if got := spinBudget(2); got != spinRounds {
		t.Errorf("spinBudget(2) = %d, want %d", got, spinRounds)
	}
}

// TestSinglePContendedAcquire is the single-P regression: with
// GOMAXPROCS(1) the spin tier is skipped, and contended passages must
// still make progress (a waiter that busy-spun here would livelock until
// the scheduler preempted it; a waiter that parked without a wake source
// would hang).
func TestSinglePContendedAcquire(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const workers, rounds = 4, 50

	lk := New(Config{MaxHandles: workers})
	var inCS, violations atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		h, err := lk.NewHandle()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for !h.Enter() {
				}
				if inCS.Add(1) > 1 {
					violations.Add(1)
				}
				inCS.Add(-1)
				h.Exit()
			}
		}()
	}
	wg.Wait()
	if v := violations.Load(); v != 0 {
		t.Fatalf("mutual exclusion violated %d times", v)
	}
}

// TestParkUnderOversubscription drives waiters against a held lock until
// they escalate to tier 3, then releases the holder and checks every
// parked waiter is woken through the grant chain.
func TestParkUnderOversubscription(t *testing.T) {
	const waiters = 8
	lk := New(Config{MaxHandles: waiters + 1})
	holder, err := lk.NewHandle()
	if err != nil {
		t.Fatal(err)
	}
	if !holder.Enter() {
		t.Fatal("uncontended Enter failed")
	}

	var wg sync.WaitGroup
	var acquired atomic.Int32
	for i := 0; i < waiters; i++ {
		h, err := lk.NewHandle()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if h.Enter() {
				acquired.Add(1)
				h.Exit()
			}
		}()
	}

	// Every waiter must reach tier 3 while the lock is held.
	waitForParks(t, func() int64 { return lk.Stats().Parks }, waiters)

	holder.Exit()
	wg.Wait()
	if got := acquired.Load(); got != waiters {
		t.Fatalf("%d of %d parked waiters acquired after release", got, waiters)
	}
}

// TestAbortUnparksWaiter: a waiter parked against a held lock must return
// false promptly after Abort — the signal may not wait for the release.
func TestAbortUnparksWaiter(t *testing.T) {
	lk := New(Config{MaxHandles: 2})
	holder, err := lk.NewHandle()
	if err != nil {
		t.Fatal(err)
	}
	if !holder.Enter() {
		t.Fatal("uncontended Enter failed")
	}
	waiter, err := lk.NewHandle()
	if err != nil {
		t.Fatal(err)
	}
	res := make(chan bool, 1)
	go func() { res <- waiter.Enter() }()
	waitForParks(t, func() int64 { return lk.Stats().Parks }, 1)

	waiter.Abort()
	select {
	case got := <-res:
		if got {
			t.Fatal("aborted waiter entered the CS while the lock was held")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Abort did not unpark the waiter")
	}
	holder.Exit()
}

// TestEnterContextCancelUnparks: context cancellation must reach a parked
// waiter just like Abort does.
func TestEnterContextCancelUnparks(t *testing.T) {
	lk := New(Config{MaxHandles: 2})
	holder, err := lk.NewHandle()
	if err != nil {
		t.Fatal(err)
	}
	if !holder.Enter() {
		t.Fatal("uncontended Enter failed")
	}
	waiter, err := lk.NewHandle()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	res := make(chan error, 1)
	go func() { res <- waiter.EnterContext(ctx) }()
	waitForParks(t, func() int64 { return lk.Stats().Parks }, 1)

	cancel()
	select {
	case err := <-res:
		if err != context.Canceled {
			t.Fatalf("EnterContext returned %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancellation did not unpark the waiter")
	}
	holder.Exit()
}

// TestOneShotAbortUnparks: the standalone one-shot lock shares the waiting
// tiers; a parked one-shot waiter must be unparked by its Abort.
func TestOneShotAbortUnparks(t *testing.T) {
	l := NewOneShot(2)
	h0, err := l.NewHandle()
	if err != nil {
		t.Fatal(err)
	}
	h1, err := l.NewHandle()
	if err != nil {
		t.Fatal(err)
	}
	if !h0.Enter() {
		t.Fatal("slot 0 must be granted immediately")
	}
	res := make(chan bool, 1)
	go func() { res <- h1.Enter() }()
	waitForParks(t, func() int64 { return l.Stats().Parks }, 1)

	h1.Abort()
	select {
	case got := <-res:
		if got {
			t.Fatal("aborted one-shot waiter entered the CS while the lock was held")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Abort did not unpark the one-shot waiter")
	}
	h0.Exit()
}

// Zero-alloc guards for the fast path with parking compiled in: a passage
// that rides an already-installed instance (a fresh handle's slot is
// pre-granted by the predecessor's handoff) must not allocate. The guards
// use distinct handles on one instance so that no passage switches; the
// switching passage has its own guard, TestSwitchPathDoesNotAllocate.

func TestEnterExitFastPathDoesNotAllocate(t *testing.T) {
	const runs = 512
	lk := New(Config{MaxHandles: 4 * runs})
	handles := make([]*Handle, runs+1)
	for i := range handles {
		h, err := lk.NewHandle()
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = h
	}
	i := 0
	avg := testing.AllocsPerRun(runs, func() {
		h := handles[i]
		i++
		if !h.Enter() {
			t.Fatal("uncontended Enter failed")
		}
		h.Exit()
	})
	if avg != 0 {
		t.Errorf("Enter/Exit fast path allocates %.1f objects per passage, want 0", avg)
	}
}

func TestTryEnterFastPathDoesNotAllocate(t *testing.T) {
	const runs = 512
	lk := New(Config{MaxHandles: 4 * runs})
	handles := make([]*Handle, runs+1)
	for i := range handles {
		h, err := lk.NewHandle()
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = h
	}
	i := 0
	avg := testing.AllocsPerRun(runs, func() {
		h := handles[i]
		i++
		if !h.TryEnter() {
			t.Fatal("uncontended TryEnter failed")
		}
		h.Exit()
	})
	if avg != 0 {
		t.Errorf("TryEnter fast path allocates %.1f objects per passage, want 0", avg)
	}
}

func TestEnterContextFastPathDoesNotAllocate(t *testing.T) {
	const runs = 512
	lk := New(Config{MaxHandles: 4 * runs})
	handles := make([]*Handle, runs+1)
	for i := range handles {
		h, err := lk.NewHandle()
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = h
	}
	ctx := context.Background()
	i := 0
	avg := testing.AllocsPerRun(runs, func() {
		h := handles[i]
		i++
		if err := h.EnterContext(ctx); err != nil {
			t.Fatal(err)
		}
		h.Exit()
	})
	if avg != 0 {
		t.Errorf("EnterContext fast path allocates %.1f objects per passage, want 0", avg)
	}
}

func TestSpinTryDoesNotAllocate(t *testing.T) {
	var l SpinTry
	avg := testing.AllocsPerRun(512, func() {
		if !l.Enter(nil) {
			t.Fatal("uncontended SpinTry.Enter failed")
		}
		l.Exit()
	})
	if avg != 0 {
		t.Errorf("SpinTry passage allocates %.1f objects, want 0", avg)
	}
}

// TestSpinTryAbortBeforeFirstCAS: the abort probe is consulted before the
// first acquisition attempt, so a signal delivered before the call never
// acquires — and in particular never dirties the lock word of a free lock.
func TestSpinTryAbortBeforeFirstCAS(t *testing.T) {
	var l SpinTry
	if l.Enter(func() bool { return true }) {
		t.Fatal("Enter acquired despite a pre-delivered abort")
	}
	if !l.TryEnter() {
		t.Fatal("aborted Enter left the free lock taken")
	}
	// Against a held lock the probe must terminate the wait, not just gate
	// the CAS.
	probes := 0
	if l.Enter(func() bool { probes++; return true }) {
		t.Fatal("Enter acquired a held lock under an abort signal")
	}
	if probes == 0 {
		t.Fatal("abort probe never consulted")
	}
	l.Exit()
}
