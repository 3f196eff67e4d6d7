package abortable

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestSingleHandle(t *testing.T) {
	lk := New(Config{MaxHandles: 4})
	h, err := lk.NewHandle()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if !h.Enter() {
			t.Fatalf("passage %d: Enter failed", i)
		}
		h.Exit()
	}
}

func TestDefaultConfig(t *testing.T) {
	lk := New(Config{})
	if lk.n != DefaultMaxHandles {
		t.Fatalf("default MaxHandles = %d, want %d", lk.n, DefaultMaxHandles)
	}
}

func TestHandleLimit(t *testing.T) {
	lk := New(Config{MaxHandles: 2})
	for i := 0; i < 2; i++ {
		if _, err := lk.NewHandle(); err != nil {
			t.Fatalf("handle %d: %v", i, err)
		}
	}
	if _, err := lk.NewHandle(); err == nil {
		t.Fatal("third handle accepted with MaxHandles=2")
	}
}

func TestMutualExclusionStress(t *testing.T) {
	const goroutines, passages = 8, 300
	lk := New(Config{MaxHandles: goroutines})
	var inCS, violations atomic.Int32
	var total atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		h, err := lk.NewHandle()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < passages; i++ {
				if !h.Enter() {
					t.Error("Enter failed without abort")
					return
				}
				if inCS.Add(1) > 1 {
					violations.Add(1)
				}
				total.Add(1)
				inCS.Add(-1)
				h.Exit()
			}
		}()
	}
	wg.Wait()
	if v := violations.Load(); v != 0 {
		t.Fatalf("%d mutual exclusion violations", v)
	}
	if got := total.Load(); got != goroutines*passages {
		t.Fatalf("completed %d passages, want %d", got, goroutines*passages)
	}
}

func TestAbortWhileWaiting(t *testing.T) {
	lk := New(Config{MaxHandles: 2})
	holder, _ := lk.NewHandle()
	waiter, _ := lk.NewHandle()
	if !holder.Enter() {
		t.Fatal("holder failed")
	}

	entered := make(chan bool)
	go func() { entered <- waiter.Enter() }()
	time.Sleep(10 * time.Millisecond) // let the waiter reach its spin
	waiter.Abort()
	select {
	case ok := <-entered:
		if ok {
			t.Fatal("waiter entered while the lock was held")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("abort did not unblock the waiter (bounded abort violated)")
	}
	holder.Exit()
	// The lock must still work after an abort.
	if !waiter.Enter() {
		t.Fatal("post-abort Enter failed")
	}
	waiter.Exit()
}

func TestAbortSignalConsumed(t *testing.T) {
	lk := New(Config{MaxHandles: 1})
	h, _ := lk.NewHandle()
	h.Abort()
	// Uncontended Enter may win before noticing the signal (slot 0 is
	// pre-granted) — either outcome is legal, but the signal must be gone
	// afterwards.
	if h.Enter() {
		h.Exit()
	}
	if h.abortFlag.Load() {
		t.Fatal("abort signal not consumed by Enter")
	}
	if !h.Enter() {
		t.Fatal("Enter failed after the signal was consumed")
	}
	h.Exit()
}

func TestEnterContextCancellation(t *testing.T) {
	lk := New(Config{MaxHandles: 2})
	holder, _ := lk.NewHandle()
	waiter, _ := lk.NewHandle()
	if !holder.Enter() {
		t.Fatal("holder failed")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	err := waiter.EnterContext(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("EnterContext = %v, want DeadlineExceeded", err)
	}
	holder.Exit()
	if err := waiter.EnterContext(context.Background()); err != nil {
		t.Fatalf("EnterContext after release = %v", err)
	}
	waiter.Exit()
}

func TestEnterContextPreCancelled(t *testing.T) {
	lk := New(Config{MaxHandles: 1})
	h, _ := lk.NewHandle()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := h.EnterContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("EnterContext = %v, want Canceled", err)
	}
}

func TestEnterContextAbortErr(t *testing.T) {
	lk := New(Config{MaxHandles: 2})
	holder, _ := lk.NewHandle()
	waiter, _ := lk.NewHandle()
	if !holder.Enter() {
		t.Fatal("holder failed")
	}
	done := make(chan error)
	go func() { done <- waiter.EnterContext(context.Background()) }()
	time.Sleep(10 * time.Millisecond)
	waiter.Abort()
	if err := <-done; !errors.Is(err, ErrAborted) {
		t.Fatalf("EnterContext = %v, want ErrAborted", err)
	}
	holder.Exit()
}

func TestTryEnter(t *testing.T) {
	lk := New(Config{MaxHandles: 2})
	a, _ := lk.NewHandle()
	b, _ := lk.NewHandle()
	if !a.TryEnter() {
		t.Fatal("TryEnter on a free lock failed")
	}
	if b.TryEnter() {
		t.Fatal("TryEnter succeeded while held")
	}
	a.Exit()
	if !b.TryEnter() {
		t.Fatal("TryEnter after release failed")
	}
	b.Exit()
}

func TestAbortStress(t *testing.T) {
	// Heavy mixed workload: half the goroutines abort aggressively via a
	// background canceller; everything must stay mutually exclusive and
	// non-aborters must make progress.
	const goroutines = 8
	lk := New(Config{MaxHandles: goroutines})
	var inCS, violations atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		h, err := lk.NewHandle()
		if err != nil {
			t.Fatal(err)
		}
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if g%2 == 1 {
					ctx, cancel := context.WithTimeout(context.Background(), time.Duration(i%3)*time.Millisecond)
					err := h.EnterContext(ctx)
					cancel()
					if err != nil {
						continue
					}
				} else if !h.Enter() {
					t.Error("non-aborter failed to enter")
					return
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
		t.Fatalf("%d mutual exclusion violations", v)
	}
}

func TestMisusePanics(t *testing.T) {
	lk := New(Config{MaxHandles: 2})
	t.Run("exit without enter", func(t *testing.T) {
		h, _ := lk.NewHandle()
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		h.Exit()
	})
	t.Run("enter while holding", func(t *testing.T) {
		h, _ := lk.NewHandle()
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
	t.Run("bad config", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		New(Config{MaxHandles: -1})
	})
}

func TestInstanceSwitchReuse(t *testing.T) {
	// Every quiescent release switches instances; a handle re-acquiring
	// must never reuse an instance it already used (doorway overflow or a
	// stuck spin would surface here).
	lk := New(Config{MaxHandles: 3})
	handles := make([]*Handle, 3)
	for i := range handles {
		h, err := lk.NewHandle()
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = h
	}
	for round := 0; round < 200; round++ {
		h := handles[round%3]
		if !h.Enter() {
			t.Fatalf("round %d: Enter failed", round)
		}
		h.Exit()
	}
}

func TestSpinTry(t *testing.T) {
	var l SpinTry
	if !l.TryEnter() {
		t.Fatal("TryEnter on free lock failed")
	}
	if l.TryEnter() {
		t.Fatal("TryEnter on held lock succeeded")
	}
	l.Exit()
	if !l.Enter(nil) {
		t.Fatal("Enter failed")
	}
	done := make(chan bool)
	var stop atomic.Bool
	go func() { done <- l.Enter(stop.Load) }()
	time.Sleep(5 * time.Millisecond)
	stop.Store(true)
	if <-done {
		t.Fatal("aborted Enter reported success")
	}
	l.Exit()
}

func TestStats(t *testing.T) {
	lk := New(Config{MaxHandles: 2})
	m := observe(lk)
	h, _ := lk.NewHandle()
	for i := 0; i < 3; i++ {
		if !h.Enter() {
			t.Fatal("Enter failed")
		}
		h.Exit()
	}
	h.Abort()
	holder, _ := lk.NewHandle()
	if !holder.Enter() {
		t.Fatal("holder failed")
	}
	done := make(chan bool)
	go func() { done <- h.Enter() }()
	time.Sleep(5 * time.Millisecond)
	h.Abort()
	if <-done {
		t.Fatal("aborted Enter succeeded")
	}
	holder.Exit()

	st := lk.Stats()
	if st.Handles != 2 {
		t.Fatalf("Handles = %d, want 2", st.Handles)
	}
	if st.Instances < 2 || st.Instances > int64(st.Handles)+1 {
		t.Fatalf("Instances = %d, want 2..%d (a switch happened; at most handles+1)", st.Instances, st.Handles+1)
	}
	s := m.Snapshot()
	if s.Switches < 3 {
		t.Fatalf("Switches = %d, want ≥ 3 (one per solo passage)", s.Switches)
	}
	if s.Aborts < 1 {
		t.Fatalf("Aborts = %d, want ≥ 1", s.Aborts)
	}
}
