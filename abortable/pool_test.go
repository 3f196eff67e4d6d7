package abortable

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestHandlePoolBasic(t *testing.T) {
	lk := New(Config{MaxHandles: 4})
	pool, err := NewHandlePool(lk, 4)
	if err != nil {
		t.Fatal(err)
	}
	h := pool.Enter()
	pool.Release(h)
	h2, err := pool.EnterContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	pool.Release(h2)
}

func TestHandlePoolValidation(t *testing.T) {
	lk := New(Config{MaxHandles: 2})
	if _, err := NewHandlePool(lk, 0); err == nil {
		t.Fatal("size 0 accepted")
	}
	if _, err := NewHandlePool(lk, 3); err == nil {
		t.Fatal("pool larger than MaxHandles accepted")
	}
}

// TestHandlePoolManyGoroutines: goroutines outnumbering the pool's handles
// keep mutual exclusion and all complete. The oversubscribed input has far
// more waiting goroutines than CPUs; it finishes within its bound (in well
// under a second on 2 CPUs) only because waiters give up their CPU, by
// yielding and then parking, instead of spinning until preempted.
func TestHandlePoolManyGoroutines(t *testing.T) {
	for _, tc := range []struct {
		name                        string
		goroutines, handles, rounds int
		bound                       time.Duration // 0: no wall-clock bound
	}{
		{name: "shared", goroutines: 32, handles: 4, rounds: 25},
		{name: "oversubscribed", goroutines: 10240, handles: 1024, rounds: 2, bound: 30 * time.Second},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.goroutines > 8000 && raceEnabled {
				t.Skip("the race detector caps live goroutines at 8128")
			}
			lk := New(Config{MaxHandles: tc.handles})
			pool, err := NewHandlePool(lk, tc.handles)
			if err != nil {
				t.Fatal(err)
			}
			var inCS, violations atomic.Int32
			var done atomic.Int64
			var wg sync.WaitGroup
			start := time.Now()
			for g := 0; g < tc.goroutines; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < tc.rounds; i++ {
						h := pool.Enter()
						if inCS.Add(1) > 1 {
							violations.Add(1)
						}
						done.Add(1)
						inCS.Add(-1)
						pool.Release(h)
					}
				}()
			}
			wg.Wait()
			elapsed := time.Since(start)
			if violations.Load() != 0 {
				t.Fatalf("%d mutual-exclusion violations", violations.Load())
			}
			if want := int64(tc.goroutines * tc.rounds); done.Load() != want {
				t.Fatalf("completed %d passages, want %d", done.Load(), want)
			}
			if tc.bound > 0 && elapsed > tc.bound {
				t.Fatalf("%d goroutines took %v, want under %v", tc.goroutines, elapsed, tc.bound)
			}
		})
	}
}

func TestHandlePoolContextWhileExhausted(t *testing.T) {
	lk := New(Config{MaxHandles: 1})
	pool, err := NewHandlePool(lk, 1)
	if err != nil {
		t.Fatal(err)
	}
	h := pool.Enter() // drain the pool
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := pool.EnterContext(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	pool.Release(h)
}

func TestHandlePoolTryEnter(t *testing.T) {
	lk := New(Config{MaxHandles: 2})
	pool, err := NewHandlePool(lk, 2)
	if err != nil {
		t.Fatal(err)
	}
	a := pool.TryEnter()
	if a == nil {
		t.Fatal("TryEnter on free lock failed")
	}
	if b := pool.TryEnter(); b != nil {
		t.Fatal("TryEnter succeeded while held")
	}
	pool.Release(a)
	if c := pool.TryEnter(); c == nil {
		t.Fatal("TryEnter after release failed")
	} else {
		pool.Release(c)
	}
}

// TestPoolEnterContextDoneChannelDoesNotAllocate: an uncontended pool
// EnterContext never calls ctx.Done, so a fresh cancelable context per
// call (lockd makes one per acquire) costs only its own allocations. A
// Done call would allocate the context's channel on every passage.
func TestPoolEnterContextDoneChannelDoesNotAllocate(t *testing.T) {
	lk := New(Config{MaxHandles: 1})
	pool, err := NewHandlePool(lk, 1)
	if err != nil {
		t.Fatal(err)
	}
	bg := context.Background()
	ctxOnly := testing.AllocsPerRun(256, func() {
		_, cancel := context.WithCancel(bg)
		cancel()
	})
	withPassage := testing.AllocsPerRun(256, func() {
		ctx, cancel := context.WithCancel(bg)
		h, err := pool.EnterContext(ctx)
		if err != nil {
			t.Fatal(err)
		}
		pool.Release(h)
		cancel()
	})
	if withPassage != ctxOnly {
		t.Errorf("a passage with a fresh context allocates %.1f objects, the context alone %.1f", withPassage, ctxOnly)
	}
}
