package abortable

// Experiment E12: wall-clock throughput of the native lock against
// sync.Mutex and a test-and-set spin lock. These benches measure the Go
// library deliverable on real hardware, complementing the RMR-model benches
// at the repository root. (The MCS anchor lives in the simulator, under
// locks/mcs, and is benchmarked by experiment E11.)

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
)

func BenchmarkNativeUncontended(b *testing.B) {
	lk := New(Config{MaxHandles: 1})
	h, err := lk.NewHandle()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !h.Enter() {
			b.Fatal("Enter failed")
		}
		h.Exit()
	}
}

func BenchmarkNativeUncontendedTryEnter(b *testing.B) {
	lk := New(Config{MaxHandles: 1})
	h, err := lk.NewHandle()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !h.TryEnter() {
			b.Fatal("TryEnter failed")
		}
		h.Exit()
	}
}

func BenchmarkSyncMutexUncontended(b *testing.B) {
	var mu sync.Mutex
	for i := 0; i < b.N; i++ {
		mu.Lock()
		mu.Unlock() //nolint:staticcheck // benchmark measures the pair
	}
}

func BenchmarkSpinTryUncontended(b *testing.B) {
	var l SpinTry
	for i := 0; i < b.N; i++ {
		l.Enter(nil)
		l.Exit()
	}
}

// contended runs b.N total passages split across GOMAXPROCS goroutines.
func contended(b *testing.B, acquire func(g int) func()) {
	b.Helper()
	procs := runtime.GOMAXPROCS(0)
	if procs < 2 {
		procs = 2
	}
	per := b.N/procs + 1
	var wg sync.WaitGroup
	b.ResetTimer()
	for g := 0; g < procs; g++ {
		pass := acquire(g)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				pass()
			}
		}()
	}
	wg.Wait()
}

func BenchmarkNativeContended(b *testing.B) {
	lk := New(Config{MaxHandles: 64})
	contended(b, func(int) func() {
		h, err := lk.NewHandle()
		if err != nil {
			b.Fatal(err)
		}
		return func() {
			if h.Enter() {
				h.Exit()
			}
		}
	})
}

func BenchmarkSyncMutexContended(b *testing.B) {
	var mu sync.Mutex
	contended(b, func(int) func() {
		return func() {
			mu.Lock()
			mu.Unlock() //nolint:staticcheck
		}
	})
}

func BenchmarkSpinTryContended(b *testing.B) {
	var l SpinTry
	contended(b, func(int) func() {
		return func() {
			if l.Enter(nil) {
				l.Exit()
			}
		}
	})
}

// BenchmarkNativeAbortChurn measures the abort path: every other goroutine
// runs with a pre-cancelled context, exercising enqueue-then-abandon, while
// the rest make progress.
func BenchmarkNativeAbortChurn(b *testing.B) {
	lk := New(Config{MaxHandles: 64})
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	contended(b, func(g int) func() {
		h, err := lk.NewHandle()
		if err != nil {
			b.Fatal(err)
		}
		if g%2 == 1 {
			return func() { _ = h.EnterContext(cancelled) }
		}
		return func() {
			if h.Enter() {
				h.Exit()
			}
		}
	})
}

// BenchmarkNativeTreeOps micro-benchmarks the W=64 tree.
func BenchmarkNativeTreeOps(b *testing.B) {
	b.Run("findNext/hot", func(b *testing.B) {
		tr := newTree(4096)
		for i := 0; i < b.N; i++ {
			tr.findNext(63)
		}
	})
	b.Run("remove+findNext", func(b *testing.B) {
		// Fresh tree per batch to keep remove single-shot per leaf.
		for i := 0; i < b.N; i += 4094 {
			tr := newTree(4096)
			n := min(4094, b.N-i)
			for p := 1; p <= n; p++ {
				tr.remove(p)
			}
		}
	})
}

func BenchmarkOneShotChain(b *testing.B) {
	// One-shot locks are single-use: per iteration, build one and run a
	// full FCFS chain of 64 handles through it.
	for i := 0; i < b.N; i++ {
		l := NewOneShot(64)
		for k := 0; k < 64; k++ {
			h, err := l.NewHandle()
			if err != nil {
				b.Fatal(err)
			}
			if !h.Enter() {
				b.Fatal("enter failed")
			}
			h.Exit()
		}
	}
}

func BenchmarkHandlePool(b *testing.B) {
	lk := New(Config{MaxHandles: 8})
	pool, err := NewHandlePool(lk, 8)
	if err != nil {
		b.Fatal(err)
	}
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			h := pool.Enter()
			pool.Release(h)
		}
	})
}

// BenchmarkSwitchMaxHandles times a lone handle's passages on a lock with
// all MaxHandles handles registered. Every passage switches instances
// (with one slot the departure retires it; otherwise the re-entry waits
// for the switch and retires it itself), and every switch scans each
// registered handle's hazard pointer and resets an instance of MaxHandles
// slots, so ns/op records the Θ(MaxHandles) switch cost.
func BenchmarkSwitchMaxHandles(b *testing.B) {
	for _, n := range []int{1, 8, 64, 512, 4096} {
		b.Run(fmt.Sprintf("MaxHandles=%d", n), func(b *testing.B) {
			lk := New(Config{MaxHandles: n})
			var h *Handle
			for i := 0; i < n; i++ {
				var err error
				if h, err = lk.NewHandle(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !h.Enter() {
					b.Fatal("Enter failed")
				}
				h.Exit()
			}
		})
	}
}
