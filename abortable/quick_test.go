package abortable

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// TestQuickNativeTree drives quick-generated remove/query sequences against
// the ordered-set model at machine word arity.
func TestQuickNativeTree(t *testing.T) {
	type seq struct {
		N       uint16
		Removes []uint16
		Queries []uint16
	}
	f := func(s seq) bool {
		n := 1 + int(s.N)%5000
		tr := newTree(n)
		live := make([]bool, n)
		for i := range live {
			live[i] = true
		}
		seen := map[int]bool{}
		for _, r := range s.Removes {
			leaf := int(r) % n
			if seen[leaf] {
				continue
			}
			seen[leaf] = true
			live[leaf] = false
			tr.remove(leaf)
		}
		for _, qy := range s.Queries {
			p := int(qy) % n
			q, out := tr.findNext(p)
			wantQ, wantOut := refFindNext(live, p)
			if q != wantQ || out != wantOut {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestTryEnterStorm(t *testing.T) {
	// Many goroutines hammer TryEnter concurrently: exactly one holds at a
	// time, nobody deadlocks, and the loser path never corrupts the queue
	// (every loser's slot is abandoned and skipped by later handoffs).
	const goroutines, rounds = 8, 200
	lk := New(Config{MaxHandles: goroutines})
	var inCS, violations atomic.Int32
	var acquired atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		h, err := lk.NewHandle()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if h.TryEnter() {
					if inCS.Add(1) > 1 {
						violations.Add(1)
					}
					acquired.Add(1)
					inCS.Add(-1)
					h.Exit()
				}
			}
		}()
	}
	wg.Wait()
	if violations.Load() != 0 {
		t.Fatalf("%d mutual-exclusion violations", violations.Load())
	}
	if acquired.Load() == 0 {
		t.Fatal("no TryEnter ever succeeded")
	}
	// The lock must still be functional after the storm.
	h, err := lk.NewHandle()
	if err == nil {
		// Handle limit may be reached; only test if we got one.
		if !h.Enter() {
			t.Fatal("post-storm Enter failed")
		}
		h.Exit()
	}
}

func TestMixedEnterTryEnterAbort(t *testing.T) {
	const goroutines = 9
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
			for i := 0; i < 150; i++ {
				var ok bool
				switch g % 3 {
				case 0:
					ok = h.Enter()
				case 1:
					ok = h.TryEnter()
				case 2:
					if i%2 == 1 {
						h.Abort() // pre-delivered: next Enter may abort
					}
					ok = h.Enter()
				}
				if ok {
					if inCS.Add(1) > 1 {
						violations.Add(1)
					}
					inCS.Add(-1)
					h.Exit()
				}
			}
		}()
	}
	wg.Wait()
	if violations.Load() != 0 {
		t.Fatalf("%d mutual-exclusion violations", violations.Load())
	}
}

func TestManyInstanceSwitches(t *testing.T) {
	// Alternating solo passages force a switch per passage; the descriptor
	// protocol (closed bit, published-instance gating, recycling) must hold
	// up over thousands of instance generations.
	lk := New(Config{MaxHandles: 2})
	a, _ := lk.NewHandle()
	b, _ := lk.NewHandle()
	for i := 0; i < 5000; i++ {
		h := a
		if i%2 == 1 {
			h = b
		}
		if !h.Enter() {
			t.Fatalf("passage %d failed", i)
		}
		h.Exit()
	}
}
