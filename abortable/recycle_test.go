package abortable

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sublock/abortable/obs"
)

// Instance recycling (§6.2, "Recycling" in oneshot.go): a switch reuses a
// retired instance that no handle publishes, so the switch path allocates
// nothing once the pool is warm, the pool stays within handles+1
// instances, and an idle handle never mistakes a recycled incarnation for
// the instance it last used.

// TestSwitchPathDoesNotAllocate: passages that switch instances every
// time allocate nothing after warm-up, whichever way the switch is won (a
// departure exhausting the slots, or a switch-waiter retiring a quiescent
// instance) and whichever entry point drives it.
func TestSwitchPathDoesNotAllocate(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		name     string
		max      int  // MaxHandles
		handles  int  // handles taking turns, one passage each
		idle     int  // further registered handles that never pass
		observed bool // attach an obs collector
		pass     func(*Handle) bool
	}{
		// With spare slots, a lone handle's re-entry waits for the switch
		// and retires the quiescent instance itself.
		{"one handle re-entering", 4, 1, 0, false, (*Handle).Enter},
		// Two handles exhaust a two-slot instance per pair of passages.
		{"two alternating handles", 2, 2, 0, false, (*Handle).Enter},
		{"TryEnter", 1, 1, 0, false, (*Handle).TryEnter},
		{"EnterContext", 1, 1, 0, false, func(h *Handle) bool { return h.EnterContext(ctx) == nil }},
		{"observed", 4, 1, 0, true, (*Handle).Enter},
		// Every handle registered: each switch scans all their hazard
		// pointers (Lock.nextInstance) and resets a 4096-slot instance.
		{"MaxHandles 4096, one handle re-entering", 4096, 1, 4095, false, (*Handle).Enter},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			lk := New(Config{MaxHandles: c.max})
			if c.observed {
				lk.SetObserver(obs.New("switch-alloc", obs.Config{ProfileLabels: true}))
			}
			hs := make([]*Handle, c.handles)
			for i := range hs {
				h, err := lk.NewHandle()
				if err != nil {
					t.Fatal(err)
				}
				hs[i] = h
			}
			for k := 0; k < c.idle; k++ {
				if _, err := lk.NewHandle(); err != nil {
					t.Fatal(err)
				}
			}
			i := 0
			passage := func() {
				h := hs[i%len(hs)]
				i++
				if !c.pass(h) {
					t.Fatal("uncontended acquisition failed")
				}
				h.Exit()
			}
			for w := 0; w < 16; w++ { // fill the pool
				passage()
			}
			// Every switch runs one reuse scan (nextInstance), which
			// advances epoch: the count of switches without a collector,
			// which would change the path being measured.
			before := lk.epoch
			const runs = 512
			if avg := testing.AllocsPerRun(runs, passage); avg != 0 {
				t.Errorf("switching passage allocates %.1f objects, want 0", avg)
			}
			if sw := lk.epoch - before; sw < runs/uint64(c.handles) {
				t.Errorf("%d switches over %d passages: the case does not exercise the switch path", sw, runs)
			}
		})
	}
}

// TestIdleHandleSeesNoRecycledInstance is the ABA regression: handle A
// passes once and idles while B drives at least 100 switches. A still
// publishes its old instance, so that instance is never recycled, and A's
// next Enter must acquire straight away rather than take the recycled
// incarnation for the one it used and wait for its switch. Both parities
// of B's passage count are run, since a pool that ignored publication
// would alternate its instances.
func TestIdleHandleSeesNoRecycledInstance(t *testing.T) {
	for _, passages := range []int{100, 101} {
		lk := New(Config{MaxHandles: 2})
		m := observe(lk)
		a, _ := lk.NewHandle()
		b, _ := lk.NewHandle()
		if !a.Enter() {
			t.Fatal("A's first Enter failed")
		}
		a.Exit()
		for i := 0; i < passages || m.Snapshot().Switches < 100; i++ {
			if !b.Enter() {
				t.Fatalf("B's passage %d failed", i)
			}
			b.Exit()
		}
		waits := m.Snapshot().SwitchWaits
		if !a.Enter() {
			t.Fatal("A's second Enter failed")
		}
		a.Exit()
		if got := m.Snapshot().SwitchWaits; got != waits {
			t.Errorf("after %d passages by B, A's Enter registered %d switch waits, want 0", passages, got-waits)
		}
	}
}

// TestInstanceRecyclingStress drives N ∈ {1, 2, 8} handles through random
// Enter, TryEnter, EnterContext with cancellation, pre-delivered and
// asynchronous Aborts, and critical sections long enough to push waiters
// into the parking tier. Mutual exclusion and the passage count are
// checked with plain memory, and the pool must stay within the handles+1
// bound the reuse scan guarantees.
func TestInstanceRecyclingStress(t *testing.T) {
	ops := 2000
	if raceEnabled {
		ops = 1000
	}
	for _, n := range []int{1, 2, 8} {
		lk := New(Config{MaxHandles: n})
		hs := make([]*Handle, n)
		for i := range hs {
			h, err := lk.NewHandle()
			if err != nil {
				t.Fatal(err)
			}
			hs[i] = h
		}
		// owner and count are plain memory guarded only by the lock: two
		// holders at once show up as an owner mismatch (and, under -race,
		// as a data race), a lost or duplicated passage as a count mismatch.
		var (
			owner, count int
			violations   atomic.Int64
			entered      atomic.Int64
			wg           sync.WaitGroup
			stop         = make(chan struct{})
		)
		// The aborter delivers asynchronous Aborts to random handles.
		aborted := make(chan struct{})
		go func() {
			defer close(aborted)
			rng := rand.New(rand.NewSource(int64(n)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				hs[rng.Intn(n)].Abort()
				time.Sleep(time.Duration(rng.Intn(50)) * time.Microsecond)
			}
		}()
		for g, h := range hs {
			wg.Add(1)
			go func(id int, h *Handle) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(n*100 + id)))
				for i := 0; i < ops; i++ {
					var ok bool
					switch r := rng.Intn(10); {
					case r < 5:
						ok = h.Enter()
					case r < 7:
						ok = h.TryEnter()
					case r < 9:
						ctx, cancel := context.WithTimeout(context.Background(),
							time.Duration(rng.Intn(100))*time.Microsecond)
						ok = h.EnterContext(ctx) == nil
						cancel()
					default:
						h.Abort()
						ok = h.Enter()
					}
					if !ok {
						continue
					}
					if owner != 0 {
						violations.Add(1)
					}
					owner = id + 1
					count++
					if rng.Intn(20) == 0 {
						time.Sleep(200 * time.Microsecond) // waiters park
					}
					if owner != id+1 {
						violations.Add(1)
					}
					owner = 0
					entered.Add(1)
					h.Exit()
				}
			}(g, h)
		}
		wg.Wait()
		close(stop)
		<-aborted
		if v := violations.Load(); v != 0 {
			t.Errorf("N=%d: %d mutual-exclusion violations", n, v)
		}
		if int64(count) != entered.Load() {
			t.Errorf("N=%d: critical section counted %d passages, handles completed %d", n, count, entered.Load())
		}
		// epoch counts the switches: one reuse scan each.
		st := lk.Stats()
		if st.Instances > int64(n)+1 {
			t.Errorf("N=%d: %d instances allocated over %d switches, want at most %d", n, st.Instances, lk.epoch, n+1)
		}
		t.Logf("N=%d: %d passages, %d switches, %d instances",
			n, entered.Load(), lk.epoch, st.Instances)
	}
}

// TestInstanceResetMatchesNew: reset is the one initialisation path, so an
// instance dirtied in every field a passage, an abort, a park and a switch
// can write must come back equal to a new one.
func TestInstanceResetMatchesNew(t *testing.T) {
	state := func(ins *instance) []uint64 {
		s := []uint64{ins.gate.v.Load(), ins.head.v.Load(), ins.last.v.Load(), uint64(ins.swWait.Load())}
		if ins.switched.Load() {
			s = append(s, 1)
		}
		if ins.switchCh.Load() != nil {
			s = append(s, 2)
		}
		for i := range ins.gos {
			s = append(s, uint64(ins.gos[i].v.Load()))
			if ins.gos[i].parked.Load() != nil {
				s = append(s, 3)
			}
		}
		for l := 1; l <= ins.tr.h; l++ {
			for idx := range ins.tr.levels[l] {
				s = append(s, ins.tr.levels[l][idx].v.Load())
			}
		}
		return s
	}
	for _, n := range []int{1, 2, 8, 65} {
		want := state(newInstance(n))
		ins := newInstance(n)
		for i := range ins.gos {
			ins.gos[i].v.Store(1)
			p := newParker()
			ins.gos[i].parked.Store(&p)
			ins.tr.remove(i)
		}
		ins.gate.v.Store(gateClosed | uint64(n)*gateDep1 | uint64(n))
		ins.head.v.Store(uint64(n - 1))
		ins.last.v.Store(uint64(n - 1))
		ins.swWait.Store(1)
		ins.switched.Store(true)
		ins.switchChan()
		ins.reset()
		got := state(ins)
		if len(got) != len(want) {
			t.Fatalf("n=%d: reset state has %d fields, new has %d", n, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: reset state field %d = %#x, new has %#x", n, i, got[i], want[i])
			}
		}
	}
}
