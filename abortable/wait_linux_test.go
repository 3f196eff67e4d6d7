//go:build linux

package abortable

import (
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// processCPU returns the process's cumulative user+system CPU time.
func processCPU(t *testing.T) time.Duration {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatalf("getrusage: %v", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// TestParkedWaitersDoNotBurnCPU is the tier-3 CPU assertion: once every
// waiter against a held lock has escalated to parking, the process's CPU
// time must stay nearly flat over a wall-clock window — spinning or
// yield-looping waiters would consume the window's worth of CPU on every
// busy P, parked ones consume none.
func TestParkedWaitersDoNotBurnCPU(t *testing.T) {
	const (
		waiters = 16
		window  = 200 * time.Millisecond
		// Allow runtime background work (GC, sysmon) and the few
		// microseconds between a waiter's park counter increment and its
		// actual sleep; spinning waiters would burn ~window per busy P.
		cpuBudget = window / 2
	)
	lk := New(Config{MaxHandles: waiters + 1})
	m := observe(lk)
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
	waitForParks(t, m, waiters)

	cpu0 := processCPU(t)
	time.Sleep(window)
	burned := processCPU(t) - cpu0
	if burned > cpuBudget {
		t.Errorf("parked waiters burned %v CPU over a %v window (budget %v)", burned, window, cpuBudget)
	}

	holder.Exit()
	wg.Wait()
	if got := acquired.Load(); got != waiters {
		t.Fatalf("%d of %d parked waiters acquired after release", got, waiters)
	}
}
