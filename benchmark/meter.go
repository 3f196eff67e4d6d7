package main

import (
	"runtime/metrics"
	"syscall"
	"time"
)

// runtime/metrics names the meter reads.
const (
	mAllocBytes = "/gc/heap/allocs:bytes"
	mAllocObjs  = "/gc/heap/allocs:objects"
	mGCCycles   = "/gc/cycles/total:gc-cycles"
	mSchedLat   = "/sched/latencies:seconds"
	mHeapObjs   = "/memory/classes/heap/objects:bytes"
)

// heapSampleEvery paces the heap-peak sampler.
const heapSampleEvery = 50 * time.Millisecond

// meter brackets one timed window: wall and process CPU time, the peak of
// live-plus-unswept heap objects sampled every 50 ms, and runtime/metrics
// deltas for the runtime layer.
type meter struct {
	start time.Time
	cpu0  time.Duration
	rt0   []metrics.Sample
	stop  chan struct{}
	done  chan uint64 // the sampler's peak, sent once it has exited
}

// meterResult is what a meter measured over its window.
type meterResult struct {
	elapsed    time.Duration
	cpu        time.Duration
	heapPeak   uint64
	allocBytes uint64
	allocs     uint64
	gcCycles   uint64
	schedP99   float64 // seconds; bucket upper bound
}

func readRuntime() []metrics.Sample {
	s := []metrics.Sample{{Name: mAllocBytes}, {Name: mAllocObjs}, {Name: mGCCycles}, {Name: mSchedLat}}
	metrics.Read(s)
	return s
}

func heapObjects() uint64 {
	s := []metrics.Sample{{Name: mHeapObjs}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// processCPU returns the user plus system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func startMeter() *meter {
	m := &meter{stop: make(chan struct{}), done: make(chan uint64, 1)}
	go func() {
		peak := heapObjects()
		t := time.NewTicker(heapSampleEvery)
		defer t.Stop()
		for {
			select {
			case <-m.stop:
				if h := heapObjects(); h > peak {
					peak = h
				}
				m.done <- peak
				return
			case <-t.C:
				if h := heapObjects(); h > peak {
					peak = h
				}
			}
		}
	}()
	m.rt0 = readRuntime()
	m.cpu0 = processCPU()
	m.start = time.Now()
	return m
}

// end closes the window and waits for the heap sampler to exit.
func (m *meter) end() meterResult {
	r := meterResult{elapsed: time.Since(m.start), cpu: processCPU() - m.cpu0}
	rt1 := readRuntime()
	close(m.stop)
	r.heapPeak = <-m.done
	r.allocBytes = rt1[0].Value.Uint64() - m.rt0[0].Value.Uint64()
	r.allocs = rt1[1].Value.Uint64() - m.rt0[1].Value.Uint64()
	r.gcCycles = rt1[2].Value.Uint64() - m.rt0[2].Value.Uint64()
	r.schedP99 = histDeltaQuantile(m.rt0[3].Value.Float64Histogram(), rt1[3].Value.Float64Histogram(), 0.99)
	return r
}

// histDeltaQuantile reads the q-quantile of the samples a cumulative
// runtime histogram gained between two reads, as the upper bound of the
// bucket holding it (the lower bound for the open last bucket).
func histDeltaQuantile(before, after *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	for i := range after.Counts {
		total += after.Counts[i] - before.Counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	var cum uint64
	for i := range after.Counts {
		cum += after.Counts[i] - before.Counts[i]
		if cum > rank {
			if hi := after.Buckets[i+1]; hi < 1e300 {
				return hi
			}
			return after.Buckets[i]
		}
	}
	return after.Buckets[len(after.Buckets)-1]
}

// timerProbe measures how late a 200 µs sleep wakes, the resolution an
// open-loop load generator would get on this machine. It returns the
// median lateness in microseconds over n sleeps.
func timerProbe(n int) float64 {
	const nap = 200 * time.Microsecond
	late := newSampler(n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		time.Sleep(nap)
		late.add(int64(time.Since(t0) - nap))
	}
	return usOf(late.buf.Percentile(0.5))
}
