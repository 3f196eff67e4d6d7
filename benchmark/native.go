package main

import (
	"fmt"
	"sync"
	"time"

	"sublock/abortable"
	"sublock/abortable/obs"
)

const (
	csWords  = 64 // words the critical section increments
	tryEvery = 10 // one attempt in tryEvery is a TryEnter
	// thinkAdds is the dependent adds between attempts, about 33 µs on
	// the machine in README.md: each worker holds the lock about a
	// thirtieth of the time. The share of passages that wait for the
	// other worker follows how the host schedules the two vCPUs, so the
	// more of them a quantile reaches, the more it drifts with the host:
	// in two sets of ten 20 s runs, interleaved,
	// the spread of the passage p90 was 13% and 19% with 8000 adds,
	// 7% and 9% with 30000, and 19% with 80000. With 200 adds the median
	// itself switches between contention regimes.
	thinkAdds = 30000
)

// Warm-up and control sizes; tests shrink them.
var (
	nativeWarm  = 10_000 // warm-up attempts per worker
	controlTime = 250 * time.Millisecond
)

// csState is the shared data the critical section updates. The updates
// are deliberately not atomic: if two workers ever overlap in the
// critical section, inCS reads 2, and the final word counts fall short of
// the number of passages.
type csState struct {
	inCS     int
	overlaps int
	words    [csWords]uint64
}

func (s *csState) cs() {
	s.inCS++
	if s.inCS != 1 {
		s.overlaps++
	}
	for i := range s.words {
		s.words[i]++
	}
	s.inCS--
}

// check verifies the critical section ran exclusively passages times.
func (s *csState) check(passages int64) error {
	if s.overlaps != 0 {
		return fmt.Errorf("critical-section overlap detected %d time(s)", s.overlaps)
	}
	for i, w := range s.words {
		if w != uint64(passages) {
			return fmt.Errorf("critical-section word %d counts %d passages, want %d", i, w, passages)
		}
	}
	return nil
}

// lockOps is one worker's view of the lock under test.
type lockOps struct {
	enter, try func() bool
	exit       func()
}

// mixWorker runs the native-mix attempt loop for one goroutine.
type mixWorker struct {
	ops  lockOps
	rng  uint64 // xorshift state; picks Enter or TryEnter
	lat  *sampler
	sink uint64

	attempted, acquired, tryAborts, failed int64
}

func (w *mixWorker) next() uint64 {
	w.rng ^= w.rng << 13
	w.rng ^= w.rng >> 7
	w.rng ^= w.rng << 17
	return w.rng
}

// attempt runs one attempt and the think time after it.
func (w *mixWorker) attempt(st *csState, timed bool) {
	t0 := time.Now()
	try := w.next()%tryEvery == 0
	var ok bool
	if try {
		ok = w.ops.try()
	} else {
		ok = w.ops.enter()
	}
	w.attempted++
	switch {
	case ok:
		st.cs()
		w.ops.exit()
		w.acquired++
		if timed {
			w.lat.add(int64(time.Since(t0)))
		}
	case try:
		w.tryAborts++
	default:
		w.failed++ // Enter without an Abort must not return false
	}
	x := w.sink
	for i := uint64(0); i < thinkAdds; i++ {
		x += i ^ x>>3
	}
	w.sink = x
}

// loop runs timed attempts until the deadline.
func (w *mixWorker) loop(st *csState, deadline time.Time) {
	for time.Now().Before(deadline) {
		w.attempt(st, true)
	}
}

// runNativeMix runs one round of native-mix: a fresh abortable.Lock with
// one Handle per worker.
func runNativeMix(cfg roundCfg) (*round, error) {
	t0 := time.Now()
	lk := abortable.New(abortable.Config{MaxHandles: loadWorkers()})
	var m *obs.Metrics
	if cfg.tr != nil {
		m = obs.New("native-mix", obs.Config{})
		lk.SetObserver(m)
	}
	st := &csState{}
	workers := make([]*mixWorker, loadWorkers())
	for i := range workers {
		h, err := lk.NewHandle()
		if err != nil {
			return nil, err
		}
		w := &mixWorker{rng: uint64(derive(cfg.seed, int64(i))) | 1, lat: newSampler(sampleCap)}
		w.ops = lockOps{enter: h.Enter, try: h.TryEnter, exit: h.Exit}
		if cfg.tr != nil {
			w.ops = tracedOps(w.ops, cfg.tr, cfg.tr.buffer())
		}
		workers[i] = w
	}
	each(workers, func(_ int, w *mixWorker) {
		for k := 0; k < nativeWarm; k++ {
			w.attempt(st, false)
		}
	})
	var warm int64
	for _, w := range workers {
		warm += w.acquired
		if w.failed > 0 {
			return nil, fmt.Errorf("warm-up: Enter returned false %d time(s)", w.failed)
		}
		w.attempted, w.acquired, w.tryAborts = 0, 0, 0
	}
	setup := time.Since(t0)

	var snap0 *obs.Snapshot
	if m != nil {
		snap0 = m.Snapshot()
	}
	mt := startMeter()
	deadline := time.Now().Add(cfg.window)
	each(workers, func(_ int, w *mixWorker) { w.loop(st, deadline) })
	mr := mt.end()

	rd := &round{setup: setup, meter: mr}
	samplers := make([]*sampler, len(workers))
	var tries int64
	for i, w := range workers {
		rd.attempted += w.attempted
		rd.failed += w.failed
		rd.ops += w.acquired
		tries += w.tryAborts
		samplers[i] = w.lat
	}
	if err := st.check(warm + rd.ops); err != nil {
		return nil, err
	}
	rd.lat, rd.latN = merge(samplers...)
	if m != nil {
		rd.layers = map[string]float64{}
		abortableLayers(obsDelta([]*obs.Snapshot{snap0}, []*obs.Snapshot{m.Snapshot()}), rd.layers)
		ix := cfg.tr.index()
		enter := append(ix.durations("abortable.enter"), ix.durations("abortable.tryenter")...)
		exit := ix.durations("abortable.exit")
		rd.layers["abortable.enter_ns_p50"] = float64(enter.Percentile(0.5))
		rd.layers["abortable.enter_ns_p99"] = float64(enter.Percentile(0.99))
		rd.layers["abortable.exit_ns_p50"] = float64(exit.Percentile(0.5))
		rd.layers["abortable.exit_ns_p99"] = float64(exit.Percentile(0.99))
		if n := ix.aggregates["abortable.tryenter"].Count; n > 0 {
			rd.layers["abortable.tryenter_abort_ratio"] = float64(tries) / float64(n)
		}
	}
	return rd, nil
}

// tracedOps wraps each lock call in a span.
func tracedOps(ops lockOps, tr *tracer, buf *spanBuf) lockOps {
	timed := func(name string, fn func() bool) func() bool {
		return func() bool {
			s := span{Name: name, ID: tr.nextID(), Start: tr.now()}
			ok := fn()
			s.End = tr.now()
			buf.add(s)
			return ok
		}
	}
	return lockOps{
		enter: timed("abortable.enter", ops.enter),
		try:   timed("abortable.tryenter", ops.try),
		exit: func() {
			s := span{Name: "abortable.exit", ID: tr.nextID(), Start: tr.now()}
			ops.exit()
			s.End = tr.now()
			buf.add(s)
		},
	}
}

// controlMutex runs the native-mix loop on a sync.Mutex for a fixed time
// and returns its passage p50 in ns. It is a control for machine noise:
// no change to the repository touches sync.Mutex, so when it moves, the
// machine moved.
func controlMutex(seed int64) (float64, error) {
	var mu sync.Mutex
	st := &csState{}
	workers := make([]*mixWorker, loadWorkers())
	for i := range workers {
		workers[i] = &mixWorker{
			rng: uint64(derive(seed, int64(i))) | 1,
			lat: newSampler(sampleCap),
			ops: lockOps{
				enter: func() bool { mu.Lock(); return true },
				try:   mu.TryLock,
				exit:  mu.Unlock,
			},
		}
	}
	deadline := time.Now().Add(controlTime)
	each(workers, func(_ int, w *mixWorker) { w.loop(st, deadline) })
	var passages int64
	samplers := make([]*sampler, len(workers))
	for i, w := range workers {
		passages += w.acquired
		samplers[i] = w.lat
	}
	if err := st.check(passages); err != nil {
		return 0, fmt.Errorf("control: %w", err)
	}
	lat, _ := merge(samplers...)
	return float64(lat.Percentile(0.5)), nil
}

// obsDelta sums the collectors' counters after minus before.
func obsDelta(before, after []*obs.Snapshot) obs.Snapshot {
	var d obs.Snapshot
	addSnaps(&d, after, 1)
	addSnaps(&d, before, -1)
	return d
}

func addSnaps(d *obs.Snapshot, snaps []*obs.Snapshot, sign int64) {
	hist := func(dst *obs.HistSnapshot, src obs.HistSnapshot) {
		if dst.Counts == nil {
			dst.Counts = make([]int64, len(src.Counts))
		}
		for i, c := range src.Counts {
			dst.Counts[i] += sign * c
		}
		dst.Sum += sign * src.Sum
	}
	for _, s := range snaps {
		hist(&d.Acquire, s.Acquire)
		hist(&d.Handoff, s.Handoff)
		hist(&d.Park, s.Park)
		d.Acquires += sign * s.Acquires
		d.Spins += sign * s.Spins
		d.Yields += sign * s.Yields
		d.Parks += sign * s.Parks
		d.Switches += sign * s.Switches
		d.SwitchWaits += sign * s.SwitchWaits
		d.WaiterRetires += sign * s.WaiterRetires
	}
}

// abortableLayers reads the abortable layer's metrics off a collector
// delta. Its percentiles come from power-of-two histograms: they are the
// upper edge of the bucket, hence the ns-pow2 unit.
func abortableLayers(d obs.Snapshot, out map[string]float64) {
	out["abortable.acquire_ns_mean"] = d.Acquire.Mean()
	out["abortable.acquire_ns_p99"] = float64(d.Acquire.Quantile(0.99))
	out["abortable.handoff_ns_p99"] = float64(d.Handoff.Quantile(0.99))
	out["abortable.park_wait_ns_p99"] = float64(d.Park.Quantile(0.99))
	out["abortable.waiter_retires"] = float64(d.WaiterRetires)
	if d.Acquires == 0 {
		return
	}
	per := func(n int64) float64 { return float64(n) / float64(d.Acquires) }
	out["abortable.spins_per_acquire"] = per(d.Spins)
	out["abortable.yields_per_acquire"] = per(d.Yields)
	out["abortable.parks_per_acquire"] = per(d.Parks)
	out["abortable.switches_per_acquire"] = per(d.Switches)
	out["abortable.switch_waits_per_acquire"] = per(d.SwitchWaits)
}
