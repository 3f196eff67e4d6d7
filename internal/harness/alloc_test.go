package harness

import (
	"runtime"
	"testing"

	"sublock/rmr"
)

// exploreMallocs explores cfg capped at max replays and returns the heap
// objects it allocated and the replays it made.
func exploreMallocs(t testing.TB, cfg ExploreConfig, max int) (mallocs uint64, replays int) {
	cfg.MaxSchedules = max
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := Explore(cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	return after.Mallocs - before.Mallocs, res.Replays()
}

// TestExploreReplayAllocs guards the steady-state heap cost of one replay
// of the exhaustive explorer on a rewindable lock. One worker visits
// schedules in a fixed order, so a run capped at 2k replays repeats the
// first k replays of a run capped at k; the difference between the two
// runs' allocations is the cost of k steady-state replays, with the
// exploration's fixed costs (the visited set, the worker, the first
// build) cancelled out.
func TestExploreReplayAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	const k, maxObjects = 4000, 4
	exploreMallocs(t, SimVerifyConfig, k) // warm the pools
	short, n1 := exploreMallocs(t, SimVerifyConfig, k)
	long, n2 := exploreMallocs(t, SimVerifyConfig, 2*k)
	if n1 != k || n2 != 2*k {
		t.Fatalf("capped explorations made %d and %d replays, want %d and %d", n1, n2, k, 2*k)
	}
	perReplay := float64(long-short) / float64(n2-n1)
	t.Logf("%.2f heap objects per steady-state replay", perReplay)
	if perReplay > maxObjects {
		t.Errorf("%.2f heap objects per steady-state replay, want at most %d", perReplay, maxObjects)
	}
}

// BenchmarkExploreReplay measures one replay of the sim-verify
// exploration: each iteration explores SimVerifyConfig capped at a fixed
// number of replays, and the benchmark reports time and heap objects per
// replay, the share of replays counted without running, by what they
// would have counted (rmr.Monitor.PredictedOutcomes: a visited hit, a
// prune at the step bound, a blocked pick), the share that ran, by why
// (rmr.Monitor.Replayed), and the processes DrainKill unwound per replay
// (rmr.Scheduler.Unwinds). Skipped replays count in every denominator.
func BenchmarkExploreReplay(b *testing.B) {
	const replays = 20000
	var mallocs, total uint64
	var hits, prunes, cuts, unwinds int64
	var ran rmr.ReplayCauses
	body := ExhaustiveBody(SimVerifyConfig.Model, SimVerifyConfig.Algo, SimVerifyConfig.W, SimVerifyConfig.N, SimVerifyConfig.Aborters)
	counted := func(s *rmr.Scheduler, budget int) error {
		before := s.Unwinds()
		err := body(s, budget)
		unwinds += s.Unwinds() - before // one worker: no other run races this
		return err
	}
	var before, after runtime.MemStats
	for i := 0; i < b.N; i++ {
		cfg := SimVerifyConfig
		cfg.MaxSchedules = replays
		e := cfg.explorer()
		e.Monitor = &rmr.Monitor{}
		runtime.ReadMemStats(&before)
		res, err := e.Run(cfg.Procs(), counted)
		runtime.ReadMemStats(&after)
		if err != nil {
			b.Fatal(err)
		}
		mallocs += after.Mallocs - before.Mallocs
		total += uint64(res.Replays())
		h, p, c := e.Monitor.PredictedOutcomes()
		hits, prunes, cuts = hits+h, prunes+p, cuts+c
		why := e.Monitor.Replayed()
		ran.Root += why.Root
		ran.NoPrediction += why.NoPrediction
		ran.Completes += why.Completes
		ran.Unlearned += why.Unlearned
		ran.Unpredictable += why.Unpredictable
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(total), "ns/replay")
	b.ReportMetric(float64(mallocs)/float64(total), "allocs/replay")
	b.ReportMetric(float64(hits+prunes+cuts)/float64(total), "skipped/replay")
	b.ReportMetric(float64(hits)/float64(total), "skipped-hit/replay")
	b.ReportMetric(float64(prunes)/float64(total), "skipped-prune/replay")
	b.ReportMetric(float64(cuts)/float64(total), "skipped-blocked/replay")
	b.ReportMetric(float64(ran.Root)/float64(total), "ran-root/replay")
	b.ReportMetric(float64(ran.NoPrediction)/float64(total), "ran-unpredicted/replay")
	b.ReportMetric(float64(ran.Completes)/float64(total), "ran-completes/replay")
	b.ReportMetric(float64(ran.Unlearned)/float64(total), "ran-unlearned/replay")
	b.ReportMetric(float64(ran.Unpredictable)/float64(total), "ran-unpredictable/replay")
	b.ReportMetric(float64(unwinds)/float64(total), "unwinds/replay")
}
