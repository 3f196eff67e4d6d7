package main

import (
	"fmt"
	"time"

	"sublock/internal/harness"
	"sublock/rmr"
)

// The sim-verify configuration. The exploration bound is about the
// smallest at which the explorer completes schedules in numbers (563
// complete schedules at 22 steps, 92 at 20, none at 18), so a verify pass
// checks mutual exclusion and starvation freedom on real interleavings
// while several passes fit in one round.
// The RMR runs are the paper's no-abort queue drain and abort storm on the
// long-lived lock, priced under the unit and ccnuma cost models with a
// fixed cost seed: this work does not depend on -seed.
var (
	verifyCfg = harness.ExploreConfig{
		Model: rmr.CC, Algo: harness.AlgoPaper, W: 4, N: 3, Aborters: 1,
		MaxSteps: 22, Workers: 1, Reduction: rmr.SleepSets, Visited: true,
	}
	warmCfg = func() harness.ExploreConfig { c := verifyCfg; c.MaxSteps = 14; return c }()
)

const (
	costAlgo     = harness.AlgoPaperLL
	costProcs    = 64
	costAborters = 30
	costSeed     = 1
)

// simPass is one verify pass: the exhaustive exploration, then the RMR
// and priced runs. exact holds the pass's deterministic outputs.
type simPass struct {
	exploreNS int64
	exact     map[string]float64
}

// timedCall times fn, inside a span when the round is traced; fn gets the
// span's id to name as its children's parent.
func timedCall(tr *tracer, buf *spanBuf, parent uint64, name string, fn func(id uint64) error) (int64, error) {
	var s span
	if tr != nil {
		s = span{Name: name, ID: tr.nextID(), Parent: parent, Start: tr.now()}
	}
	t0 := time.Now()
	err := fn(s.ID)
	d := int64(time.Since(t0))
	if tr != nil {
		s.End = tr.now()
		buf.add(s)
	}
	return d, err
}

func verifyPass(tr *tracer, buf *spanBuf, parent uint64) (*simPass, error) {
	ex := map[string]float64{}
	p := &simPass{exact: ex}
	var res rmr.Result
	var err error
	p.exploreNS, err = timedCall(tr, buf, parent, "harness.explore", func(uint64) (err error) {
		res, err = harness.Explore(verifyCfg)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	if !res.Exhausted {
		return nil, fmt.Errorf("verify: exploration not exhausted")
	}
	ex["explorer.replays"] = float64(res.Replays())
	ex["explorer.explored"] = float64(res.Explored)
	ex["explorer.pruned"] = float64(res.Pruned)
	ex["explorer.equivalent"] = float64(res.Equivalent)
	ex["explorer.visited_hits"] = float64(res.VisitedHits)
	ex["explorer.cut_ratio"] = float64(res.Equivalent+res.VisitedHits) / float64(res.Replays())

	ccnuma, err := rmr.NewCostModel("ccnuma", costSeed)
	if err != nil {
		return nil, err
	}
	for _, cm := range []rmr.CostModel{rmr.Unit, ccnuma} {
		var q *harness.QueueResult
		var s *harness.StormResult
		if _, err := timedCall(tr, buf, parent, "harness.queue_cost", func(uint64) (err error) {
			q, err = harness.QueueWorkloadCost(rmr.CC, cm, costAlgo, harness.DefaultW, costProcs)
			return err
		}); err != nil {
			return nil, err
		}
		if _, err := timedCall(tr, buf, parent, "harness.storm_cost", func(uint64) (err error) {
			s, err = harness.AbortStormCost(rmr.CC, cm, costAlgo, harness.DefaultW, costAborters, false)
			return err
		}); err != nil {
			return nil, err
		}
		if cm == rmr.Unit {
			ex["rmr.passage_max"] = float64(q.Passages.Max())
			ex["rmr.abort_max"] = float64(s.Aborted.Max())
		} else {
			ex["rmr.sim_passage_p99_ns"] = float64(q.Sim.Percentile(0.99))
			ex["rmr.sim_abort_max_ns"] = float64(s.AbortedSim.Max())
		}
	}

	var qs, ss *rmr.Snapshot
	var q *harness.QueueResult
	if _, err := timedCall(tr, buf, parent, "harness.rmr_stats", func(uint64) (err error) {
		if q, qs, err = harness.QueueWorkloadStats(rmr.CC, costAlgo, harness.DefaultW, costProcs); err != nil {
			return err
		}
		_, ss, err = harness.AbortStormStats(rmr.CC, costAlgo, harness.DefaultW, costAborters, false)
		return err
	}); err != nil {
		return nil, err
	}
	phase := func(ph rmr.Phase) float64 { return float64(qs.PhaseRMRs(ph) + ss.PhaseRMRs(ph)) }
	ex["rmr.doorway_rmrs"] = phase(rmr.PhaseDoorway)
	ex["rmr.waiting_rmrs"] = phase(rmr.PhaseWaiting)
	ex["rmr.exit_rmrs"] = phase(rmr.PhaseExit)
	ex["rmr.abort_rmrs"] = phase(rmr.PhaseAbort)
	ex["rmr.words"] = float64(q.Words)
	return p, nil
}

// runSimVerify runs verify passes back to back until the window closes;
// every pass must reproduce the first one's exact outputs.
func runSimVerify(cfg roundCfg) (*round, error) {
	t0 := time.Now()
	if _, err := harness.Explore(warmCfg); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	rd := &round{setup: time.Since(t0)}

	var buf *spanBuf
	if cfg.tr != nil {
		buf = cfg.tr.buffer()
	}
	lat := newSampler(sampleCap)
	var explore []float64
	mt := startMeter()
	deadline := time.Now().Add(cfg.window)
	for rd.ops == 0 || time.Now().Before(deadline) {
		var p *simPass
		d, err := timedCall(cfg.tr, buf, 0, "sim.pass", func(id uint64) (err error) {
			p, err = verifyPass(cfg.tr, buf, id)
			return err
		})
		rd.attempted++
		if err != nil {
			return nil, err
		}
		if rd.exact == nil {
			rd.exact = p.exact
		} else if err := sameExact(rd.exact, p.exact); err != nil {
			return nil, fmt.Errorf("pass %d: %w", rd.ops, err)
		}
		lat.add(d)
		explore = append(explore, float64(p.exploreNS)/1e9)
		rd.ops++
	}
	rd.meter = mt.end()
	rd.lat, rd.latN = merge(lat)
	if cfg.tr != nil {
		rd.layers = map[string]float64{}
		_, verify, _ := quartiles(explore)
		rd.layers["explorer.verify_s"] = verify
		rd.layers["explorer.replays_per_s"] = rd.exact["explorer.replays"] / verify
	}
	return rd, nil
}

// sameExact reports the first exact output that differs between two runs.
func sameExact(want, got map[string]float64) error {
	for k, v := range want {
		if got[k] != v {
			return fmt.Errorf("exact output %s = %v, earlier %v", k, got[k], v)
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("exact outputs: %d names, earlier %d", len(got), len(want))
	}
	return nil
}
