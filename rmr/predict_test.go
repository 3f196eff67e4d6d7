package rmr_test

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"sublock/internal/harness"
	"sublock/locks"
	_ "sublock/locks/all"
	"sublock/rmr"
)

// The replay prediction corpus: the explorer counts a replay without
// running it when it can walk every step the replay takes below its
// branch down to a visited hit, the step bound or a blocked pick (see walk
// in visited.go), and these tests hold it to changing nothing but the work
// done. Every registry lock runs under CC and DSM, with 0 and 1 aborters (1 only for abortable
// locks), N = 2 and 3, and the reduction stacks visited, sleep sets +
// visited, and sleep sets + visited + symmetry where the lock is
// id-symmetric.

// predictCase is one exploration of the corpus.
type predictCase struct {
	cfg  harness.ExploreConfig
	name string
}

// predictCorpus lists the corpus's explorations. The step bounds keep each
// one to a few thousand replays, so the corpus also runs under the race
// detector.
func predictCorpus() []predictCase {
	var out []predictCase
	for _, info := range locks.Infos() {
		aborters := []int{0}
		if info.Abortable {
			aborters = append(aborters, 1)
		}
		for _, model := range []rmr.Model{rmr.CC, rmr.DSM} {
			for _, a := range aborters {
				for _, b := range []struct{ n, steps int }{{2, 16}, {3, 12}} {
					stacks := []struct {
						name     string
						red      rmr.Reduction
						symmetry bool
					}{
						{"visited", rmr.NoReduction, false},
						{"por+visited", rmr.SleepSets, false},
					}
					if info.IDSymmetric {
						stacks = append(stacks, struct {
							name     string
							red      rmr.Reduction
							symmetry bool
						}{"por+visited+symmetry", rmr.SleepSets, true})
					}
					for _, st := range stacks {
						out = append(out, predictCase{
							cfg: harness.ExploreConfig{
								Model: model, Algo: harness.Algo(info.Name), W: 4, N: b.n, Aborters: a,
								MaxSteps: b.steps, Reduction: st.red, Visited: true, Symmetry: st.symmetry,
							},
							name: fmt.Sprintf("%s/%v/n=%d/ab=%d/%s", info.Name, model, b.n, a, st.name),
						})
					}
				}
			}
		}
	}
	return out
}

// predictExplorer builds the explorer harness.Explore would run for cfg,
// with the prediction on or off.
func predictExplorer(cfg harness.ExploreConfig, workers int, predict bool) *rmr.Explorer {
	e := &rmr.Explorer{
		MaxSteps:     cfg.MaxSteps,
		MaxSchedules: cfg.MaxSchedules,
		Workers:      workers,
		Reduction:    cfg.Reduction,
		Visited:      cfg.Visited,
		Monitor:      &rmr.Monitor{},
	}
	if cfg.Symmetry {
		if classes := cfg.SymmetryClasses(); classes != nil {
			e.Symmetry, e.SymmetryClasses = true, classes
		}
	}
	rmr.SetPredict(e, predict)
	return e
}

func predictBody(cfg harness.ExploreConfig) rmr.Body {
	return harness.ExhaustiveBody(cfg.Model, cfg.Algo, cfg.W, cfg.N, cfg.Aborters)
}

// errText renders a verdict for comparison.
func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// TestPredictionExact runs every corpus exploration at Workers 1 three
// ways — without the prediction, with it, and with it in check mode,
// which walks and replays every predicted task and compares them step by
// step — and requires every Result field and the verdict to agree and the
// check mode to find no mismatch. Across the corpus the walks must count
// every outcome they can tell, check steps deep below their branch, launch
// processes not started yet, and step a process that sets abort flags. One worker runs no two replays at
// once, so the race detector runs only TestPredictionParallel.
func TestPredictionExact(t *testing.T) {
	if raceEnabled {
		t.Skip("single-worker corpus; TestPredictionParallel covers the race detector")
	}
	var hits, prunes, cuts, launches, signals atomic.Int64
	var steps [rmr.AuditSteps]atomic.Int64
	t.Run("corpus", func(t *testing.T) {
		for _, pc := range predictCorpus() {
			t.Run(pc.name, func(t *testing.T) {
				t.Parallel()
				cfg := pc.cfg
				body := predictBody(cfg)
				off, offErr := predictExplorer(cfg, 1, false).Run(cfg.Procs(), body)
				on := predictExplorer(cfg, 1, true)
				onRes, onErr := on.Run(cfg.Procs(), body)
				chk := predictExplorer(cfg, 1, true)
				au := rmr.AuditPredictions(chk, nil)
				chkRes, chkErr := chk.Run(cfg.Procs(), body)
				if !reflect.DeepEqual(off, onRes) || errText(offErr) != errText(onErr) {
					t.Errorf("prediction changed the result:\n off %+v (%v)\n on  %+v (%v)", off, offErr, onRes, onErr)
				}
				if !reflect.DeepEqual(off, chkRes) || errText(offErr) != errText(chkErr) {
					t.Errorf("check mode changed the result:\n off   %+v (%v)\n check %+v (%v)", off, offErr, chkRes, chkErr)
				}
				if c, m := au.Counts(); m != 0 {
					t.Errorf("%d of %d predicted steps disagree with their replays", m, c)
				}
				h, p, x := on.Monitor.PredictedOutcomes()
				hits.Add(h)
				prunes.Add(p)
				cuts.Add(x)
				launches.Add(au.Launches())
				signals.Add(au.Signals())
				for k := range steps {
					c, _ := au.Step(k)
					steps[k].Add(c)
				}
			})
		}
	})
	t.Logf("replays counted without running: %d visited hits, %d prunes, %d blocked picks; %d launches and %d signalling steps checked",
		hits.Load(), prunes.Load(), cuts.Load(), launches.Load(), signals.Load())
	for name, n := range map[string]int64{"visited hit": hits.Load(), "prune": prunes.Load(), "blocked pick": cuts.Load(), "launch": launches.Load(), "signalling step": signals.Load()} {
		if n == 0 {
			t.Errorf("the corpus counted no %s: it does not exercise it", name)
		}
	}
	for k := 1; k < rmr.AuditSteps; k++ {
		t.Logf("%d predicted steps checked %s", steps[k].Load(), stepName(k))
		if steps[k].Load() == 0 {
			t.Errorf("the corpus checked no step %s", stepName(k))
		}
	}
}

// stepName describes a check-mode bucket.
func stepName(k int) string {
	if k == rmr.AuditSteps-1 {
		return fmt.Sprintf("%d or more steps below the branch", k)
	}
	if k == 1 {
		return "1 step below the branch"
	}
	return fmt.Sprintf("%d steps below the branch", k)
}

// TestPredictionParallel runs the corpus at Workers 2 in check mode: no
// prediction may disagree with its replay, and Exhausted and the verdict
// must match the one-worker run without the prediction. Explored is not
// compared: with visited caching it depends on worker timing even without
// the prediction (docs/MODEL.md, "Determinism scope"). CI runs this test
// under the race detector.
func TestPredictionParallel(t *testing.T) {
	for _, pc := range predictCorpus() {
		t.Run(pc.name, func(t *testing.T) {
			t.Parallel()
			cfg := pc.cfg
			body := predictBody(cfg)
			want, wantErr := predictExplorer(cfg, 1, false).Run(cfg.Procs(), body)
			e := predictExplorer(cfg, 2, true)
			au := rmr.AuditPredictions(e, nil)
			got, gotErr := e.Run(cfg.Procs(), body)
			if got.Exhausted != want.Exhausted || errText(gotErr) != errText(wantErr) {
				t.Errorf("Workers 2 exhausted %v (%v), Workers 1 without prediction %v (%v)",
					got.Exhausted, gotErr, want.Exhausted, wantErr)
			}
			if c, m := au.Counts(); m != 0 {
				t.Errorf("%d of %d predicted steps disagree with their replays", m, c)
			}
		})
	}
}

// TestPredictionSimVerify pins the counts of the benchmark's sim-verify
// exploration (harness.SimVerifyConfig) with the prediction off, on, and
// in check mode over the whole exploration, which must find no mismatch
// at any depth; and it holds the prediction to counting at least 100,000
// of the 102,741 replays without running them.
func TestPredictionSimVerify(t *testing.T) {
	if raceEnabled {
		t.Skip("single-worker exploration; TestPredictionParallel covers the race detector")
	}
	cfg := harness.SimVerifyConfig
	body := predictBody(cfg)
	type counts struct{ explored, pruned, equivalent, visited int }
	want := counts{563, 26929, 770, 74479}
	var off rmr.Result
	for _, mode := range []string{"off", "on", "check"} {
		e := predictExplorer(cfg, cfg.Workers, mode != "off")
		var au *rmr.PredictAudit
		if mode == "check" {
			au = rmr.AuditPredictions(e, nil)
		}
		res, err := e.Run(cfg.Procs(), body)
		if err != nil || !res.Exhausted {
			t.Fatalf("%s: exhausted %v, err = %v", mode, res.Exhausted, err)
		}
		if got := (counts{res.Explored, res.Pruned, res.Equivalent, res.VisitedHits}); got != want {
			t.Errorf("%s: counts %+v, want %+v", mode, got, want)
		}
		if mode == "off" {
			off = res
		} else if !reflect.DeepEqual(res, off) {
			t.Errorf("%s: result %+v, without prediction %+v", mode, res, off)
		}
		switch mode {
		case "on":
			hits, prunes, cuts := e.Monitor.PredictedOutcomes()
			t.Logf("%d of %d replays counted without running: %d visited hits, %d prunes, %d blocked picks",
				e.Monitor.Predicted(), res.Replays(), hits, prunes, cuts)
			t.Logf("replayed: %+v", e.Monitor.Replayed())
			if n := e.Monitor.Predicted(); n < 100000 {
				t.Errorf("%d replays counted without running, want at least 100,000", n)
			}
		case "check":
			for k := 1; k < rmr.AuditSteps; k++ {
				c, m := au.Step(k)
				t.Logf("%d predicted steps checked %s", c, stepName(k))
				if c == 0 || m != 0 {
					t.Errorf("%d of %d predicted steps %s disagree with their replays", m, c, stepName(k))
				}
			}
		}
	}
}

// TestPredictionCheckCatchesWrongPredictor seeds a wrong predictor — every
// predicted CAS result flipped — and requires the check mode to report
// mismatches one, two, and three or more steps below the branch: a check
// nobody has seen fail may not check anything.
func TestPredictionCheckCatchesWrongPredictor(t *testing.T) {
	flipCAS := func(op rmr.Op, res uint64) uint64 {
		if op == rmr.OpCAS {
			return res ^ 1
		}
		return res
	}
	for _, algo := range []harness.Algo{"tas", "mcs"} {
		t.Run(string(algo), func(t *testing.T) {
			t.Parallel()
			cfg := harness.ExploreConfig{Model: rmr.CC, Algo: algo, W: 4, N: 3, MaxSteps: 14, Reduction: rmr.SleepSets, Visited: true}
			e := predictExplorer(cfg, 1, true)
			au := rmr.AuditPredictions(e, flipCAS)
			if _, err := e.Run(cfg.Procs(), predictBody(cfg)); err != nil {
				t.Fatal(err)
			}
			var deep [2]int64 // checked, mismatched three or more steps below
			for k := 1; k < rmr.AuditSteps; k++ {
				c, m := au.Step(k)
				t.Logf("%d of %d checked steps %s mismatched", m, c, stepName(k))
				if k < 3 && m == 0 {
					t.Errorf("the check mode missed every flipped CAS result %s (%d checked)", stepName(k), c)
				}
				if k >= 3 {
					deep[0], deep[1] = deep[0]+c, deep[1]+m
				}
			}
			if deep[1] == 0 {
				t.Errorf("the check mode missed every flipped CAS result three or more steps below the branch (%d checked)", deep[0])
			}
		})
	}
}
