package rmr_test

import (
	"fmt"
	"reflect"
	"testing"

	"sublock/internal/harness"
	"sublock/locks"
	_ "sublock/locks/all"
	"sublock/rmr"
)

// The replay prediction corpus: the explorer counts a replay whose
// outcome it predicts — a visited hit at the first or second free pick, a
// prune at the step bound — without running it (see predict in
// visited.go), and these tests hold it to changing nothing but the work
// done. Every registry
// lock runs under CC and DSM, with 0 and 1 aborters (1 only for abortable
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
// which replays every predicted task and compares the replay with the
// prediction — and requires every Result field and the verdict to agree
// and the check mode to find no mismatch. One worker runs no two replays
// at once, so the race detector runs only TestPredictionParallel.
func TestPredictionExact(t *testing.T) {
	if raceEnabled {
		t.Skip("single-worker corpus; TestPredictionParallel covers the race detector")
	}
	var kinds [3]int64
	var checked int64
	for _, pc := range predictCorpus() {
		cfg := pc.cfg
		body := predictBody(cfg)
		off, offErr := predictExplorer(cfg, 1, false).Run(cfg.Procs(), body)
		on := predictExplorer(cfg, 1, true)
		onRes, onErr := on.Run(cfg.Procs(), body)
		chk := predictExplorer(cfg, 1, true)
		au := rmr.AuditPredictions(chk, nil)
		chkRes, chkErr := chk.Run(cfg.Procs(), body)
		if !reflect.DeepEqual(off, onRes) || errText(offErr) != errText(onErr) {
			t.Errorf("%s: prediction changed the result:\n off %+v (%v)\n on  %+v (%v)", pc.name, off, offErr, onRes, onErr)
		}
		if !reflect.DeepEqual(off, chkRes) || errText(offErr) != errText(chkErr) {
			t.Errorf("%s: check mode changed the result:\n off   %+v (%v)\n check %+v (%v)", pc.name, off, offErr, chkRes, chkErr)
		}
		c, m := au.Counts()
		if m != 0 {
			t.Errorf("%s: %d of %d predictions disagree with their replays", pc.name, m, c)
		}
		f, s, l := on.Monitor.PredictedKinds()
		kinds[rmr.KindFirstPick] += f
		kinds[rmr.KindSecondPick] += s
		kinds[rmr.KindBoundLeaf] += l
		checked += c
	}
	t.Logf("replays counted without running: %d first-pick hits, %d second-pick hits, %d bound-leaf prunes; %d predictions checked",
		kinds[rmr.KindFirstPick], kinds[rmr.KindSecondPick], kinds[rmr.KindBoundLeaf], checked)
	for kind, name := range kindNames {
		if kinds[kind] == 0 {
			t.Errorf("the corpus counted no %s prediction: it does not exercise that kind", name)
		}
	}
	if checked == 0 {
		t.Fatal("the corpus checked no prediction")
	}
}

// TestPredictionParallel runs the corpus at Workers 2 in check mode: no
// prediction may disagree with its replay, and Exhausted and the verdict
// must match the one-worker run without the prediction. Explored is not
// compared: with visited caching it depends on worker timing even without
// the prediction (docs/MODEL.md, "Determinism scope"). CI runs this test
// under the race detector.
func TestPredictionParallel(t *testing.T) {
	for _, pc := range predictCorpus() {
		cfg := pc.cfg
		body := predictBody(cfg)
		want, wantErr := predictExplorer(cfg, 1, false).Run(cfg.Procs(), body)
		e := predictExplorer(cfg, 2, true)
		au := rmr.AuditPredictions(e, nil)
		got, gotErr := e.Run(cfg.Procs(), body)
		if got.Exhausted != want.Exhausted || errText(gotErr) != errText(wantErr) {
			t.Errorf("%s: Workers 2 exhausted %v (%v), Workers 1 without prediction %v (%v)",
				pc.name, got.Exhausted, gotErr, want.Exhausted, wantErr)
		}
		if c, m := au.Counts(); m != 0 {
			t.Errorf("%s: %d of %d predictions disagree with their replays", pc.name, m, c)
		}
	}
}

// TestPredictionSimVerify pins the counts of the benchmark's sim-verify
// exploration (harness.SimVerifyConfig) with the prediction off, on, and
// in check mode over the whole exploration, which must find no mismatch
// of any kind; and it holds the prediction to counting at least 70,000 of
// the 102,741 replays without running them.
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
			first, second, leaf := e.Monitor.PredictedKinds()
			t.Logf("%d of %d replays counted without running: %d first-pick hits, %d second-pick hits, %d bound-leaf prunes",
				first+second+leaf, res.Replays(), first, second, leaf)
			if sum := first + second + leaf; sum < 70000 {
				t.Errorf("%d replays counted without running, want at least 70,000", sum)
			}
		case "check":
			for kind, name := range kindNames {
				c, m := au.Kind(kind)
				t.Logf("%d %s predictions checked", c, name)
				if c == 0 || m != 0 {
					t.Errorf("%d of %d %s predictions disagree with their replays", m, c, name)
				}
			}
		}
	}
}

// predictChain explores cfg as a chain of capped resumes, every link at
// most budget replays, and returns the final Result.
func predictChain(t *testing.T, cfg harness.ExploreConfig, predict bool, budget int) rmr.Result {
	t.Helper()
	var ck *rmr.Checkpoint
	for link := 0; ; link++ {
		c := cfg
		c.MaxSchedules = budget * (link + 1) // RunCheckpoint subtracts the prior replays
		e := predictExplorer(c, 1, predict)
		res, next, err := e.RunCheckpoint(cfg.Procs(), predictBody(cfg), cfg.CheckpointKey(), ck)
		if err != nil {
			t.Fatal(err)
		}
		if next.Complete {
			return res
		}
		ck = next
		if link > 10000 {
			t.Fatal("resume chain does not finish")
		}
	}
}

// predictSplit explores cfg to a checkpoint capped at cap replays, splits
// it into parts, resumes each part to completion, and merges them.
func predictSplit(t *testing.T, cfg harness.ExploreConfig, predict bool, cap, parts int) rmr.Result {
	t.Helper()
	c := cfg
	c.MaxSchedules = cap
	_, ck, err := predictExplorer(c, 1, predict).RunCheckpoint(cfg.Procs(), predictBody(cfg), cfg.CheckpointKey(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var rs []rmr.Result
	for _, part := range ck.Split(parts) {
		res, _, err := predictExplorer(cfg, 1, predict).RunCheckpoint(cfg.Procs(), predictBody(cfg), cfg.CheckpointKey(), part)
		if err != nil {
			t.Fatal(err)
		}
		rs = append(rs, res)
	}
	return rmr.Merge(rs...)
}

// TestPredictionCheckpoint checks that the prediction leaves checkpoint
// totals alone: a resume chain equals the uninterrupted run, and a split
// checkpoint's merged parts are the same with and without the prediction.
// Tasks decoded from a checkpoint carry no prediction, so each resume
// starts by replaying its frontier.
func TestPredictionCheckpoint(t *testing.T) {
	if raceEnabled {
		t.Skip("single-worker chains; TestPredictionParallel covers the race detector")
	}
	cfgs := []harness.ExploreConfig{
		{Model: rmr.CC, Algo: harness.AlgoPaper, W: 4, N: 3, Aborters: 1, MaxSteps: 16, Reduction: rmr.SleepSets, Visited: true},
		{Model: rmr.DSM, Algo: "mcs", W: 4, N: 3, MaxSteps: 14, Reduction: rmr.SleepSets, Visited: true, Symmetry: true},
	}
	for _, cfg := range cfgs {
		whole, err := predictExplorer(cfg, 1, false).Run(cfg.Procs(), predictBody(cfg))
		if err != nil {
			t.Fatal(err)
		}
		for _, predict := range []bool{false, true} {
			if got := predictChain(t, cfg, predict, 97); !reflect.DeepEqual(got, whole) {
				t.Errorf("%s predict=%v: resume chain %+v, uninterrupted %+v", cfg.Algo, predict, got, whole)
			}
		}
		off := predictSplit(t, cfg, false, 50, 3)
		on := predictSplit(t, cfg, true, 50, 3)
		if !reflect.DeepEqual(off, on) {
			t.Errorf("%s: split and merged without prediction %+v, with %+v", cfg.Algo, off, on)
		}
		if off.Explored != whole.Explored || !off.Exhausted {
			t.Errorf("%s: split and merged explored %d (exhausted %v), whole %d", cfg.Algo, off.Explored, off.Exhausted, whole.Explored)
		}
	}
}

// TestPredictionCheckCatchesWrongPredictor seeds a wrong predictor — every
// predicted CAS result flipped — and requires the check mode to report
// mismatches: a check nobody has seen fail may not check anything.
func TestPredictionCheckCatchesWrongPredictor(t *testing.T) {
	flipCAS := func(op rmr.Op, res uint64) uint64 {
		if op == rmr.OpCAS {
			return res ^ 1
		}
		return res
	}
	for _, algo := range []harness.Algo{"tas", "mcs"} {
		cfg := harness.ExploreConfig{Model: rmr.CC, Algo: algo, W: 4, N: 3, MaxSteps: 14, Reduction: rmr.SleepSets, Visited: true}
		e := predictExplorer(cfg, 1, true)
		au := rmr.AuditPredictions(e, flipCAS)
		if _, err := e.Run(cfg.Procs(), predictBody(cfg)); err != nil {
			t.Fatal(err)
		}
		for kind, name := range kindNames {
			c, m := au.Kind(kind)
			t.Logf("%s: %d of %d checked %s predictions mismatched", algo, m, c, name)
			if m == 0 {
				t.Errorf("%s: the check mode missed every flipped CAS result in %s predictions (%d checked)", algo, name, c)
			}
		}
	}
}

// kindNames names the prediction kinds, by rmr.PredictAudit.Kind index.
var kindNames = map[int]string{
	rmr.KindFirstPick:  "first-pick",
	rmr.KindSecondPick: "second-pick",
	rmr.KindBoundLeaf:  "bound-leaf",
}
