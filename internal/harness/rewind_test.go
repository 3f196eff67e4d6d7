package harness

import (
	"fmt"
	"reflect"
	"testing"

	"sublock/locks"
	"sublock/rmr"
)

// exploreBody explores cfg with the exhaustive body, rewinding the built
// lock between runs or rebuilding it per run as rewind says.
func exploreBody(cfg ExploreConfig, rewind bool) (rmr.Result, error) {
	body := exhaustiveBody(cfg.Model, cfg.Algo, cfg.W, cfg.N, cfg.Aborters, nil, rewind)
	return cfg.explorer().Run(cfg.Procs(), body)
}

// rewindMismatch explores cfg once rewinding and once rebuilding per run
// and describes the first difference between the two, or returns "".
func rewindMismatch(cfg ExploreConfig) string {
	fresh, errFresh := exploreBody(cfg, false)
	rewound, errRewound := exploreBody(cfg, true)
	if fmt.Sprint(errFresh) != fmt.Sprint(errRewound) {
		return fmt.Sprintf("rebuilt: %v; rewound: %v", errFresh, errRewound)
	}
	if !reflect.DeepEqual(fresh, rewound) {
		return fmt.Sprintf("rebuilt: %+v\nrewound: %+v", fresh, rewound)
	}
	return ""
}

// rewindConfigs are the N = 2 explorations the rewind check compares for
// one lock: every model it supports, without and (if abortable) with an
// aborter, under sleep sets and visited caching, whose state fingerprint
// folds in every memory word.
func rewindConfigs(info locks.Info) []ExploreConfig {
	models := []rmr.Model{rmr.CC, rmr.DSM}
	if info.CCOnly {
		models = models[:1]
	}
	aborters := []int{0}
	if info.Abortable {
		aborters = append(aborters, 1)
	}
	var cfgs []ExploreConfig
	for _, model := range models {
		for _, a := range aborters {
			cfgs = append(cfgs, ExploreConfig{
				Model: model, Algo: Algo(info.Name), W: 4, N: 2, Aborters: a,
				MaxSteps: 40, MaxSchedules: 3000, Workers: 1,
				Reduction: rmr.SleepSets, Visited: true,
			})
		}
	}
	return cfgs
}

// TestRewindMatchesRebuild is the conformance check of
// locks.Info.Rewindable: for every lock that declares it, exploring with
// the built lock rewound between runs gives exactly the Result of
// exploring with a fresh build per run.
func TestRewindMatchesRebuild(t *testing.T) {
	for _, info := range locks.Infos() {
		if !info.Rewindable {
			continue
		}
		t.Run(info.Name, func(t *testing.T) {
			t.Parallel()
			for _, cfg := range rewindConfigs(info) {
				if d := rewindMismatch(cfg); d != "" {
					t.Errorf("%v, %d aborters:\n%s", cfg.Model, cfg.Aborters, d)
				}
			}
		})
	}
}

// TestRewindCheckCatchesGoSideState gives TestRewindMatchesRebuild its
// teeth: the long-lived lock keeps instance lists in Go values that a run
// changes, so rewinding only its memory must make the check fail.
func TestRewindCheckCatchesGoSideState(t *testing.T) {
	info, _ := locks.Lookup(string(AlgoPaperLL))
	if info.Rewindable {
		t.Fatalf("%s is registered Rewindable", info.Name)
	}
	for _, cfg := range rewindConfigs(info) {
		if rewindMismatch(cfg) != "" {
			return
		}
	}
	t.Fatalf("rewinding %s matched rebuilding it in every configuration", info.Name)
}

// TestRewoundBodyParallel explores a rewound body with two workers, each
// with its own pooled configuration: the uncapped counts must match one
// worker's and a per-run rebuild's. The race detector (CI runs this
// package under -race) checks that workers share no configuration.
func TestRewoundBodyParallel(t *testing.T) {
	cfg := ExploreConfig{
		Model: rmr.CC, Algo: AlgoPaper, W: 4, N: 2, Aborters: 1,
		MaxSteps: 14, Reduction: rmr.SleepSets,
	}
	count := func(workers int, rewind bool) [4]int {
		cfg.Workers = workers
		res, err := exploreBody(cfg, rewind)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Exhausted {
			t.Fatal("exploration not exhausted")
		}
		return [4]int{res.Explored, res.Pruned, res.Equivalent, res.Replays()}
	}
	want := count(1, false)
	for _, workers := range []int{1, 2} {
		if got := count(workers, true); got != want {
			t.Errorf("rewound, %d workers: explored/pruned/equivalent/replays %v, rebuilt with one worker %v",
				workers, got, want)
		}
	}
}
