package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sublock/locks"
)

// TestWriteMatrix: every registered lock must appear in the matrix, with a
// CC entry always and a DSM entry unless the lock is CC-only — and the
// latency section must cover the same (lock, model) set once per requested
// cost model, with plausible priced quantiles.
func TestWriteMatrix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "matrix.json")
	if err := run([]string{"-quick", "-matrix", path}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Locks   []matrixEntry  `json:"locks"`
		Latency []latencyEntry `json:"latency"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	got := map[string]map[string]bool{}
	for _, e := range doc.Locks {
		if e.PassageMax <= 0 || e.Words <= 0 {
			t.Errorf("%s/%s: implausible entry %+v", e.Lock, e.Model, e)
		}
		if got[e.Lock] == nil {
			got[e.Lock] = map[string]bool{}
		}
		got[e.Lock][e.Model] = true
	}
	for _, info := range locks.Infos() {
		if !got[info.Name]["cc"] {
			t.Errorf("%s: missing cc entry", info.Name)
		}
		if !info.CCOnly && !got[info.Name]["dsm"] {
			t.Errorf("%s: missing dsm entry", info.Name)
		}
		if info.CCOnly && got[info.Name]["dsm"] {
			t.Errorf("%s: CC-only lock has a dsm entry", info.Name)
		}
	}
	latGot := map[string]bool{}
	for _, e := range doc.Latency {
		if e.QueueP50 <= 0 || e.QueueP50 > e.QueueP95 || e.QueueP95 > e.QueueP99 || e.QueueP99 > e.QueueMax {
			t.Errorf("%s/%s/%s: implausible quantiles %+v", e.Lock, e.Model, e.Cost, e)
		}
		if e.CostSeed != 1 {
			t.Errorf("%s/%s/%s: cost_seed = %d, want default 1", e.Lock, e.Model, e.Cost, e.CostSeed)
		}
		key := e.Lock + "/" + e.Model + "/" + e.Cost
		if latGot[key] {
			t.Errorf("duplicate latency entry %s", key)
		}
		latGot[key] = true
	}
	for lock, models := range got {
		for model := range models {
			for _, cost := range []string{"ccnuma", "dsmremote"} {
				if !latGot[lock+"/"+model+"/"+cost] {
					t.Errorf("%s/%s: missing latency entry for cost=%s", lock, model, cost)
				}
			}
		}
	}
	if want := 2 * len(doc.Locks); len(doc.Latency) != want {
		t.Errorf("latency section has %d entries, want %d", len(doc.Latency), want)
	}
}

// TestWriteMatrixDeterministicAcrossWorkers: the matrix's bytes must not
// depend on the worker count — cells land in preallocated index slots and
// every cell is a gated fixed-seed run. linearscan is in the set because
// its RMR counts under DSM follow the interleaving (remote spin re-reads),
// so it regresses if a cell's schedule ever stops being fixed.
func TestWriteMatrixDeterministicAcrossWorkers(t *testing.T) {
	dir := t.TempDir()
	outs := make([][]byte, 2)
	for i, workers := range []string{"1", "4"} {
		path := filepath.Join(dir, "matrix"+workers+".json")
		if err := run([]string{"-quick", "-matrix", path,
			"-matrix-locks", "paper,mcs,linearscan", "-cost-seed", "7", "-workers", workers}); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		outs[i] = raw
	}
	if string(outs[0]) != string(outs[1]) {
		t.Error("matrix bytes differ between -workers 1 and -workers 4")
	}
}

// TestWriteMatrixLockFilter: -matrix-locks restricts the matrix and rejects
// unknown names.
func TestWriteMatrixLockFilter(t *testing.T) {
	path := filepath.Join(t.TempDir(), "matrix.json")
	if err := run([]string{"-quick", "-matrix", path, "-matrix-locks", "paper", "-cost", "ccnuma"}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Locks   []matrixEntry  `json:"locks"`
		Latency []latencyEntry `json:"latency"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Locks) != 2 { // paper: cc + dsm
		t.Errorf("filtered matrix has %d lock entries, want 2: %+v", len(doc.Locks), doc.Locks)
	}
	for _, e := range doc.Locks {
		if e.Lock != "paper" {
			t.Errorf("unexpected lock %q in filtered matrix", e.Lock)
		}
	}
	if len(doc.Latency) != 2 {
		t.Errorf("filtered latency section has %d entries, want 2", len(doc.Latency))
	}
	for _, e := range doc.Latency {
		if e.Cost != "ccnuma" {
			t.Errorf("unexpected cost %q with -cost ccnuma", e.Cost)
		}
	}
	err = run([]string{"-quick", "-matrix", path, "-matrix-locks", "nope"})
	if err == nil || !strings.Contains(err.Error(), "unknown lock") {
		t.Fatalf("err = %v, want unknown-lock error", err)
	}
	// Two unknown names: both are reported, sorted, whatever the map order.
	err = run([]string{"-quick", "-matrix", path, "-matrix-locks", "zzz,paper,nope"})
	if err == nil || !strings.Contains(err.Error(), `unknown lock "nope", "zzz"`) {
		t.Fatalf("err = %v, want both unknown locks named in sorted order", err)
	}
}

// TestRunBadCostFlag: a bogus -cost fails before anything runs, naming the
// known models.
func TestRunBadCostFlag(t *testing.T) {
	err := run([]string{"-cost", "bogus", "-list"})
	if err == nil || !strings.Contains(err.Error(), "ccnuma") {
		t.Fatalf("err = %v, want error listing known cost models", err)
	}
}

func TestRunListLocks(t *testing.T) {
	if err := run([]string{"-list-locks"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunQuickSingleExperiment(t *testing.T) {
	if err := run([]string{"-quick", "e6"}); err != nil {
		t.Fatal(err)
	}
}

// TestRunWithGenerousDeadline: a deadline the run comfortably beats arms
// and disarms without firing.
func TestRunWithGenerousDeadline(t *testing.T) {
	if err := run([]string{"-quick", "-deadline", "10m", "e6"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunCSV(t *testing.T) {
	if err := run([]string{"-quick", "-csv", "e7"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunList(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	err := run([]string{"zzz"})
	if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Fatalf("err = %v, want unknown-experiment error", err)
	}
}

func TestExperimentIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range experiments(42, []string{"ccnuma"}, 1) {
		if seen[e.id] {
			t.Fatalf("duplicate experiment id %q", e.id)
		}
		seen[e.id] = true
		if e.full == nil || e.fast == nil {
			t.Fatalf("experiment %q missing a runner", e.id)
		}
	}
}

func TestEveryFastExperimentRuns(t *testing.T) {
	for _, e := range experiments(42, []string{"ccnuma", "dsmremote"}, 1) {
		e := e
		t.Run(e.id, func(t *testing.T) {
			tbl, err := e.fast()
			if err != nil {
				t.Fatal(err)
			}
			if len(tbl.Rows) == 0 {
				t.Fatal("empty table")
			}
		})
	}
}
