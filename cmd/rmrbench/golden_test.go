package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// regenerate is the command, run from the repository root, that rewrites
// the goldens after an intended change to a deterministic cell.
const regenerate = "go run ./cmd/rmrbench -quick -matrix cmd/rmrbench/testdata/quick_matrix.json -explore cmd/rmrbench/testdata/quick_explore.json"

// goldenFiles are the quick artifacts committed under testdata/.
var goldenFiles = []string{"quick_matrix.json", "quick_explore.json"}

// wallClockFields vary from run to run and are never compared.
var wallClockFields = map[string]bool{"seconds": true, "replays_per_sec": true}

// cellKeys names each section's identity fields: a cell is matched across
// two artifacts by these, and every other field is a metric compared
// exactly. A section missing here is matched by position.
var cellKeys = map[string][]string{
	"locks":    {"lock", "model"},
	"latency":  {"lock", "model", "cost", "cost_seed"},
	"explorer": {"config", "por", "visited", "symmetry"},
}

// artifact is one rmrbench JSON document: section name → cells. Numbers
// stay json.Number so the comparison is on the exact encoded text.
type artifact map[string][]map[string]any

func readArtifact(t *testing.T, path string) artifact {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var a artifact
	if err := dec.Decode(&a); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return a
}

// cellName labels a cell by its section and identity fields, e.g.
// latency[lock=paper model=cc cost=ccnuma cost_seed=1].
func cellName(section string, i int, c map[string]any) string {
	keys := cellKeys[section]
	if keys == nil {
		return fmt.Sprintf("%s[#%d]", section, i)
	}
	parts := make([]string, len(keys))
	for j, k := range keys {
		parts[j] = fmt.Sprintf("%s=%v", k, field(c, k))
	}
	return section + "[" + strings.Join(parts, " ") + "]"
}

// field renders a cell's field, marking omitted (omitempty) ones.
func field(c map[string]any, k string) string {
	v, ok := c[k]
	if !ok {
		return "<absent>"
	}
	return fmt.Sprint(v)
}

// diffArtifacts lists every cell and metric that differs between want and
// got as "cell: metric old → new", plus cells only one side has, in a
// deterministic order.
func diffArtifacts(want, got artifact) []string {
	sections := map[string]bool{}
	for s := range want {
		sections[s] = true
	}
	for s := range got {
		sections[s] = true
	}
	names := make([]string, 0, len(sections))
	for s := range sections {
		names = append(names, s)
	}
	sort.Strings(names)

	var diffs []string
	for _, s := range names {
		index := func(cells []map[string]any) ([]string, map[string]map[string]any) {
			order := make([]string, len(cells))
			byName := make(map[string]map[string]any, len(cells))
			for i, c := range cells {
				order[i] = cellName(s, i, c)
				byName[order[i]] = c
			}
			return order, byName
		}
		wantOrder, wantCells := index(want[s])
		gotOrder, gotCells := index(got[s])
		for _, name := range wantOrder {
			g, ok := gotCells[name]
			if !ok {
				diffs = append(diffs, name+": cell removed")
				continue
			}
			w := wantCells[name]
			metrics := map[string]bool{}
			for k := range w {
				metrics[k] = true
			}
			for k := range g {
				metrics[k] = true
			}
			keys := make([]string, 0, len(metrics))
			for k := range metrics {
				if !wallClockFields[k] {
					keys = append(keys, k)
				}
			}
			sort.Strings(keys)
			for _, k := range keys {
				if old, cur := field(w, k), field(g, k); old != cur {
					diffs = append(diffs, fmt.Sprintf("%s: %s %s → %s", name, k, old, cur))
				}
			}
		}
		for _, name := range gotOrder {
			if _, ok := wantCells[name]; !ok {
				diffs = append(diffs, name+": cell added")
			}
		}
	}
	return diffs
}

// TestQuickArtifactsMatchGolden is the exact gate on the deterministic
// simulator cells behind Table 1: the quick RMR and priced-latency matrix
// and the exploration lattice's counts must match the committed goldens.
func TestQuickArtifactsMatchGolden(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-quick",
		"-matrix", filepath.Join(dir, goldenFiles[0]),
		"-explore", filepath.Join(dir, goldenFiles[1])}); err != nil {
		t.Fatal(err)
	}
	var diffs []string
	for _, name := range goldenFiles {
		want := readArtifact(t, filepath.Join("testdata", name))
		got := readArtifact(t, filepath.Join(dir, name))
		diffs = append(diffs, diffArtifacts(want, got)...)
	}
	if len(diffs) > 0 {
		t.Errorf("the quick artifacts differ from the goldens in %d places:\n  %s\nif the change is intended, regenerate them from the repository root:\n  %s",
			len(diffs), strings.Join(diffs, "\n  "), regenerate)
	}
}

// TestGoldenDiffNamesChangedCells is the gate's negative test: bumping one
// RMR cell and one latency cell must be reported as exactly those two
// cells and metrics, while a wall-clock field may change freely.
func TestGoldenDiffNamesChangedCells(t *testing.T) {
	matrix := filepath.Join("testdata", "quick_matrix.json")
	want, got := readArtifact(t, matrix), readArtifact(t, matrix)
	bump := func(section, k string) {
		c := got[section][0]
		n, err := strconv.ParseInt(string(c[k].(json.Number)), 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		c[k] = json.Number(strconv.FormatInt(n+1, 10))
	}
	bump("locks", "passage_rmrs_max")
	bump("latency", "queue_sim_p99_ns")
	wantDiffs := []string{
		"latency[lock=linearscan model=cc cost=ccnuma cost_seed=1]: queue_sim_p99_ns 942 → 943",
		"locks[lock=linearscan model=cc]: passage_rmrs_max 4 → 5",
	}
	if diffs := diffArtifacts(want, got); strings.Join(diffs, "\n") != strings.Join(wantDiffs, "\n") {
		t.Errorf("diffs = %q, want %q", diffs, wantDiffs)
	}

	explore := filepath.Join("testdata", "quick_explore.json")
	want, timed := readArtifact(t, explore), readArtifact(t, explore)
	for _, c := range timed["explorer"] {
		c["seconds"], c["replays_per_sec"] = json.Number("1e9"), json.Number("1")
	}
	if diffs := diffArtifacts(want, timed); len(diffs) != 0 {
		t.Errorf("wall-clock fields compared: %q", diffs)
	}
}
