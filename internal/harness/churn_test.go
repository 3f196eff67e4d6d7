package harness

import (
	"strings"
	"testing"
)

func TestChurnNoAborts(t *testing.T) {
	res, err := Churn(AlgoPaperLL, 8, 4, 10, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 40 || res.Aborted != 0 {
		t.Fatalf("completed=%d aborted=%d, want 40/0", res.Completed, res.Aborted)
	}
}

func TestChurnMixed(t *testing.T) {
	for _, algo := range []Algo{AlgoPaperLL, AlgoPaperLLBounded} {
		res, err := Churn(algo, 8, 6, 20, 0.5, 3)
		if err != nil {
			t.Fatal(err)
		}
		if res.Completed+res.Aborted != 120 {
			t.Fatalf("%s: %d+%d attempts, want 120", algo, res.Completed, res.Aborted)
		}
		if res.Completed == 0 {
			t.Fatalf("%s: nothing completed under 50%% churn", algo)
		}
	}
}

func TestChurnRejectsMCSWithAborts(t *testing.T) {
	if _, err := Churn(AlgoMCS, 8, 2, 5, 0.5, 1); err == nil {
		t.Fatal("MCS churn with aborts accepted")
	}
	if _, err := Churn(AlgoMCS, 8, 2, 5, 0, 1); err != nil {
		t.Fatalf("MCS churn without aborts failed: %v", err)
	}
}

func TestChurnSweepTable(t *testing.T) {
	tbl, err := ChurnSweep(AlgoPaperLLBounded, 8, 4, 10, []float64{0, 0.5}, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(tbl.Rows))
	}
}

func TestChart(t *testing.T) {
	tbl := &Table{
		Title:   "demo",
		Columns: []string{"x", "cost"},
	}
	tbl.AddRow("a", "10")
	tbl.AddRow("bb", "20 (5.0)")
	tbl.AddRow("c", "—")
	var b strings.Builder
	if err := tbl.FprintChart(&b, 1); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "demo — cost") {
		t.Fatalf("missing chart header:\n%s", out)
	}
	if strings.Count(out, "█") == 0 {
		t.Fatal("no bars rendered")
	}
	// The 20-valued row must have roughly twice the bar of the 10-valued.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 { // header + 2 bars (the dash row is skipped)
		t.Fatalf("lines = %d, want 3:\n%s", len(lines), out)
	}
	barA := strings.Count(lines[1], "█")
	barB := strings.Count(lines[2], "█")
	if barB != 2*barA {
		t.Fatalf("bars %d vs %d, want 1:2", barA, barB)
	}
}

func TestChartErrors(t *testing.T) {
	tbl := &Table{Columns: []string{"x", "y"}}
	tbl.AddRow("a", "not-a-number")
	var b strings.Builder
	if err := tbl.FprintChart(&b, 0); err == nil {
		t.Fatal("column 0 accepted")
	}
	if err := tbl.FprintChart(&b, 5); err == nil {
		t.Fatal("out-of-range column accepted")
	}
	if err := tbl.FprintChart(&b, 1); err == nil {
		t.Fatal("non-numeric column accepted")
	}
}

func TestLeadingNumber(t *testing.T) {
	for cell, want := range map[string]float64{
		"12":       12,
		"3.5":      3.5,
		"12 (3.4)": 12,
		"-2":       -2,
		"  7 ":     7,
		"1027 (3)": 1027,
	} {
		got, ok := leadingNumber(cell)
		if !ok || got != want {
			t.Errorf("leadingNumber(%q) = %v,%v want %v", cell, got, ok, want)
		}
	}
	if _, ok := leadingNumber("—"); ok {
		t.Error("dash parsed as number")
	}
}

func TestPointContention(t *testing.T) {
	tbl, err := PointContention(64, 8, []int{2, 16})
	if err != nil {
		t.Fatal(err)
	}
	// Row order: mcs, scott, tournament, linearscan, paper.
	if len(tbl.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(tbl.Rows))
	}
	// The paper's lock must be flat and small across k.
	paper := tbl.Rows[4]
	a, _ := leadingNumber(paper[1])
	b, _ := leadingNumber(paper[2])
	if a > 10 || b > 10 {
		t.Errorf("paper passage costs %v, want O(1) ≤ 10", paper[1:])
	}
	// The tournament must pay its full height even at k=2 (the documented
	// non-adaptivity of the substitution): 3·log2(64) = 18.
	tournament := tbl.Rows[2]
	if v, _ := leadingNumber(tournament[1]); v < 15 {
		t.Errorf("tournament at k=2 = %v RMRs, expected full-height ≈ 18+", v)
	}
	// Oversized k yields a dash.
	tbl2, err := PointContention(4, 8, []int{2, 8})
	if err != nil {
		t.Fatal(err)
	}
	if tbl2.Rows[0][2] != "—" {
		t.Errorf("k > capacity cell = %q, want —", tbl2.Rows[0][2])
	}
}

func TestDSMTable(t *testing.T) {
	tbl, err := DSMTable([]int{16, 64}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(tbl.Rows))
	}
	// No-abort passage in DSM stays O(1): the leading number of each cell
	// is the queue max, which must be small and flat.
	for _, row := range tbl.Rows {
		a, _ := leadingNumber(row[1])
		b, _ := leadingNumber(row[2])
		if a > 14 || b > 14 {
			t.Errorf("%s: DSM no-abort max RMRs %v/%v, want ≤ 14", row[0], a, b)
		}
	}
}
