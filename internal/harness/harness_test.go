package harness

import (
	"slices"
	"strconv"
	"strings"
	"testing"
)

func TestBuildAllAlgos(t *testing.T) {
	for _, algo := range []Algo{
		AlgoPaper, AlgoPaperPlain, AlgoPaperLL, AlgoPaperLLBounded,
		AlgoScott, AlgoTournament, AlgoLinearScan, AlgoMCS, AlgoTAS,
	} {
		res, err := QueueWorkload(algo, DefaultW, 8)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if len(res.Passages) != 8 {
			t.Fatalf("%s: %d passages, want 8", algo, len(res.Passages))
		}
	}
}

func TestBuildUnknown(t *testing.T) {
	if _, err := QueueWorkload(Algo("nope"), DefaultW, 2); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestSeries(t *testing.T) {
	s := Series{5, 1, 3, 2, 4}
	if s.Max() != 5 {
		t.Fatalf("Max = %d", s.Max())
	}
	if s.Mean() != 3 {
		t.Fatalf("Mean = %f", s.Mean())
	}
	if got := s.Percentile(0.5); got != 3 && got != 2 {
		t.Fatalf("median = %d", got)
	}
	if got := s.Percentile(1.0); got != 5 {
		t.Fatalf("p100 = %d", got)
	}
	var empty Series
	if empty.Max() != 0 || empty.Mean() != 0 || empty.Percentile(0.5) != 0 || empty.Cell() != "—" {
		t.Fatal("empty series misbehaves")
	}
}

// TestSeriesPercentileRank pins Percentile's rank convention, ⌊q·n⌋
// clamped to 1..n: the committed goldens depend on it.
func TestSeriesPercentileRank(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		rank int // 1-based rank among the sorted samples
	}{
		{n: 5, q: 0.5, rank: 2},
		{n: 5, q: 0.99, rank: 4},
		{n: 5, q: 1, rank: 5},
		{n: 5, q: 0, rank: 1},
		{n: 1, q: 0.5, rank: 1},
		{n: 100, q: 0.5, rank: 50},
		{n: 100, q: 0.99, rank: 99},
	} {
		// Samples 10·k for k = n..1, stored in descending order so the
		// result shows both the sort and the rank.
		s := make(Series, tc.n)
		for i := range s {
			s[i] = int64(10 * (tc.n - i))
		}
		if got, want := s.Percentile(tc.q), int64(10*tc.rank); got != want {
			t.Errorf("n=%d q=%v: Percentile = %d, want %d (rank %d)", tc.n, tc.q, got, want, tc.rank)
		}
	}
}

func TestTableFormat(t *testing.T) {
	tbl := &Table{
		Title:   "demo",
		Note:    "a note",
		Columns: []string{"x", "value"},
	}
	tbl.AddRow("1", "10")
	tbl.AddRow("2", "200")
	out := tbl.String()
	for _, want := range []string{"demo", "a note", "x", "value", "200"} {
		if !strings.Contains(out, want) {
			t.Fatalf("formatted table missing %q:\n%s", want, out)
		}
	}
}

func TestAbortStormShape(t *testing.T) {
	// The paper's lock: handoff across A aborted slots costs O(log_W A),
	// so doubling A at W=8 barely moves the cost; the linear-scan lock
	// pays ≈A.
	paper16, err := AbortStorm(AlgoPaper, 8, 16, false)
	if err != nil {
		t.Fatal(err)
	}
	paper64, err := AbortStorm(AlgoPaper, 8, 64, false)
	if err != nil {
		t.Fatal(err)
	}
	lin16, err := AbortStorm(AlgoLinearScan, 8, 16, false)
	if err != nil {
		t.Fatal(err)
	}
	lin64, err := AbortStorm(AlgoLinearScan, 8, 64, false)
	if err != nil {
		t.Fatal(err)
	}
	if paper64.HolderPassage > paper16.HolderPassage+4 {
		t.Errorf("paper handoff grew too fast: A=16 → %d, A=64 → %d",
			paper16.HolderPassage, paper64.HolderPassage)
	}
	if lin64.HolderPassage-lin16.HolderPassage < 40 {
		t.Errorf("linear-scan handoff should grow ≈linearly: A=16 → %d, A=64 → %d",
			lin16.HolderPassage, lin64.HolderPassage)
	}
}

func TestAbortStormRejectsMCS(t *testing.T) {
	if _, err := AbortStorm(AlgoMCS, 8, 4, false); err == nil {
		t.Fatal("MCS accepted in an abort storm")
	}
}

func TestQueueWorkloadO1ForPaper(t *testing.T) {
	for _, n := range []int{16, 128, 512} {
		res, err := QueueWorkload(AlgoPaper, 8, n)
		if err != nil {
			t.Fatal(err)
		}
		if max := res.Passages.Max(); max > 12 {
			t.Errorf("N=%d: max passage = %d RMRs, want O(1) ≤ 12", n, max)
		}
	}
}

func TestMultiPassage(t *testing.T) {
	res, err := MultiPassage(AlgoPaperLLBounded, 8, 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Passages) != 40 {
		t.Fatalf("passages = %d, want 40", len(res.Passages))
	}
	if res.WordsAfter != res.WordsBefore {
		t.Fatalf("bounded long-lived lock grew: %d → %d", res.WordsBefore, res.WordsAfter)
	}
}

func TestExperimentsRun(t *testing.T) {
	// Every experiment must produce a non-empty table at small scale.
	for name, fn := range map[string]func() (*Table, error){
		"E1":  func() (*Table, error) { return Table1WorstCase([]int{16, 64}, 8) },
		"E2":  func() (*Table, error) { return Table1NoAborts([]int{16, 64}, 8) },
		"E3":  func() (*Table, error) { return Table1Adaptive(64, 8, []int{0, 4, 16}) },
		"E4":  func() (*Table, error) { return Table1Space([]int{16, 64}, 8) },
		"E5":  func() (*Table, error) { return WSweep(64, []int{2, 4, 8, 64}) },
		"E6":  Fig2Scenarios,
		"E7":  func() (*Table, error) { return Fig4Adaptive([]int{64, 512}, 8) },
		"E9":  func() (*Table, error) { return LongLivedOverhead(4, 8, 8) },
		"E10": func() (*Table, error) { return DSMVariant([]int{50, 200}) },
		"E11": func() (*Table, error) { return MCSAnchor([]int{8, 32}) },
		"E13": func() (*Table, error) { return SpinNodeAblation([]int{4, 16}) },
	} {
		t.Run(name, func(t *testing.T) {
			tbl, err := fn()
			if err != nil {
				t.Fatal(err)
			}
			if len(tbl.Rows) == 0 {
				t.Fatal("empty table")
			}
			if tbl.String() == "" {
				t.Fatal("empty rendering")
			}
		})
	}
}

func TestFig2Outcomes(t *testing.T) {
	tbl, err := Fig2Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(tbl.Rows))
	}
	if got := tbl.Rows[1][1]; got != "⊥" {
		t.Errorf("scenario (b) outcome = %q, want ⊥", got)
	}
	if got := tbl.Rows[2][1]; got != "⊤" {
		t.Errorf("scenario (c) outcome = %q, want ⊤", got)
	}
}

func TestDSMVariantShape(t *testing.T) {
	tbl, err := DSMVariant([]int{100, 400})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		steps, _ := strconv.Atoi(row[0])
		naive, _ := strconv.ParseInt(row[1], 10, 64)
		indirect, _ := strconv.ParseInt(row[2], 10, 64)
		if indirect > 6 {
			t.Errorf("S=%d: indirection waiter RMRs = %d, want O(1) ≤ 6", steps, indirect)
		}
		if naive < int64(steps)/2 {
			t.Errorf("S=%d: naive waiter RMRs = %d, want ≈S remote re-reads", steps, naive)
		}
	}
}

func TestSpinNodeAblationShape(t *testing.T) {
	tbl, err := SpinNodeAblation([]int{8, 64})
	if err != nil {
		t.Fatal(err)
	}
	// The schedule is scripted, so the cells are exact: a polling waiter
	// pays one RMR per descriptor F&A (two per churn cycle), a spin-node
	// waiter one miss on its spin node.
	want := [][]string{{"8", "16", "1"}, {"64", "128", "1"}}
	for i, row := range tbl.Rows {
		if !slices.Equal(row, want[i]) {
			t.Errorf("row %d = %v, want %v", i, row, want[i])
		}
	}
	small, _ := strconv.ParseInt(tbl.Rows[0][1], 10, 64)
	big, _ := strconv.ParseInt(tbl.Rows[1][1], 10, 64)
	if big <= small {
		t.Errorf("descriptor polling cost should grow with churn: %d → %d", small, big)
	}
	for _, row := range tbl.Rows {
		spin, _ := strconv.ParseInt(row[2], 10, 64)
		if spin > 8 {
			t.Errorf("churn=%s: spin-node wait RMRs = %d, want O(1) ≤ 8", row[0], spin)
		}
	}
}

func TestFig4Shape(t *testing.T) {
	tbl, err := Fig4Adaptive([]int{64, 512, 4096}, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		adaptive, _ := strconv.ParseInt(row[3], 10, 64)
		if adaptive != 1 {
			t.Errorf("N=%s: adaptive ascent = %s RMRs, want 1", row[0], row[3])
		}
	}
	plainFirst, _ := strconv.ParseInt(tbl.Rows[0][2], 10, 64)
	plainLast, _ := strconv.ParseInt(tbl.Rows[len(tbl.Rows)-1][2], 10, 64)
	if plainLast <= plainFirst {
		t.Errorf("plain ascent should grow with N: %d → %d", plainFirst, plainLast)
	}
}

func TestWSweepShape(t *testing.T) {
	// N=1024 keeps the test fast; cmd/rmrbench runs the paper-scale N=4096.
	tbl, err := WSweep(1024, []int{2, 8, 64})
	if err != nil {
		t.Fatal(err)
	}
	h2, _ := strconv.Atoi(tbl.Rows[0][1])
	h64, _ := strconv.Atoi(tbl.Rows[2][1])
	if h2 != 10 || h64 != 2 {
		t.Errorf("tree heights W=2:%d (want 10), W=64:%d (want 2)", h2, h64)
	}
	c2, _ := strconv.ParseInt(tbl.Rows[0][2], 10, 64)
	c64, _ := strconv.ParseInt(tbl.Rows[2][2], 10, 64)
	if c64 >= c2 {
		t.Errorf("holder passage should shrink as W grows: W=2:%d, W=64:%d", c2, c64)
	}
}
