package harness

import (
	"fmt"

	"sublock/rmr"
)

// PointContention regenerates experiment E15: per-passage RMR cost as the
// number of *actually contending* processes k sweeps while the lock stays
// sized for a large N. Jayanti's lock is adaptive to point contention
// (O(min(k, log N))); our tournament stand-in is not (it climbs the full
// Θ(log N) tree even for k = 2), which is the honestly-measured caveat of
// the Table 1 substitution (see DESIGN.md). The paper's lock is O(1) here
// regardless of k or N — no process aborts.
func PointContention(capacity, w int, ks []int) (*Table, error) {
	t := &Table{
		Title: fmt.Sprintf("E15 — point contention: passage RMRs vs active processes k (capacity N=%d)", capacity),
		Note: "no aborts; max (mean) RMRs per passage;\n" +
			"tournament is deliberately non-adaptive here — the documented gap vs Jayanti's O(min(k, log N))",
		Columns: []string{"algorithm"},
	}
	for _, k := range ks {
		t.Columns = append(t.Columns, fmt.Sprintf("k=%d", k))
	}
	for _, algo := range append([]Algo{AlgoMCS}, Table1Algos...) {
		row := []string{string(algo)}
		for _, k := range ks {
			if k > capacity {
				row = append(row, "—")
				continue
			}
			res, _, err := gatedQueueWorkload(rmr.CC, nil, algo, w, k, capacity, false)
			if err != nil {
				return nil, err
			}
			row = append(row, res.Passages.Cell())
		}
		t.AddRow(row...)
	}
	return t, nil
}
