package harness

import (
	"fmt"

	"sublock/rmr"
)

// DSMTable regenerates experiment E16: the one-shot lock's Table 1 row
// under the *DSM* cost model, where the paper also claims O(log_W N)
// worst-case and O(1) no-abort cost (the "CC/DSM" entry). Both workloads
// of E1/E2 run with every word charged by ownership instead of coherence;
// the lock automatically uses the §3 announce/spin-bit indirection so that
// all busy waiting is local. The two rows compare the adaptive and plain
// FindNext variants: under DSM the Figure 4 gap surfaces directly in the
// no-abort column's max (the boundary slot's full ascent), while the
// adaptive row stays flat. Unbounded-wait costs are E10's subject.
func DSMTable(ns []int, w int) (*Table, error) {
	t := &Table{
		Title:   "E16 — DSM model: the paper's one-shot lock (Table 1 row, CC/DSM claim)",
		Note:    "cells: no-abort queue max (mean) / all-but-one-abort holder passage RMRs",
		Columns: []string{"variant"},
	}
	for _, n := range ns {
		t.Columns = append(t.Columns, fmt.Sprintf("N=%d", n))
	}
	for _, variant := range []struct {
		name string
		algo Algo
	}{
		{"indirection (§3)", AlgoPaper},
		{"plain FindNext", AlgoPaperPlain},
	} {
		row := []string{variant.name}
		for _, n := range ns {
			queue, err := QueueWorkloadCost(rmr.DSM, rmr.Unit, variant.algo, w, n)
			if err != nil {
				return nil, err
			}
			storm, err := AbortStormCost(rmr.DSM, rmr.Unit, variant.algo, w, n-2, false)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%s / %d", queue.Passages.Cell(), storm.HolderPassage))
		}
		t.AddRow(row...)
	}
	return t, nil
}
