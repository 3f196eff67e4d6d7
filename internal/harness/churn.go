package harness

import (
	"fmt"
	"math/rand"

	"sublock/locks"
	"sublock/rmr"
)

// ChurnResult reports a Churn run.
type ChurnResult struct {
	Completed, Aborted int
	// Successful holds per-passage RMRs of completed passages; AbortCosts
	// of abandoned attempts.
	Successful, AbortCosts Series
}

// Churn is the dynamic long-lived workload (experiment E14): every process
// performs `attempts` acquisitions; before each attempt it flips a seeded
// coin and with probability pAbort delivers itself the abort signal, so
// attempts abandon at whatever point the signal catches them. It measures
// how the lock behaves under sustained mixed enter/abort traffic —
// the regime the paper's adaptive bound targets. The processes run under
// RandomPick(seed); a holder keeps the critical section for as long as the
// schedule withholds its Exit's first step, so attempts overlap.
func Churn(algo Algo, w, nprocs, attempts int, pAbort float64, seed int64) (*ChurnResult, error) {
	if !algo.Abortable() && pAbort > 0 {
		return nil, fmt.Errorf("harness: %s cannot run an abort churn", algo)
	}
	m := rmr.NewMemory(rmr.CC, nprocs, nil)
	fn, err := locks.Build(m, string(algo), w, nprocs)
	if err != nil {
		return nil, err
	}
	res := &ChurnResult{}
	l := NewPassageLog(nprocs)
	s := rmr.NewScheduler(nprocs, rmr.RandomPick(seed))
	err = l.run(m, s, gatedStepBudget, func(i int) func() {
		p := m.Proc(i)
		h := fn(p)
		// Offset every coin stream from the schedule's seed.
		rng := rand.New(rand.NewSource(seed + int64(i+1)*7919))
		return func() {
			for k := 0; k < attempts; k++ {
				if rng.Float64() < pAbort {
					p.SignalAbort()
				}
				ok := l.Pass(p, h)
				p.ClearAbort()
				if ok {
					res.Completed++
					res.Successful = append(res.Successful, l.RMRs[i])
				} else {
					res.Aborted++
					res.AbortCosts = append(res.AbortCosts, l.RMRs[i])
				}
			}
		}
	})
	if err != nil {
		return nil, gatedErr(algo, err)
	}
	return res, nil
}

// ChurnSweep regenerates experiment E14: the long-lived lock under abort
// probabilities from calm to storm, reporting completion mix and RMR
// distributions. seed feeds the schedule and the per-process coin-flip
// streams, so two runs with the same seed produce the same table.
func ChurnSweep(algo Algo, w, nprocs, attempts int, probs []float64, seed int64) (*Table, error) {
	t := &Table{
		Title: fmt.Sprintf("E14 — dynamic churn: %s, N=%d, %d attempts/process", algo, nprocs, attempts),
		Note: "p = probability an attempt carries a pre-delivered abort signal;\n" +
			"cells: completed/aborted counts, then max (mean) RMRs",
		Columns: []string{"p(abort)", "completed", "aborted", "passage RMRs", "abort RMRs"},
	}
	for _, p := range probs {
		res, err := Churn(algo, w, nprocs, attempts, p, seed)
		if err != nil {
			return nil, err
		}
		t.AddRow(
			fmt.Sprintf("%.2f", p),
			fmt.Sprintf("%d", res.Completed),
			fmt.Sprintf("%d", res.Aborted),
			res.Successful.Cell(),
			res.AbortCosts.Cell(),
		)
	}
	return t, nil
}
