package harness

import (
	"fmt"
	"strings"

	"sublock/locks"
	"sublock/rmr"
)

// LatencyTable generates E17: the simulated-latency experiment over the
// full lock registry. Every registered lock runs the gated queue-drain
// workload (the Table 1 "No aborts" configuration under a fixed-seed
// scheduler; see gated.go) under every memory model it supports, once per
// named cost model, and each cell reports the p50/p95/p99 (Series.Percentile,
// rank ⌊q·n⌋) of the per-passage simulated latency in nanoseconds. Cost models are
// observe-only — every column prices the same deterministic schedule — so
// the table isolates what each latency model makes of the same execution:
// under CC-NUMA pricing the queue locks' O(1) handoffs stay flat while the
// tournament's log-depth passages multiply, and under DSM-remote pricing
// every charged op is an order of magnitude dearer.
//
// costs names the models to price (rmr.CostModelNames() order is the
// conventional choice), seed is the shared cost-model seed, and nprocs is
// the queue depth. Each (lock, model, cost) cell is bit-deterministic in
// (seed, nprocs).
func LatencyTable(costs []string, seed int64, nprocs int) (*Table, error) {
	t := &Table{
		Title: fmt.Sprintf("E17 — simulated passage latency by cost model, full queue drain, N=%d", nprocs),
		Note: fmt.Sprintf("cells: p50/p95/p99 simulated ns per passage (rank ⌊q·n⌋); cost seed %d; "+
			"gated fixed-seed schedule — pricing is observe-only, so all columns price the same run", seed),
		Columns: []string{"algorithm", "model"},
	}
	models := make([]rmr.CostModel, len(costs))
	for i, name := range costs {
		cm, err := rmr.NewCostModel(name, seed)
		if err != nil {
			return nil, err
		}
		models[i] = cm
		t.Columns = append(t.Columns, "cost="+cm.Name())
	}
	for _, info := range locks.Infos() {
		memModels := []rmr.Model{rmr.CC}
		if !info.CCOnly {
			memModels = append(memModels, rmr.DSM)
		}
		for _, model := range memModels {
			row := []string{info.Name, strings.ToLower(model.String())}
			for _, cm := range models {
				res, err := QueueWorkloadCost(model, cm, Algo(info.Name), DefaultW, nprocs)
				if err != nil {
					return nil, fmt.Errorf("%s/%s/cost=%s: %w", info.Name, model, cm.Name(), err)
				}
				row = append(row, latencyCell(res.Sim))
			}
			t.AddRow(row...)
		}
	}
	return t, nil
}

// latencyCell formats a simulated-latency series as "p50/p95/p99".
func latencyCell(s Series) string {
	if len(s) == 0 {
		return "—"
	}
	return fmt.Sprintf("%d/%d/%d",
		s.Percentile(0.50), s.Percentile(0.95), s.Percentile(0.99))
}
