package lockd

import (
	"io"
	"net/http"
	"strconv"

	"sublock/internal/promtext"
)

// Metrics exposition. Two layers share the /metrics endpoint:
//
//   - lockd_* families below: per-shard held/waiting/table gauges and the
//     robustness counters (lease expiries, sheds, fencing rejections);
//   - the abortable/obs families (abortable_acquire_ns histograms and
//     friends), one collector per shard attached to every named lock in
//     that shard, so acquire-latency histograms come straight off the
//     native lock's observed Enter path.

// shardFamilies maps each per-shard family to its kind and reading.
var shardFamilies = []struct {
	name, help, kind string
	get              func(*shard) int64
}{
	{"lockd_held", "Currently held leases per shard.", "gauge", func(sh *shard) int64 { return sh.held.Load() }},
	{"lockd_waiting", "In-flight acquires per shard (waiter-budget usage).", "gauge", func(sh *shard) int64 { return sh.waiting.Load() }},
	{"lockd_locks", "Live named locks per shard.", "gauge", func(sh *shard) int64 { return int64(sh.locks()) }},
	{"lockd_acquires_total", "Leases granted.", "counter", func(sh *shard) int64 { return sh.acquires.Load() }},
	{"lockd_wait_timeouts_total", "Acquires whose wait budget elapsed.", "counter", func(sh *shard) int64 { return sh.timeouts.Load() }},
	{"lockd_shed_total", "Acquires shed by the shard waiter budget or lock-table cap.", "counter", func(sh *shard) int64 { return sh.sheds.Load() }},
	{"lockd_lease_expiries_total", "Leases reclaimed at expiry (crashed or partitioned holders).", "counter", func(sh *shard) int64 { return sh.expiries.Load() }},
	{"lockd_fencing_rejections_total", "Releases/renews rejected by fencing-token comparison.", "counter", func(sh *shard) int64 { return sh.fencingRejects.Load() }},
	{"lockd_releases_total", "Voluntary releases accepted.", "counter", func(sh *shard) int64 { return sh.releases.Load() }},
	{"lockd_renews_total", "Lease renewals accepted.", "counter", func(sh *shard) int64 { return sh.renews.Load() }},
	{"lockd_locks_retired_total", "Named locks retired (idle TTL or LRU eviction).", "counter", func(sh *shard) int64 { return sh.retired.Load() }},
}

// WriteMetrics writes the lockd families followed by the per-shard
// abortable/obs families in Prometheus text exposition format.
func (s *Server) WriteMetrics(w io.Writer) error {
	pw := promtext.NewWriter(w)
	for _, f := range shardFamilies {
		pw.Metric(f.name, f.help, f.kind)
		for _, sh := range s.shards {
			pw.Sample(f.name, shardLabel(sh.id), f.get(sh))
		}
	}

	pw.Metric("lockd_global_shed_total", "Acquires shed by the global in-flight gate.", "counter")
	pw.Sample("lockd_global_shed_total", nil, s.globalSheds.Load())
	pw.Metric("lockd_inflight", "In-flight requests (global gate usage).", "gauge")
	pw.Sample("lockd_inflight", nil, s.inflight.Load())
	pw.Metric("lockd_draining", "1 while the server is draining.", "gauge")
	var draining int64
	if s.draining.Load() {
		draining = 1
	}
	pw.Sample("lockd_draining", nil, draining)
	if err := pw.Err(); err != nil {
		return err
	}

	return s.obsReg.WritePrometheus(w)
}

func shardLabel(id int) []promtext.Label {
	return []promtext.Label{{Name: "shard", Value: strconv.Itoa(id)}}
}

// MetricsHandler serves WriteMetrics; ?format=json returns the per-shard
// obs snapshots (the lockd counters are available via Stats).
func (s *Server) MetricsHandler() http.Handler {
	obsHandler := s.obsReg.Handler()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("format") == "json" {
			obsHandler.ServeHTTP(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.WriteMetrics(w)
	})
}
