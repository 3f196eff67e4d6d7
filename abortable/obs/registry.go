package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"

	"sublock/internal/promtext"
)

// Registry is a named set of Metrics served by one endpoint. The zero
// value is not usable; create with NewRegistry.
type Registry struct {
	mu sync.Mutex
	ms map[string]*Metrics
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry { return &Registry{ms: map[string]*Metrics{}} }

// Register adds m; it fails if a collector with the same name is already
// registered.
func (r *Registry) Register(m *Metrics) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.ms[m.name]; dup {
		return fmt.Errorf("obs: collector %q already registered", m.name)
	}
	r.ms[m.name] = m
	return nil
}

// MustRegister is Register, panicking on error.
func (r *Registry) MustRegister(m *Metrics) {
	if err := r.Register(m); err != nil {
		panic(err)
	}
}

// Snapshots returns a snapshot per registered collector, sorted by name.
func (r *Registry) Snapshots() []*Snapshot {
	r.mu.Lock()
	ms := make([]*Metrics, 0, len(r.ms))
	for _, m := range r.ms {
		ms = append(ms, m)
	}
	r.mu.Unlock()
	sort.Slice(ms, func(i, j int) bool { return ms[i].name < ms[j].name })
	out := make([]*Snapshot, len(ms))
	for i, m := range ms {
		out[i] = m.Snapshot()
	}
	return out
}

// histFamilies maps each exported histogram family to its snapshot field.
var histFamilies = []struct {
	name, help string
	get        func(*Snapshot) HistSnapshot
}{
	{"abortable_acquire_ns", "Latency of granted passages: Enter call to grant.",
		func(s *Snapshot) HistSnapshot { return s.Acquire }},
	{"abortable_abort_ns", "Latency of abandoned attempts: Enter call to unacquired return.",
		func(s *Snapshot) HistSnapshot { return s.Abort }},
	{"abortable_handoff_ns", "Latency of Exit: release, handoff signal, and retirement work.",
		func(s *Snapshot) HistSnapshot { return s.Handoff }},
	{"abortable_park_wait_ns", "Park wake latency: time one tier-3 park slept before waking.",
		func(s *Snapshot) HistSnapshot { return s.Park }},
	{"abortable_pool_borrow_wait_ns", "Latency of completed HandlePool borrows: request to handle in hand.",
		func(s *Snapshot) HistSnapshot { return s.Borrow }},
}

// counterFamilies maps each exported counter family to its snapshot field.
// Tier counters carry a tier label; the rest are plain per-lock counters.
var counterFamilies = []struct {
	name, help string
	labels     []promtext.Label
	get        func(*Snapshot) int64
}{
	{"abortable_wait_tier_total", "Waiting-tier rounds burned, by tier.",
		[]promtext.Label{{Name: "tier", Value: "spin"}}, func(s *Snapshot) int64 { return s.Spins }},
	{"abortable_wait_tier_total", "",
		[]promtext.Label{{Name: "tier", Value: "yield"}}, func(s *Snapshot) int64 { return s.Yields }},
	{"abortable_wait_tier_total", "",
		[]promtext.Label{{Name: "tier", Value: "park"}}, func(s *Snapshot) int64 { return s.Parks }},
	{"abortable_unparks_total", "Parker wakes delivered by signallers.",
		nil, func(s *Snapshot) int64 { return s.Unparks }},
	{"abortable_passages_total", "Finished passages by result.",
		[]promtext.Label{{Name: "result", Value: "acquired"}}, func(s *Snapshot) int64 { return s.Acquires }},
	{"abortable_passages_total", "",
		[]promtext.Label{{Name: "result", Value: "aborted"}}, func(s *Snapshot) int64 { return s.Aborts }},
	{"abortable_doorway_arrivals_total", "Doorway F&A slot claims.",
		nil, func(s *Snapshot) int64 { return s.Arrivals }},
	{"abortable_doorway_closed_total", "Arrivals bounced off a retired instance.",
		nil, func(s *Snapshot) int64 { return s.ClosedGate }},
	{"abortable_switch_waits_total", "Waits for an instance switch (paper lines 57-61).",
		nil, func(s *Snapshot) int64 { return s.SwitchWaits }},
	{"abortable_switches_total", "Instance retirements completed.",
		nil, func(s *Snapshot) int64 { return s.Switches }},
	{"abortable_waiter_retires_total", "Retirements won by a switch-waiter instead of a departure.",
		nil, func(s *Snapshot) int64 { return s.WaiterRetires }},
	{"abortable_pool_borrows_total", "HandlePool borrows.",
		nil, func(s *Snapshot) int64 { return s.Borrows }},
	{"abortable_pool_borrow_waits_total", "HandlePool borrows that blocked for a handle.",
		nil, func(s *Snapshot) int64 { return s.BorrowWaits }},
}

// WritePrometheus writes every registered collector in the Prometheus
// text exposition format (shared with the simulator exporter through
// internal/promtext). Series carry a lock label; families whose series
// are all zero still emit their headers, zero-count histogram series are
// omitted, a histogram's buckets stop after its last populated one (then
// +Inf), and ordering is deterministic.
func (r *Registry) WritePrometheus(w io.Writer) error {
	snaps := r.Snapshots()
	pw := promtext.NewWriter(w)
	for _, hf := range histFamilies {
		pw.Metric(hf.name, hf.help, "histogram")
		for _, s := range snaps {
			h := hf.get(s)
			if h.Count() == 0 {
				continue
			}
			pw.Histogram(hf.name, []promtext.Label{{Name: "lock", Value: s.Name}}, h.Buckets(), h.Sum)
		}
	}
	seen := map[string]bool{}
	for _, cf := range counterFamilies {
		if !seen[cf.name] {
			pw.Metric(cf.name, cf.help, "counter")
			seen[cf.name] = true
		}
		for _, s := range snaps {
			labels := append([]promtext.Label{{Name: "lock", Value: s.Name}}, cf.labels...)
			pw.Sample(cf.name, labels, cf.get(s))
		}
	}
	return pw.Err()
}

// Handler serves r. GET returns the Prometheus text exposition by
// default; ?format=json returns the JSON array of Snapshots.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			enc.Encode(r.Snapshots())
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}
