package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sublock/internal/harness"
)

// spanCap bounds the spans one buffer keeps. A traced round has at most
// four buffers (two load workers, the server side, the simulator), so it
// keeps at most 2^20 spans. Past the cap a buffer keeps a uniform
// subsample (as sampler does) while its per-name aggregates keep counting
// every span.
const spanCap = 1 << 18

// span is one timed call into a layer, recorded by the benchmark around
// that layer's public entry point. Times are nanoseconds since the
// tracer's epoch, on the monotonic clock.
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req,omitempty"` // the X-Bench-Req id of the request the span served
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// agg totals every span of one name, kept or not.
type agg struct {
	Count, NS int64
}

// spanBuf is one worker's span store. Load workers each own one; the
// server-side handler spans share one, hence the mutex.
type spanBuf struct {
	mu     sync.Mutex
	spans  []span
	stride int
	skip   int
	aggs   map[string]*agg
}

// tracer hands out span ids and buffers for one traced round.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	bufs  []*spanBuf
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) nextID() uint64 { return t.ids.Add(1) }

// buffer returns a new span buffer registered with the tracer.
func (t *tracer) buffer() *spanBuf {
	b := &spanBuf{stride: 1, aggs: map[string]*agg{}}
	t.mu.Lock()
	t.bufs = append(t.bufs, b)
	t.mu.Unlock()
	return b
}

func (b *spanBuf) add(s span) {
	b.mu.Lock()
	a := b.aggs[s.Name]
	if a == nil {
		a = &agg{}
		b.aggs[s.Name] = a
	}
	a.Count++
	a.NS += s.dur()
	if b.skip > 0 {
		b.skip--
	} else {
		if len(b.spans) == spanCap {
			half := b.spans[:0]
			for i := 0; i < len(b.spans); i += 2 {
				half = append(half, b.spans[i])
			}
			b.spans = half
			b.stride *= 2
		}
		b.spans = append(b.spans, s)
		b.skip = b.stride - 1
	}
	b.mu.Unlock()
}

// spans returns every kept span of every buffer, and the aggregates.
func (t *tracer) collect() ([]span, map[string]agg) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var all []span
	aggs := map[string]agg{}
	for _, b := range t.bufs {
		b.mu.Lock()
		all = append(all, b.spans...)
		for name, a := range b.aggs {
			s := aggs[name]
			s.Count += a.Count
			s.NS += a.NS
			aggs[name] = s
		}
		b.mu.Unlock()
	}
	return all, aggs
}

// spanIndex groups kept spans by name and by parent id.
type spanIndex struct {
	byName     map[string][]span
	byParent   map[uint64][]span
	aggregates map[string]agg
}

func (t *tracer) index() *spanIndex {
	all, aggs := t.collect()
	ix := &spanIndex{byName: map[string][]span{}, byParent: map[uint64][]span{}, aggregates: aggs}
	for _, s := range all {
		ix.byName[s.Name] = append(ix.byName[s.Name], s)
		if s.Parent != 0 {
			ix.byParent[s.Parent] = append(ix.byParent[s.Parent], s)
		}
	}
	return ix
}

// selfNS is a span's duration minus the part of it its children cover.
func selfNS(parent span, children []span) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var covered, end int64
	for _, x := range iv {
		if x[0] > end {
			end = x[0]
		}
		if x[1] > end {
			covered += x[1] - end
			end = x[1]
		}
	}
	return parent.dur() - covered
}

// durations returns the durations of the kept spans named name.
func (ix *spanIndex) durations(name string) harness.Series {
	ss := ix.byName[name]
	out := make(harness.Series, len(ss))
	for i, s := range ss {
		out[i] = s.dur()
	}
	return out
}

// meanNS is the mean duration over every span named name, kept or not.
func (ix *spanIndex) meanNS(name string) float64 {
	a := ix.aggregates[name]
	if a.Count == 0 {
		return 0
	}
	return float64(a.NS) / float64(a.Count)
}

// writeSpans writes the kept spans as one JSON object per line.
func (t *tracer) writeSpans(path string) error {
	all, _ := t.collect()
	sort.Slice(all, func(i, j int) bool { return all[i].Start < all[j].Start })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range all {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeLayerTable writes, per workload, every metric BENCHMARK.json
// lists as per-layer that the workload measured.
func writeLayerTable(path string, res *results) error {
	layers := map[string]map[string]metric{}
	for _, w := range res.Workloads {
		layers[w.Name] = map[string]metric{}
		for _, d := range perLayer {
			if m, ok := w.Metrics[d.name]; ok {
				layers[w.Name][d.name] = m
			}
		}
	}
	return writeJSON(path, layers)
}
