package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path"
	"strconv"
	"sync"
	"time"

	"sublock/abortable/obs"
	"sublock/internal/harness"
	"sublock/lockd"
	"sublock/lockd/client"
)

// reqHeader carries the id of the transport span that sent a request, so
// the handler span recorded on the server side can name its parent.
const reqHeader = "X-Bench-Req"

// lockdShape is one lockd traffic mix.
type lockdShape struct {
	names  int     // size of the name space
	zipfS  float64 // Zipf skew; 0 draws names uniformly
	renewP float64 // probability a cycle renews before releasing
	// warmCycles is how many cycles each client runs before timing starts,
	// after (for a Zipf mix) every name has been acquired once.
	warmCycles int
	server     lockd.Config
}

var (
	hotkeyShape = lockdShape{names: 1024, zipfS: 1.5, renewP: 0.1, warmCycles: 1024}
	// churnShape keeps 16 shards × 64 = 1024 names live, so nearly every
	// acquire of a uniformly drawn name out of a million creates an entry
	// and evicts the least recently used one. The eviction scan visits
	// every live entry of the shard, about 80 ns an entry on the machine in
	// README.md (a cache miss's worth), so a long scan follows the host's
	// memory latency: in two sets of ten runs, interleaved, the spread of
	// the acquire p50 was 18% and 14% with 256 per shard, 13% and 4% with
	// 64.
	churnShape = lockdShape{names: 1_000_000, warmCycles: 1024,
		server: lockd.Config{MaxLocksPerShard: 64}}
)

// leaseOracle checks the lease guarantees from the clients' side: a name
// is granted to at most one client at a time, and each name's fencing
// tokens strictly increase. A client marks the name held on grant and
// clears the mark before it sends the release, so a grant that finds the
// mark set overlapped another client's lease.
type leaseOracle struct {
	mu         sync.Mutex
	held       map[string]bool
	last       map[string]uint64
	violations []string
}

func newLeaseOracle() *leaseOracle {
	return &leaseOracle{held: map[string]bool{}, last: map[string]uint64{}}
}

func (o *leaseOracle) grant(name string, token uint64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.held[name] {
		o.violate("%q granted while another client held it (token %d)", name, token)
	}
	if last, ok := o.last[name]; ok && token <= last {
		o.violate("%q token %d does not exceed the previous token %d", name, token, last)
	}
	o.held[name] = true
	o.last[name] = token
}

func (o *leaseOracle) release(name string) {
	o.mu.Lock()
	o.held[name] = false
	o.mu.Unlock()
}

// violate records a violation; the caller holds o.mu.
func (o *leaseOracle) violate(format string, args ...any) {
	if len(o.violations) < 10 {
		o.violations = append(o.violations, fmt.Sprintf(format, args...))
	}
}

func (o *leaseOracle) err() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if len(o.violations) == 0 {
		return nil
	}
	return fmt.Errorf("lease oracle: %d violation(s), first: %s", len(o.violations), o.violations[0])
}

// callKey keys the call a client request belongs to in its context.
type callKey struct{}

type callInfo struct {
	buf *spanBuf
	id  uint64
}

// spanTransport records one span per HTTP attempt and stamps the attempt's
// id on the request, so the server's handler span can name it as parent.
type spanTransport struct {
	base http.RoundTripper
	tr   *tracer
}

func (t *spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ci, _ := req.Context().Value(callKey{}).(callInfo)
	id := t.tr.nextID()
	req = req.Clone(req.Context())
	req.Header.Set(reqHeader, strconv.FormatUint(id, 10))
	s := span{Name: "transport", ID: id, Parent: ci.id, Req: id, Start: t.tr.now()}
	resp, err := t.base.RoundTrip(req)
	s.End = t.tr.now()
	if ci.buf != nil {
		ci.buf.add(s)
	}
	return resp, err
}

// traceHandler times each request the lockd handler serves, per route.
func traceHandler(h http.Handler, tr *tracer) http.Handler {
	buf := tr.buffer()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, _ := strconv.ParseUint(r.Header.Get(reqHeader), 10, 64)
		s := span{Name: "lockd." + path.Base(r.URL.Path), ID: tr.nextID(), Parent: req, Req: req, Start: tr.now()}
		h.ServeHTTP(w, r)
		s.End = tr.now()
		buf.add(s)
	})
}

// lockdClient is one closed-loop client with its own connection.
type lockdClient struct {
	cl     *client.Client
	rng    *rand.Rand
	pick   func() int
	shape  lockdShape
	oracle *leaseOracle
	tr     *tracer
	buf    *spanBuf
	lat    *sampler

	attempted, failed, cycles int64
}

// call runs one client call, inside a span when the round is traced.
func (c *lockdClient) call(name string, fn func(ctx context.Context) error) error {
	if c.tr == nil {
		return fn(context.Background())
	}
	id := c.tr.nextID()
	ctx := context.WithValue(context.Background(), callKey{}, callInfo{c.buf, id})
	s := span{Name: name, ID: id, Start: c.tr.now()}
	err := fn(ctx)
	s.End = c.tr.now()
	c.buf.add(s)
	return err
}

// cycle runs acquire, an optional renew, and release on one name.
func (c *lockdClient) cycle(name string, timed bool) {
	var ls *client.Lease
	t0 := time.Now()
	err := c.call("client.acquire", func(ctx context.Context) (err error) {
		ls, err = c.cl.Acquire(ctx, name, 0, 0)
		return err
	})
	c.attempted++
	if err != nil {
		c.failed++
		return
	}
	if timed {
		c.lat.add(int64(time.Since(t0)))
	}
	c.oracle.grant(name, ls.Token)
	if c.shape.renewP > 0 && c.rng.Float64() < c.shape.renewP {
		c.attempted++
		if err := c.call("client.renew", func(ctx context.Context) error { return c.cl.Renew(ctx, ls, 0) }); err != nil {
			c.failed++
		}
	}
	c.oracle.release(name)
	c.attempted++
	if err := c.call("client.release", func(ctx context.Context) error { return c.cl.Release(ctx, ls) }); err != nil {
		c.failed++
		return
	}
	c.cycles++
}

func lockdName(i int) string { return "k" + strconv.Itoa(i) }

// runLockd runs one round of a lockd mix: a fresh server behind a
// loopback HTTP listener, one keep-alive connection per client, warm-up,
// then the timed closed loop.
func runLockd(shape lockdShape, cfg roundCfg) (*round, error) {
	t0 := time.Now()
	srv := lockd.New(shape.server)
	defer srv.Close()
	var h http.Handler = srv.Handler()
	if cfg.tr != nil {
		h = traceHandler(h, cfg.tr)
	}
	if cfg.wrap != nil {
		h = cfg.wrap(h)
	}
	ts := httptest.NewServer(h)
	defer ts.Close()

	oracle := newLeaseOracle()
	clients := make([]*lockdClient, loadWorkers())
	for i := range clients {
		tp := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
		defer tp.CloseIdleConnections()
		var rt http.RoundTripper = tp
		c := &lockdClient{
			rng:    rand.New(rand.NewSource(derive(cfg.seed, int64(i)))),
			shape:  shape,
			oracle: oracle,
			lat:    newSampler(sampleCap),
		}
		if cfg.tr != nil {
			c.tr, c.buf = cfg.tr, cfg.tr.buffer()
			rt = &spanTransport{base: rt, tr: cfg.tr}
		}
		c.cl = client.New(ts.URL, client.Config{HTTPClient: &http.Client{Transport: rt}, MaxAttempts: 1})
		if shape.zipfS > 0 {
			z := rand.NewZipf(c.rng, shape.zipfS, 1, uint64(shape.names-1))
			c.pick = func() int { return int(z.Uint64()) }
		} else {
			c.pick = func() int { return c.rng.Intn(shape.names) }
		}
		clients[i] = c
	}

	// Warm-up: with a Zipf mix every name is acquired once, so the whole
	// name space is resident before timing; then each client runs its
	// warm-up cycles.
	each(clients, func(i int, c *lockdClient) {
		if shape.zipfS > 0 {
			for n := i; n < shape.names; n += len(clients) {
				c.cycle(lockdName(n), false)
			}
		}
		for k := 0; k < shape.warmCycles; k++ {
			c.cycle(lockdName(c.pick()), false)
		}
	})
	if err := oracle.err(); err != nil {
		return nil, err
	}
	for _, c := range clients {
		if c.failed > 0 {
			return nil, fmt.Errorf("warm-up: %d of %d operations failed", c.failed, c.attempted)
		}
		c.attempted, c.cycles = 0, 0
	}
	setup := time.Since(t0)

	stats0 := srv.Stats()
	obs0, err := shardSnapshots(srv)
	if err != nil {
		return nil, err
	}
	m := startMeter()
	deadline := time.Now().Add(cfg.window)
	each(clients, func(_ int, c *lockdClient) {
		for time.Now().Before(deadline) {
			c.cycle(lockdName(c.pick()), true)
		}
	})
	mr := m.end()
	stats1 := srv.Stats()
	obs1, err := shardSnapshots(srv)
	if err != nil {
		return nil, err
	}
	if err := oracle.err(); err != nil {
		return nil, err
	}

	rd := &round{setup: setup, meter: mr}
	samplers := make([]*sampler, len(clients))
	for i, c := range clients {
		rd.attempted += c.attempted
		rd.failed += c.failed
		rd.ops += c.cycles
		samplers[i] = c.lat
	}
	rd.lat, rd.latN = merge(samplers...)
	if cfg.tr != nil {
		rd.layers = map[string]float64{}
		ix := cfg.tr.index()
		if err := lockdLayers(ix, rd.layers); err != nil {
			return nil, err
		}
		d := obsDelta(obs0, obs1)
		abortableLayers(d, rd.layers)
		handlerMean := ix.meanNS("lockd.acquire")
		if d.Acquire.Mean() > handlerMean {
			return nil, fmt.Errorf("trace: abortable acquire mean %.0f ns exceeds the acquire handler mean %.0f ns",
				d.Acquire.Mean(), handlerMean)
		}
		rd.layers["lockd.service_self_us_mean"] = (handlerMean - d.Acquire.Mean()) / 1e3
		acq := stats1.Acquires - stats0.Acquires
		if acq > 0 {
			rd.layers["lockd.evictions_per_acquire"] = float64(stats1.Retired-stats0.Retired) / float64(acq)
		}
		rd.layers["lockd.live_locks"] = float64(stats1.Locks)
		rd.layers["lockd.sheds"] = float64(stats1.Sheds + stats1.GlobalSheds - stats0.Sheds - stats0.GlobalSheds)
		rd.layers["lockd.timeouts"] = float64(stats1.Timeouts - stats0.Timeouts)
		rd.layers["lockd.fencing_rejects"] = float64(stats1.FencingRejects - stats0.FencingRejects)
		rd.layers["lockd.expiries"] = float64(stats1.Expiries - stats0.Expiries)
	}
	return rd, nil
}

// each runs fn once per client, each on its own goroutine, and waits.
func each[T any](xs []T, fn func(i int, x T)) {
	var wg sync.WaitGroup
	wg.Add(len(xs))
	for i, x := range xs {
		go func(i int, x T) {
			defer wg.Done()
			fn(i, x)
		}(i, x)
	}
	wg.Wait()
}

// shardSnapshots reads the per-shard abortable collectors the way an
// operator would: from the metrics handler's JSON form.
func shardSnapshots(srv *lockd.Server) ([]*obs.Snapshot, error) {
	rec := httptest.NewRecorder()
	srv.MetricsHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics?format=json", nil))
	var out []*obs.Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		return nil, fmt.Errorf("decode /metrics?format=json: %w", err)
	}
	return out, nil
}

// lockdLayers splits the traced acquire calls into client self time,
// transport self time and handler time, and checks that the three add
// back up to the call.
func lockdLayers(ix *spanIndex, out map[string]float64) error {
	var clientSelf, rttSelf harness.Series
	var sumCall, sumParts float64
	for _, c := range ix.byName["client.acquire"] {
		// Past the span cap a call's children may have been subsampled
		// away; only fully joined calls are split.
		kids := ix.byParent[c.ID]
		if len(kids) == 0 {
			continue
		}
		self := selfNS(c, kids)
		parts := float64(self)
		joined := true
		for _, k := range kids {
			hs := ix.byParent[k.ID]
			if len(hs) == 0 {
				joined = false
				break
			}
			parts += float64(selfNS(k, hs) + hs[0].dur())
		}
		if !joined {
			continue
		}
		clientSelf = append(clientSelf, self)
		for _, k := range kids {
			rttSelf = append(rttSelf, selfNS(k, ix.byParent[k.ID]))
		}
		sumCall += float64(c.dur())
		sumParts += parts
	}
	if sumCall > 0 && (sumParts-sumCall > 0.02*sumCall || sumCall-sumParts > 0.02*sumCall) {
		return fmt.Errorf("trace: acquire calls total %.0f ns but client+transport+handler self times total %.0f ns", sumCall, sumParts)
	}
	calls := ix.aggregates["client.acquire"].Count + ix.aggregates["client.renew"].Count + ix.aggregates["client.release"].Count
	if calls > 0 {
		out["client.attempts_per_call"] = float64(ix.aggregates["transport"].Count) / float64(calls)
	}
	out["client.self_us_p50"] = usOf(clientSelf.Percentile(0.5))
	out["transport.rtt_self_us_p50"] = usOf(rttSelf.Percentile(0.5))
	out["transport.rtt_self_us_p99"] = usOf(rttSelf.Percentile(0.99))
	acq := ix.durations("lockd.acquire")
	out["lockd.acquire_handler_us_p50"] = usOf(acq.Percentile(0.5))
	out["lockd.acquire_handler_us_p99"] = usOf(acq.Percentile(0.99))
	out["lockd.release_handler_us_p50"] = usOf(ix.durations("lockd.release").Percentile(0.5))
	out["lockd.renew_handler_us_p50"] = usOf(ix.durations("lockd.renew").Percentile(0.5))
	return nil
}
