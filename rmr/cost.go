package rmr

import (
	"fmt"
	"sort"
	"strings"
)

// This file is the cost-model seam: it decouples *what the simulator counts*
// (RMRs, the paper's complexity measure) from *what each counted operation
// costs* (simulated time). The charge paths in proc.go classify every
// shared-memory operation into an OpClass and ask the memory's CostModel for
// a simulated-time price; the resulting per-process virtual clock
// (Proc.SimTime) flows through Stats, the flight-recorder ring, and the
// JSONL/Chrome-trace/Prometheus exporters. RMR counts themselves are never
// affected: cost is observe-only, never control flow (asserted by the
// registry-wide cost-transparency conformance subtest).

// OpClass classifies a shared-memory operation for costing purposes. The
// classification is derived from the memory model's coherence bookkeeping at
// charge time, so it is a pure function of the (deterministic) operation
// sequence:
//
//   - an operation that charges no RMR is a ClassLocalHit;
//   - a charged read is a ClassRemoteMiss (CC: the word was not cached here;
//     DSM: the word is remote);
//   - a charged plain write is a ClassInvalidation (CC: it invalidates every
//     other copy; DSM: a remote write);
//   - a charged CAS/F&A/SWAP is a ClassAtomicRMW.
type OpClass uint8

const (
	ClassLocalHit OpClass = iota
	ClassRemoteMiss
	ClassInvalidation
	ClassAtomicRMW

	// NumOpClasses is the number of operation classes; class values are
	// dense in [0, NumOpClasses) and usable as array indices.
	NumOpClasses = 4
)

// String returns the canonical name of the class.
func (c OpClass) String() string {
	switch c {
	case ClassLocalHit:
		return "local-hit"
	case ClassRemoteMiss:
		return "remote-miss"
	case ClassInvalidation:
		return "invalidation"
	case ClassAtomicRMW:
		return "atomic-rmw"
	default:
		return fmt.Sprintf("OpClass(%d)", uint8(c))
	}
}

// CostModel prices classified operations in simulated time. Install one with
// Memory.SetCostModel.
//
// Cost is called with the issuing process id and an attempt ordinal that is
// deterministic for that process: for charged operations it is the process's
// cumulative RMR count after the charge (1, 2, 3, … in program order), so on
// any two runs that issue the same per-process operation sequences — gated
// replays, POR exploration, and the harness's gated queue-drain and
// abort-storm workloads — the model sees identical (proc, attempt, class)
// triples and must return identical costs. Sampling from a cost
// distribution therefore has to be keyed on those arguments (seeded hashing,
// as the built-in models do), never on global state or a free-running RNG.
//
// ClassLocalHit calls carry the process's step ordinal instead, which counts
// free-running spin re-reads and is NOT deterministic across interleavings.
// The built-in models price local hits at zero for exactly that reason; a
// custom model that charges hits retains bit-identical replays only under a
// gated (scheduler-driven) run. See docs/LATENCY.md.
//
// Cost must be safe for concurrent use and must not allocate: it is called
// on the operation fast paths.
type CostModel interface {
	// Name identifies the model in reports and artifacts ("unit",
	// "ccnuma", …).
	Name() string
	// Cost returns the simulated cost of one operation, in simulated
	// nanoseconds (the Unit model returns abstract ticks). It must be
	// deterministic in its arguments and must never be negative.
	Cost(proc int, attempt int64, class OpClass) int64
}

// unitModel is today's accounting: every charged operation costs one tick,
// local hits are free. It is the default; Memory stores it as a nil model so
// the op fast paths stay byte-for-byte identical to the pre-seam code.
type unitModel struct{}

func (unitModel) Name() string { return "unit" }

func (unitModel) Cost(_ int, _ int64, class OpClass) int64 {
	if class == ClassLocalHit {
		return 0
	}
	return 1
}

// Unit is the default cost model: one simulated tick per charged operation,
// zero for local hits. Under Unit, Proc.SimTime equals Proc.RMRs.
var Unit CostModel = unitModel{}

// costHash is a splitmix64-style mix of (seed, proc, attempt, class). It is
// the only randomness source of the built-in models, so equal inputs give
// equal costs on every platform.
func costHash(seed uint64, proc int, attempt int64, class OpClass) uint64 {
	x := seed
	x ^= uint64(proc) * 0x9e3779b97f4a7c15
	x ^= uint64(attempt) * 0xbf58476d1ce4e5b9
	x ^= uint64(class) * 0x94d049bb133111eb
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// quantileSlots is the resolution of a quantileModel's per-class cost table.
const quantileSlots = 8

// quantileModel draws each operation's cost from a fixed per-class table of
// quantileSlots values, indexed by costHash — deterministic seeded quantile
// sampling with no state and no allocation.
type quantileModel struct {
	name string
	seed uint64
	q    [NumOpClasses][quantileSlots]int64
	max  [NumOpClasses]int64 // 0 ⇒ the class is free; skips hashing
}

func (m *quantileModel) Name() string { return m.name }

func (m *quantileModel) Cost(proc int, attempt int64, class OpClass) int64 {
	if m.max[class] == 0 {
		return 0
	}
	return m.q[class][costHash(m.seed, proc, attempt, class)%quantileSlots]
}

// jitterPct spreads a base latency into quantileSlots quantiles (roughly
// p6…p99 of a right-skewed distribution): the same base cost never repeats
// exactly, which keeps simulated percentiles informative, while staying a
// pure table lookup.
var jitterPct = [quantileSlots]int64{82, 90, 95, 100, 104, 112, 130, 170}

func jittered(base int64) [quantileSlots]int64 {
	var q [quantileSlots]int64
	for i, pct := range jitterPct {
		q[i] = base * pct / 100
	}
	return q
}

func (m *quantileModel) setClass(class OpClass, q [quantileSlots]int64) {
	m.q[class] = q
	m.max[class] = 0
	for _, v := range q {
		if v > m.max[class] {
			m.max[class] = v
		}
	}
}

// CCNumaConfig describes the NUMA topology priced by the CCNuma model. All
// latencies are simulated nanoseconds for the median case; each is spread
// into deterministic jitter quantiles.
type CCNumaConfig struct {
	// Sockets is the number of NUMA domains. A cache miss is served from
	// the local socket with probability 1/Sockets and from a remote socket
	// otherwise (home-node placement is uniform under the simulator's flat
	// address space).
	Sockets int
	// LocalMissNS is the median cost of a miss served within the socket
	// (last-level cache or local DRAM).
	LocalMissNS int64
	// RemoteMissNS is the median cost of a miss served from a remote
	// socket (QPI/UPI hop + remote DRAM or cache-to-cache transfer).
	RemoteMissNS int64
	// InvalidationNS is the median cost of a store that must invalidate
	// remote copies (ownership upgrade + cross-socket invalidations).
	InvalidationNS int64
	// RMWNS is the median cost of an atomic read-modify-write that misses
	// (locked bus transaction on an owned-elsewhere line).
	RMWNS int64
}

// DefaultCCNuma is the topology used by NewCCNuma: a 4-socket box with
// published-order-of-magnitude Xeon-class latencies.
var DefaultCCNuma = CCNumaConfig{
	Sockets:        4,
	LocalMissNS:    90,
	RemoteMissNS:   240,
	InvalidationNS: 150,
	RMWNS:          120,
}

// NewCCNuma returns the built-in cache-coherent NUMA cost model with the
// DefaultCCNuma topology, seeded for quantile sampling. Equal seeds give
// bit-identical costs; local hits are free (see CostModel).
func NewCCNuma(seed int64) CostModel {
	return NewCCNumaConfig(DefaultCCNuma, seed)
}

// NewCCNumaConfig returns a CCNuma model over an explicit topology.
func NewCCNumaConfig(cfg CCNumaConfig, seed int64) CostModel {
	if cfg.Sockets < 1 {
		cfg.Sockets = 1
	}
	m := &quantileModel{name: "ccnuma", seed: uint64(seed)}
	// The remote-miss table mixes local- and remote-socket service times in
	// a 1:(Sockets-1) ratio: slot i below localSlots prices a same-socket
	// miss, the rest a cross-socket one.
	localSlots := quantileSlots / cfg.Sockets
	if localSlots < 1 {
		localSlots = 1
	}
	if cfg.Sockets == 1 {
		localSlots = quantileSlots
	}
	lq, rq := jittered(cfg.LocalMissNS), jittered(cfg.RemoteMissNS)
	var miss [quantileSlots]int64
	for i := range miss {
		if i < localSlots {
			miss[i] = lq[i]
		} else {
			miss[i] = rq[i]
		}
	}
	m.setClass(ClassRemoteMiss, miss)
	m.setClass(ClassInvalidation, jittered(cfg.InvalidationNS))
	m.setClass(ClassAtomicRMW, jittered(cfg.RMWNS))
	return m
}

// DsmRemoteConfig describes the network priced by the DsmRemote model:
// every remote reference crosses an interconnect (RDMA-class latencies).
type DsmRemoteConfig struct {
	// ReadNS is the median cost of a remote read (one round trip).
	ReadNS int64
	// WriteNS is the median cost of a remote write.
	WriteNS int64
	// RMWNS is the median cost of a remote atomic (fetch-add/CAS verbs).
	RMWNS int64
}

// DefaultDsmRemote is the network used by NewDsmRemote: RDMA-order
// microsecond-scale remote references.
var DefaultDsmRemote = DsmRemoteConfig{
	ReadNS:  1500,
	WriteNS: 1700,
	RMWNS:   2400,
}

// NewDsmRemote returns the built-in distributed-shared-memory cost model
// with the DefaultDsmRemote network, seeded for quantile sampling.
func NewDsmRemote(seed int64) CostModel {
	return NewDsmRemoteConfig(DefaultDsmRemote, seed)
}

// NewDsmRemoteConfig returns a DsmRemote model over an explicit network.
func NewDsmRemoteConfig(cfg DsmRemoteConfig, seed int64) CostModel {
	m := &quantileModel{name: "dsmremote", seed: uint64(seed)}
	m.setClass(ClassRemoteMiss, jittered(cfg.ReadNS))
	m.setClass(ClassInvalidation, jittered(cfg.WriteNS))
	m.setClass(ClassAtomicRMW, jittered(cfg.RMWNS))
	return m
}

// CostModelNames lists the built-in cost model names accepted by
// NewCostModel, in stable order.
func CostModelNames() []string {
	return []string{"unit", "ccnuma", "dsmremote"}
}

// NewCostModel constructs a built-in cost model by name ("unit", "ccnuma",
// "dsmremote"; the empty string means "unit"). seed keys the quantile
// sampling of the non-unit models and is ignored by Unit.
func NewCostModel(name string, seed int64) (CostModel, error) {
	switch strings.ToLower(name) {
	case "", "unit":
		return Unit, nil
	case "ccnuma":
		return NewCCNuma(seed), nil
	case "dsmremote":
		return NewDsmRemote(seed), nil
	default:
		return nil, fmt.Errorf("rmr: unknown cost model %q (have %s)",
			name, strings.Join(CostModelNames(), ", "))
	}
}

// SimQuantile returns the q-quantile (0 < q <= 1, nearest-rank) of a set of
// simulated durations, without modifying the input. It returns 0 for an
// empty set.
func SimQuantile(samples []int64, q float64) int64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]int64(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(q*float64(len(s)) + 0.9999999)
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}
