package rmr

import (
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sort"
)

// Frontier checkpoint/resume: a capped exploration serializes its pending
// work — the unexplored subtree roots of the engine's task pool, plus the
// visited-set contents — into a versioned artifact, and a later run
// resumes from it instead of restarting. Counted replays and frontier
// subtrees exactly partition the choice tree at every checkpoint (workers
// drain their local stacks before a capped exit), so a resume chain covers
// exactly what one uninterrupted run covers: same verdict, same lexmin
// violation, same Explored representatives, same exhaustiveness. There is
// one engine, and a single worker visits schedules in lexicographic
// order, so at Workers=1 the guarantee is total — resumed runs replay the
// exact continuation of the interrupted search, so every count and the
// final artifact are byte-identical to an uninterrupted run's. With racing
// workers the Pruned/VisitedHits split and the depth histogram depend on
// which of two equal-key nodes was keyed first and are not reproducible
// run to run. The deep-explore CI job uses checkpoints to accumulate depth
// across pushes. A shard is a frontier slice (Split) whose merge is exact
// under sleep sets: every subtree carries its own sleep seed.

// CheckpointVersion is the artifact format version; Decode rejects other
// versions with ErrCheckpointVersion so incompatible cached artifacts are
// discarded rather than misread. Version 2 changed the observation-history
// hash (histFold), so version-1 visited sets hold stale fingerprints.
const CheckpointVersion = 2

// ErrCheckpointVersion reports a checkpoint artifact with an incompatible
// format version.
var ErrCheckpointVersion = errors.New("rmr: incompatible checkpoint version")

// ErrCheckpointConfig reports a checkpoint saved under a different
// exploration configuration: its frontier describes another tree.
var ErrCheckpointConfig = errors.New("rmr: checkpoint configuration mismatch")

// Checkpoint is a serialized exploration frontier. Config is an opaque
// caller-chosen key describing everything that shapes the tree outside the
// Explorer knobs (lock, model, process count, ...); RunCheckpoint refuses
// to resume under a different key. The embedded knobs guard the rest.
type Checkpoint struct {
	Version   int    `json:"version"`
	Config    string `json:"config"`
	MaxSteps  int    `json:"max_steps"`
	Reduction int    `json:"reduction"`
	Visited   bool   `json:"visited"`
	Symmetry  bool   `json:"symmetry"`

	// Partial is the accumulated Result over every run so far.
	Partial Result `json:"partial"`
	// Complete marks an exhausted exploration: the frontier is empty and
	// resuming returns Partial unchanged.
	Complete bool `json:"complete"`
	// Frontier lists the pending subtree roots in lexicographic order.
	Frontier []CheckpointTask `json:"frontier,omitempty"`
	// VisitedSet is the base64 little-endian uint64 dump of the visited
	// set, in ascending fingerprint order.
	VisitedSet string `json:"visited_set,omitempty"`
}

// CheckpointTask is one pending subtree root: the forced choice prefix
// and, under sleep sets, the subtree's sleep seed — the sleeping pid mask
// with the sleepers' pending-op footprints listed in ascending pid order.
type CheckpointTask struct {
	Prefix []int          `json:"prefix"`
	Mask   uint64         `json:"mask,omitempty"`
	Pend   []CheckpointOp `json:"pend,omitempty"`
}

// CheckpointOp is a serialized pending-op footprint.
type CheckpointOp struct {
	Addr int32 `json:"addr"`
	Mut  bool  `json:"mut,omitempty"`
}

// Encode serializes the checkpoint.
func (c *Checkpoint) Encode() ([]byte, error) {
	return json.MarshalIndent(c, "", " ")
}

// DecodeCheckpoint parses and validates a checkpoint artifact.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	var probe struct {
		Version int `json:"version"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, fmt.Errorf("rmr: malformed checkpoint: %w", err)
	}
	if probe.Version != CheckpointVersion {
		return nil, fmt.Errorf("%w: artifact v%d, supported v%d",
			ErrCheckpointVersion, probe.Version, CheckpointVersion)
	}
	var c Checkpoint
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("rmr: malformed checkpoint: %w", err)
	}
	return &c, nil
}

// RunCheckpoint is Run with frontier checkpointing. config keys the
// checkpoint to this exploration (see Checkpoint.Config); resume is a
// prior run's checkpoint or nil for a fresh start. When MaxSchedules caps
// the search the returned Checkpoint carries the pending frontier for a
// later resume; when the search exhausts the tree it is marked Complete.
// The returned Result accumulates every chained run's counts (it equals
// the checkpoint's Partial); a completed resume chain covers exactly what
// an uninterrupted run covers, and at Workers=1 its final counts and
// artifact are byte-identical to an uninterrupted run's (see the package
// comment above for the Workers>1 caveat). A property violation returns
// the error and no checkpoint.
func (e *Explorer) RunCheckpoint(nprocs int, body Body, config string, resume *Checkpoint) (Result, *Checkpoint, error) {
	cfg := e.config(nprocs)
	defer releaseVisitedSet(cfg.set)
	var prior Result
	var seed []exTask
	if resume != nil {
		if resume.Version != CheckpointVersion {
			return Result{}, nil, fmt.Errorf("%w: artifact v%d, supported v%d",
				ErrCheckpointVersion, resume.Version, CheckpointVersion)
		}
		if err := e.checkResume(config, cfg, resume); err != nil {
			return Result{}, nil, err
		}
		if resume.Complete {
			return resume.Partial, resume, nil
		}
		prior = resume.Partial
		prior.Exhausted = false
		prior.Depths = append([]int64(nil), prior.Depths...) // add writes into it
		seed = decodeTasks(resume.Frontier, nprocs)
		if cfg.set != nil {
			cfg.set.load(decodeVisitedDump(resume.VisitedSet))
		}
		if e.MaxSchedules > 0 && prior.Replays() >= e.MaxSchedules {
			// The budget was already spent in prior runs; hand the
			// checkpoint back unchanged rather than replaying nothing.
			return prior, resume, nil
		}
	}
	sub := *e
	if sub.MaxSchedules > 0 {
		sub.MaxSchedules -= prior.Replays()
	}
	res, frontier, err := sub.runParallel(nprocs, body, cfg, seed)
	total := prior
	total.Exhausted = true
	total.add(res)
	if err != nil {
		return total, nil, err
	}
	if !total.Exhausted && len(frontier) == 0 {
		// The cap fired exactly as the last pending subtree was counted:
		// the counted replays partition the whole tree, so the exploration
		// is in fact exhausted. Without this, a resume would fall back to
		// re-replaying the root and double-count its cut.
		total.Exhausted = true
	}
	ck := &Checkpoint{
		Version:   CheckpointVersion,
		Config:    config,
		MaxSteps:  cfg.maxSteps,
		Reduction: int(cfg.red),
		Visited:   cfg.vis,
		Symmetry:  cfg.sym,
		Partial:   total,
		Complete:  total.Exhausted,
		Frontier:  encodeTasks(frontier),
	}
	if cfg.set != nil && !ck.Complete {
		ck.VisitedSet = encodeVisitedDump(cfg.set.dump())
	}
	return total, ck, nil
}

// checkResume validates that a checkpoint was saved under this exact
// exploration configuration and that its frontier names real subtrees.
func (e *Explorer) checkResume(config string, cfg exploreConfig, resume *Checkpoint) error {
	switch {
	case resume.Config != config:
		return fmt.Errorf("%w: artifact config %q, run config %q",
			ErrCheckpointConfig, resume.Config, config)
	case resume.MaxSteps != cfg.maxSteps:
		return fmt.Errorf("%w: artifact max-steps %d, run max-steps %d",
			ErrCheckpointConfig, resume.MaxSteps, cfg.maxSteps)
	case resume.Reduction != int(cfg.red) || resume.Visited != cfg.vis || resume.Symmetry != cfg.sym:
		return fmt.Errorf("%w: artifact reductions (red=%d vis=%v sym=%v), run (red=%d vis=%v sym=%v)",
			ErrCheckpointConfig, resume.Reduction, resume.Visited, resume.Symmetry,
			int(cfg.red), cfg.vis, cfg.sym)
	}
	for _, t := range resume.Frontier {
		// A negative choice would reach the scheduler as a reduction cut
		// and silently drop the subtree.
		if slices.ContainsFunc(t.Prefix, func(c int) bool { return c < 0 }) {
			return fmt.Errorf("%w: frontier prefix %v has a negative choice", ErrCheckpointConfig, t.Prefix)
		}
	}
	return nil
}

// Split deals the frontier round-robin into n parts (at least one) that
// resume independently, each with a copy of the visited dump. Part 0 keeps
// Partial, the others start at zero counts, and a part dealt no subtrees
// is Complete, so Merge of the resumed parts' Results is the whole-tree
// Result — exactly, under sleep sets too. Under visited caching each part
// keeps its own set: the merged verdict holds, but a state reached in two
// parts is explored in both.
func (c *Checkpoint) Split(n int) []*Checkpoint {
	parts := make([]*Checkpoint, max(n, 1))
	for i := range parts {
		p := *c
		p.Frontier = nil
		for j := i; j < len(c.Frontier); j += len(parts) {
			p.Frontier = append(p.Frontier, c.Frontier[j])
		}
		if i > 0 {
			p.Partial = Result{}
		}
		if len(p.Frontier) == 0 {
			p.Complete, p.Partial.Exhausted, p.VisitedSet = true, true, ""
		}
		parts[i] = &p
	}
	return parts
}

// encodeTasks serializes frontier tasks, compacting each sleep seed to
// the sleepers' footprints in ascending pid order.
func encodeTasks(tasks []exTask) []CheckpointTask {
	out := make([]CheckpointTask, 0, len(tasks))
	for _, t := range tasks {
		ct := CheckpointTask{Prefix: append([]int(nil), t.prefix...), Mask: t.mask}
		if t.mask != 0 && t.pend != nil {
			for pid := 0; pid < len(t.pend); pid++ {
				if t.mask&(1<<uint(pid)) != 0 {
					ct.Pend = append(ct.Pend, CheckpointOp{Addr: int32(t.pend[pid].addr), Mut: t.pend[pid].mut})
				}
			}
		}
		out = append(out, ct)
	}
	return out
}

// decodeTasks rebuilds engine tasks from a serialized frontier.
func decodeTasks(tasks []CheckpointTask, nprocs int) []exTask {
	out := make([]exTask, 0, len(tasks))
	for _, ct := range tasks {
		t := exTask{prefix: append([]int(nil), ct.Prefix...), mask: ct.Mask}
		if ct.Mask != 0 {
			t.pend = make([]stepAccess, nprocs)
			for i := range t.pend {
				t.pend[i] = unknownAccess
			}
			i := 0
			for pid := 0; pid < nprocs && pid < 64; pid++ {
				if ct.Mask&(1<<uint(pid)) != 0 && i < len(ct.Pend) {
					t.pend[pid] = stepAccess{addr: Addr(ct.Pend[i].Addr), mut: ct.Pend[i].Mut}
					i++
				}
			}
		}
		out = append(out, t)
	}
	if len(out) == 0 {
		// An empty non-complete frontier can only come from a hand-edited
		// artifact; fall back to the whole tree rather than exploring
		// nothing.
		out = append(out, exTask{})
	}
	return out
}

// sortTasks orders frontier tasks lexicographically by prefix so the
// serialized artifact is canonical regardless of worker timing.
func sortTasks(tasks []exTask) {
	sort.Slice(tasks, func(i, j int) bool {
		return lexCompare(tasks[i].prefix, tasks[j].prefix) < 0
	})
}

// encodeVisitedDump packs sorted fingerprints as base64(little-endian
// uint64s).
func encodeVisitedDump(fps []uint64) string {
	buf := make([]byte, 8*len(fps))
	for i, fp := range fps {
		binary.LittleEndian.PutUint64(buf[8*i:], fp)
	}
	return base64.StdEncoding.EncodeToString(buf)
}

// decodeVisitedDump is the inverse of encodeVisitedDump; malformed input
// yields a truncated (never invalid) fingerprint list.
func decodeVisitedDump(s string) []uint64 {
	buf, err := base64.StdEncoding.DecodeString(s)
	if err != nil {
		return nil
	}
	fps := make([]uint64, 0, len(buf)/8)
	for i := 0; i+8 <= len(buf); i += 8 {
		fps = append(fps, binary.LittleEndian.Uint64(buf[i:]))
	}
	return fps
}
