// Package tree implements the W-ary Tree ordered set of §4 of the paper:
// the data structure that tracks which queue slots have been abandoned by
// aborting processes and finds, for a releasing process, the next slot that
// is still waiting.
//
// The tree is static: it has H = ⌈log_W N⌉ levels of internal nodes above N
// (padded to W^H) leaves. Only internal nodes occupy shared memory — one
// W-bit word each, in which the j-th most significant bit is associated with
// the node's j-th child counting from the left. A set bit means every leaf
// in that child's subtree has been abandoned. Leaves are implicit sentinels:
// leaf p "contains" the value p.
//
// The semantics are intentionally not linearizable (§3): FindNext may return
// Crossed (the paper's ⊤) when its descent crosses paths with a concurrent
// Remove ascending the same subtree, in which case the aborting process
// assumes responsibility for the lock handoff.
package tree

import (
	"fmt"

	"sublock/internal/bitops"
	"sublock/internal/mem"
	"sublock/rmr"
)

// Outcome classifies the result of a FindNext search.
type Outcome int

const (
	// Found means a live successor leaf was located.
	Found Outcome = iota + 1
	// None is the paper's ⊥: every possible successor has been abandoned,
	// so the lock has no one to hand off to.
	None
	// Crossed is the paper's ⊤: the search crossed paths with a concurrent
	// Remove and the remover assumes responsibility for the handoff.
	Crossed
)

// String returns the paper's symbol for the outcome.
func (o Outcome) String() string {
	switch o {
	case Found:
		return "found"
	case None:
		return "⊥"
	case Crossed:
		return "⊤"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// Tree is a W-ary abandonment-tracking tree over n leaves. All methods are
// safe for concurrent use by distinct processes; the required usage
// discipline (well-formedness, §5.1) is that each process invokes Remove on
// its own leaf at most once.
type Tree struct {
	w     int   // arity (bits per node word)
	n     int   // live leaves: initially the set is {0,…,n-1}
	h     int   // height: number of internal levels, ≥ 1
	pow   []int // pow[i] = w^i, i in [0, h]
	empty uint64

	// base[l] is the address of the first node word of level l (1-based;
	// base[0] is unused). Level l has w^(h-l) nodes.
	base []rmr.Addr
}

// Config configures a Tree.
type Config struct {
	W int // node arity; 2 ≤ W ≤ 64
	N int // number of processes / queue slots; N ≥ 1
}

// levelLabels holds the Label names of the tree levels, formatted once
// rather than per New: the exhaustive explorer builds a tree per replay.
// W ≥ 2 bounds the height of any tree below 64 levels.
var levelLabels = func() (names [64]string) {
	for l := range names {
		names[l] = fmt.Sprintf("tree/level%d", l)
	}
	return names
}()

// New allocates and initializes a Tree via a. Initialization pre-sets the
// bits of all padding subtrees (leaves ≥ n), so the initial set is exactly
// {0,…,N−1}; per the paper's model, initialization is not charged RMRs.
func New(a mem.Allocator, cfg Config) (*Tree, error) {
	if cfg.W < 2 || cfg.W > bitops.MaxW {
		return nil, fmt.Errorf("tree: arity W=%d outside [2,%d]", cfg.W, bitops.MaxW)
	}
	if cfg.N < 1 {
		return nil, fmt.Errorf("tree: N=%d must be positive", cfg.N)
	}
	t := &Tree{w: cfg.W, n: cfg.N, empty: bitops.Empty(cfg.W)}
	// Height: smallest h ≥ 1 with w^h ≥ n.
	t.h = 1
	size := cfg.W
	for size < cfg.N {
		size *= cfg.W
		t.h++
	}
	t.pow = make([]int, t.h+1)
	t.pow[0] = 1
	for i := 1; i <= t.h; i++ {
		t.pow[i] = t.pow[i-1] * cfg.W
	}
	t.base = make([]rmr.Addr, t.h+1)
	for l := 1; l <= t.h; l++ {
		t.base[l] = a.AllocN(t.nodesAt(l), 0)
	}
	if lb, ok := a.(mem.Labeler); ok {
		for l := 1; l <= t.h; l++ {
			lb.Label(t.base[l], t.nodesAt(l), levelLabels[l])
		}
	}
	t.initPadding(a)
	return t, nil
}

// initPadding pre-sets every bit whose child subtree contains no live leaf.
func (t *Tree) initPadding(a mem.Allocator) {
	for l := 1; l <= t.h; l++ {
		span := t.pow[l-1] // leaves per child subtree at this level
		for idx := 0; idx < t.nodesAt(l); idx++ {
			var v uint64
			for o := 0; o < t.w; o++ {
				firstLeaf := (idx*t.w + o) * span
				if firstLeaf >= t.n {
					v |= bitops.Mask(t.w, o)
				}
			}
			if v != 0 {
				a.Poke(t.addr(l, idx), v)
			}
		}
	}
}

// W returns the node arity.
func (t *Tree) W() int { return t.w }

// N returns the number of leaves in the initial set.
func (t *Tree) N() int { return t.n }

// Height returns H = ⌈log_W N⌉, the number of internal levels.
func (t *Tree) Height() int { return t.h }

// Words returns the number of shared-memory words the tree occupies,
// (W^H − 1)/(W − 1) = O(N/W).
func (t *Tree) Words() int {
	total := 0
	for l := 1; l <= t.h; l++ {
		total += t.nodesAt(l)
	}
	return total
}

// nodesAt returns the number of nodes at internal level l (1-based).
func (t *Tree) nodesAt(l int) int { return t.pow[t.h-l] }

// addr returns the shared word of node idx at level l.
func (t *Tree) addr(l, idx int) rmr.Addr { return t.base[l] + rmr.Addr(idx) }

// nodeOf returns the index, within level l, of leaf p's ancestor
// (the paper's Node(p, l)).
func (t *Tree) nodeOf(p, l int) int { return p / t.pow[l] }

// offsetOf returns the offset of leaf p's level-(l−1) ancestor within its
// level-l ancestor (the paper's Offset(p, l)).
func (t *Tree) offsetOf(p, l int) int { return (p / t.pow[l-1]) % t.w }

// Remove abandons leaf p (Algorithm 4.2). The caller must be the process
// that owns leaf p, and may call it at most once; acc attributes its RMRs.
// Its RMR cost is O(log_W A_t) where A_t is the number of removers so far
// (Claim 20): the ascent continues only while entire subtrees are empty.
func (t *Tree) Remove(acc mem.Ops, p int) {
	for lvl := 1; lvl <= t.h; lvl++ {
		j := bitops.Mask(t.w, t.offsetOf(p, lvl))
		snap := acc.FAA(t.addr(lvl, t.nodeOf(p, lvl)), j)
		if snap+j != t.empty {
			break
		}
	}
}

// FindNext locates the first leaf q > p that has not been abandoned
// (Algorithm 4.1). It returns (q, Found); or (0, None) if all leaves right
// of p are abandoned (⊥); or (0, Crossed) if the descent met a node made
// EMPTY by a Remove it crossed paths with (⊤).
func (t *Tree) FindNext(acc mem.Ops, p int) (int, Outcome) {
	var (
		node, offset, lvl int
		snap              uint64
		found             bool
	)
	for lvl = 1; lvl <= t.h; lvl++ {
		node = t.nodeOf(p, lvl)
		offset = t.offsetOf(p, lvl)
		snap = acc.Read(t.addr(lvl, node))
		if bitops.HasZeroToTheRight(snap, t.w, offset) {
			found = true
			break
		}
	}
	if !found {
		return 0, None // reached the root and found no candidate
	}
	return t.descend(acc, lvl, node, snap, offset)
}

// descend walks from the zero bit found at (lvl, node) down to the leaf,
// shared by FindNext and AdaptiveFindNext (Algorithm 4.1, lines 26–36).
func (t *Tree) descend(acc mem.Ops, lvl, node int, snap uint64, offset int) (int, Outcome) {
	index := bitops.FirstZeroToTheRight(snap, t.w, offset)
	child := node*t.w + index // node index at level lvl-1 (or leaf if lvl==1)
	for l := lvl - 1; l >= 1; l-- {
		snap = acc.Read(t.addr(l, child))
		if snap == t.empty {
			return 0, Crossed // crossed paths with an ascending Remove
		}
		index = bitops.FirstZero(snap, t.w)
		child = child*t.w + index
	}
	return child, Found
}

// AdaptiveFindNext is the sidestepping variant of FindNext (Algorithm 4.3,
// §4.1) whose RMR cost is O(log_W R_p) where R_p is the number of processes
// ≥ p that have invoked Remove (Claim 21): instead of ascending to the root
// when positioned at the rightmost child, it sidesteps to the right cousin
// and only keeps ascending if that cousin's whole subtree is abandoned.
func (t *Tree) AdaptiveFindNext(acc mem.Ops, p int) (int, Outcome) {
	node := t.nodeOf(p, 1)
	offset := t.offsetOf(p, 1)
	var (
		lvl   int
		snap  uint64
		found bool
	)
	for lvl = 1; lvl <= t.h; lvl++ {
		// Invariant: node is the index of a level-lvl node; offset is the
		// position inside it right of which we search (−1 = everywhere).
		if offset == t.w-1 {
			if node == t.nodesAt(lvl)-1 {
				// No right cousin: p's bit is rightmost at this level, so
				// nothing exists to the right of p anywhere in the tree.
				return 0, None
			}
			node++ // sidestep (RightCousin)
			offset = -1
		}
		snap = acc.Read(t.addr(lvl, node))
		if bitops.HasZeroToTheRight(snap, t.w, offset) {
			found = true
			break
		}
		if offset == -1 {
			// We sidestepped into node and found it fully abandoned. Resume
			// the ascent at the parent, but include node's own bit in the
			// search: the Remove that emptied node may not have set node's
			// bit in the parent yet, and plain FindNext would descend into
			// node and return ⊤ in that case — mimic it (§4.1).
			offset = node%t.w - 1
		} else {
			offset = node % t.w // offsetAtParent(node)
		}
		node /= t.w
	}
	if !found {
		return 0, None
	}
	return t.descend(acc, lvl, node, snap, offset)
}

// Live reports whether leaf p's bit at level 1 is clear. It inspects memory
// without charging RMRs and is meant for tests and assertions, not for
// algorithm code (the information is stale the moment it is returned).
func (t *Tree) Live(m *rmr.Memory, p int) bool {
	v := m.Peek(t.addr(1, t.nodeOf(p, 1)))
	return !bitops.Bit(v, t.w, t.offsetOf(p, 1))
}
