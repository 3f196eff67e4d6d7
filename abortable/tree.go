package abortable

import (
	"sync/atomic"

	"sublock/internal/bitops"
)

// treeW is the node arity of the native tree: the machine word width.
const treeW = 64

// outcome classifies a findNext result (the paper's q / ⊥ / ⊤).
type outcome int

const (
	outFound   outcome = iota + 1
	outNone            // ⊥
	outCrossed         // ⊤
)

// treeWord is one tree node word, padded to falseSharingRange: removal
// traffic is fetch-and-add on the word covering the remover's subtree, and
// neighbouring subtrees must not invalidate each other's ascents.
type treeWord struct {
	v atomic.Uint64
	_ [falseSharingRange - 8]byte
}

// tree is the native W=64 abandonment tree (§4 of the paper). Level 0 is
// the (implicit) leaves; levels 1..h hold one atomic word per node.
type tree struct {
	n      int
	h      int
	pow    []int
	levels [][]treeWord
}

// newTree allocates a tree over n leaves and resets it to its initial
// state.
func newTree(n int) *tree {
	t := &tree{n: n, h: 1}
	for size := treeW; size < n; size *= treeW {
		t.h++
	}
	t.pow = make([]int, t.h+1)
	t.pow[0] = 1
	for i := 1; i <= t.h; i++ {
		t.pow[i] = t.pow[i-1] * treeW
	}
	t.levels = make([][]treeWord, t.h+1)
	for l := 1; l <= t.h; l++ {
		t.levels[l] = make([]treeWord, t.pow[t.h-l])
	}
	t.reset()
	return t
}

// reset restores the initial live set {0,…,n−1}: every word is zero
// except that the bits of children lying wholly in the padding (first
// leaf ≥ n) are set. Bit offsets run MSB-first (bitops.Mask), so the
// padding children, being the rightmost, are a word's low bits. The
// caller must own the tree: the clear is a plain write.
func (t *tree) reset() {
	for l := 1; l <= t.h; l++ {
		words := t.levels[l]
		clear(words)
		live := (t.n + t.pow[l-1] - 1) / t.pow[l-1] // children holding a leaf < n
		for idx := live / treeW; idx < len(words); idx++ {
			v := emptyWord
			if k := live - idx*treeW; k > 0 {
				v = uint64(1)<<uint(treeW-k) - 1
			}
			words[idx].v.Store(v)
		}
	}
}

const emptyWord = ^uint64(0)

func (t *tree) nodeOf(p, l int) int   { return p / t.pow[l] }
func (t *tree) offsetOf(p, l int) int { return (p / t.pow[l-1]) % treeW }

// remove abandons leaf p (Algorithm 4.2).
func (t *tree) remove(p int) {
	for lvl := 1; lvl <= t.h; lvl++ {
		j := bitops.Mask(treeW, t.offsetOf(p, lvl))
		snap := t.levels[lvl][t.nodeOf(p, lvl)].v.Add(j) - j // fetch-and-add
		if snap+j != emptyWord {
			break
		}
	}
}

// findNext locates the first live leaf right of p using the adaptive
// sidestepping ascent (Algorithm 4.3), which costs O(log₆₄ A) where A is
// the number of removed leaves right of p — O(1) when none are.
func (t *tree) findNext(p int) (int, outcome) {
	node := t.nodeOf(p, 1)
	offset := t.offsetOf(p, 1)
	var (
		lvl   int
		snap  uint64
		found bool
	)
	for lvl = 1; lvl <= t.h; lvl++ {
		if offset == treeW-1 {
			if node == len(t.levels[lvl])-1 {
				return 0, outNone
			}
			node++ // sidestep to the right cousin
			offset = -1
		}
		snap = t.levels[lvl][node].v.Load()
		if bitops.HasZeroToTheRight(snap, treeW, offset) {
			found = true
			break
		}
		if offset == -1 {
			offset = node%treeW - 1
		} else {
			offset = node % treeW
		}
		node /= treeW
	}
	if !found {
		return 0, outNone
	}
	// Descend toward the leaf.
	index := bitops.FirstZeroToTheRight(snap, treeW, offset)
	child := node*treeW + index
	for l := lvl - 1; l >= 1; l-- {
		snap = t.levels[l][child].v.Load()
		if snap == emptyWord {
			return 0, outCrossed
		}
		child = child*treeW + bitops.FirstZero(snap, treeW)
	}
	return child, outFound
}
