package abortable

import (
	"fmt"
	"math/rand"
	"testing"

	"sublock/internal/bitops"
)

func refFindNext(live []bool, p int) (int, outcome) {
	for q := p + 1; q < len(live); q++ {
		if live[q] {
			return q, outFound
		}
	}
	return 0, outNone
}

func TestTreeHeights(t *testing.T) {
	for _, tt := range []struct{ n, wantH int }{
		{1, 1}, {64, 1}, {65, 2}, {4096, 2}, {4097, 3}, {262144, 3},
	} {
		tr := newTree(tt.n)
		if tr.h != tt.wantH {
			t.Errorf("newTree(%d).h = %d, want %d", tt.n, tr.h, tt.wantH)
		}
	}
}

func TestTreeSequentialModel(t *testing.T) {
	for _, n := range []int{1, 2, 63, 64, 65, 100, 500, 5000} {
		rng := rand.New(rand.NewSource(int64(n)))
		tr := newTree(n)
		live := make([]bool, n)
		for i := range live {
			live[i] = true
		}
		for step := 0; step < 2*n; step++ {
			if p := rng.Intn(n); live[p] && rng.Intn(2) == 0 {
				live[p] = false
				tr.remove(p)
			}
			p := rng.Intn(n)
			q, out := tr.findNext(p)
			wantQ, wantOut := refFindNext(live, p)
			if q != wantQ || out != wantOut {
				t.Fatalf("n=%d findNext(%d) = (%d,%d), want (%d,%d)", n, p, q, out, wantQ, wantOut)
			}
		}
	}
}

func TestTreeRemoveAll(t *testing.T) {
	tr := newTree(130) // three levels of fan-out at W=64? two: 64^2=4096 ≥ 130
	for p := 1; p < 130; p++ {
		tr.remove(p)
	}
	if _, out := tr.findNext(0); out != outNone {
		t.Fatalf("findNext(0) after removing all = %d, want ⊥", out)
	}
}

func TestTreeAdaptiveSidestep(t *testing.T) {
	// p = rightmost leaf of the leftmost 64-leaf block; next live leaf is
	// adjacent in the next block. The adaptive ascent must find it without
	// climbing to the root regardless of n.
	for _, n := range []int{4096, 262144} {
		tr := newTree(n)
		q, out := tr.findNext(63)
		if q != 64 || out != outFound {
			t.Fatalf("n=%d: findNext(63) = (%d,%d), want (64,found)", n, q, out)
		}
	}
}

// TestTreeResetRestoresInitialWords: after any set of leaves is removed,
// reset brings every word back to the padding pattern a new tree has (bit
// o of node idx at level l set iff its first leaf is ≥ n), so a recycled
// instance's tree is indistinguishable from a fresh one.
func TestTreeResetRestoresInitialWords(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 2, 63, 64, 65, 100, 4096, 4097} {
		tr := newTree(n)
		check := func(when string) {
			for l := 1; l <= tr.h; l++ {
				for idx := range tr.levels[l] {
					var want uint64
					for o := 0; o < treeW; o++ {
						if (idx*treeW+o)*tr.pow[l-1] >= n {
							want |= bitops.Mask(treeW, o)
						}
					}
					if got := tr.levels[l][idx].v.Load(); got != want {
						t.Fatalf("n=%d %s: level %d word %d = %#x, want %#x", n, when, l, idx, got, want)
					}
				}
			}
		}
		check("new")
		for _, k := range []int{1, n / 2, n} {
			for p := 0; p < k; p++ {
				tr.remove(p)
			}
			tr.reset()
			check(fmt.Sprintf("after removing leaves below %d", k))
		}
		for _, p := range rng.Perm(n)[:(n+1)/2] {
			tr.remove(p)
		}
		tr.reset()
		check("after removing a random half")
	}
}
