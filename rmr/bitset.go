package rmr

import "math/bits"

// bitset is a fixed-capacity set of small non-negative integers, used to
// track which processes hold a cached copy of a word in the CC model when
// the memory serves more than 64 processes.
type bitset []uint64

func newBitset(n int) bitset {
	return make(bitset, (n+63)/64)
}

func (b bitset) has(i int) bool {
	return b[i>>6]&(1<<uint(i&63)) != 0
}

func (b bitset) add(i int) {
	b[i>>6] |= 1 << uint(i&63)
}

// clearExcept removes every element except keep.
func (b bitset) clearExcept(keep int) {
	for i := range b {
		b[i] = 0
	}
	b.add(keep)
}

func (b bitset) clear() {
	for i := range b {
		b[i] = 0
	}
}

func (b bitset) count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// cacheSet is the per-word set of processes holding a valid cached copy
// (CC model). Memories with nprocs ≤ 64 — every configuration the schedule
// explorer and most experiments use — store the set inline in a single
// uint64, so allocating a word allocates nothing; wider memories spill to a
// heap bitset chosen once at allocation time (spill == nil selects the
// inline representation).
type cacheSet struct {
	inline uint64
	spill  *bitset
}

func (c *cacheSet) has(i int) bool {
	if c.spill == nil {
		return c.inline&(1<<uint(i)) != 0
	}
	return c.spill.has(i)
}

func (c *cacheSet) add(i int) {
	if c.spill == nil {
		c.inline |= 1 << uint(i)
		return
	}
	c.spill.add(i)
}

// clearExcept removes every element except keep.
func (c *cacheSet) clearExcept(keep int) {
	if c.spill == nil {
		c.inline = 1 << uint(keep)
		return
	}
	c.spill.clearExcept(keep)
}

func (c *cacheSet) clear() {
	if c.spill == nil {
		c.inline = 0
		return
	}
	c.spill.clear()
}

// count returns the number of processes holding a cached copy.
func (c *cacheSet) count() int {
	if c.spill == nil {
		return bits.OnesCount64(c.inline)
	}
	return c.spill.count()
}
