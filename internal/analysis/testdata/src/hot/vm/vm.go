// Package vm exercises hotalloc on the StackSim hot set.
package vm

type StackSim struct{ hist []uint64 }

// record grows its histogram by append: exempt.
func (s *StackSim) record(d int) {
	for d >= len(s.hist) {
		s.hist = append(s.hist, 0)
	}
	s.hist[d]++
}

// accessPage allocates a channel per probe: flagged.
func (s *StackSim) accessPage(p uint64) {
	c := make(chan uint64, 1) // want `make in hot function StackSim.accessPage`
	c <- p
}

// Curve is a cold reader: copies allocate freely.
func (s *StackSim) Curve() []uint64 {
	out := make([]uint64, len(s.hist))
	copy(out, s.hist)
	return out
}

type fenwick struct{ tree []int32 }

// add walks the tree in place: clean.
func (f *fenwick) add(i int, delta int32) {
	for ; i < len(f.tree); i += i & -i {
		f.tree[i] += delta
	}
}

// access allocates a scratch slice per probe: flagged.
func (f *fenwick) access(page uint64) int {
	scratch := make([]int32, 4) // want `make in hot function fenwick.access`
	return int(scratch[page&3])
}

// compact is the documented cold helper: growing the slot space may
// allocate.
func (f *fenwick) compact() {
	f.tree = make([]int32, 2*len(f.tree))
}
