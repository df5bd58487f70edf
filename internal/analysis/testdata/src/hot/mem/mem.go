// Package mem exercises hotalloc on the generic page directory and the
// Memory emit path: hot methods on a generic receiver are matched by
// the receiver's base type name.
package mem

type PageDir[P any] struct {
	last  *P
	pages map[uint64]*P
}

// Get allocates a scratch index per lookup: flagged, although the
// receiver is generic.
func (d *PageDir[P]) Get(idx uint64) *P {
	keys := make([]uint64, 1) // want `make in hot function PageDir.Get`
	keys[0] = idx
	if d.last != nil {
		return d.last
	}
	return d.miss(keys[0])
}

// miss is the documented cold path: materializing a page may allocate.
func (d *PageDir[P]) miss(idx uint64) *P {
	p := new(P)
	if d.pages == nil {
		d.pages = make(map[uint64]*P)
	}
	d.pages[idx] = p
	d.last = p
	return p
}

type Memory struct {
	refs []uint64
	dir  PageDir[[4]byte]
}

// emit appends into the reused ring: exempt.
func (m *Memory) emit(addr uint64) {
	m.refs = append(m.refs, addr)
}

// Touch builds a closure per reference: flagged.
func (m *Memory) Touch(addr uint64) {
	f := func() { m.emit(addr) } // want `closure literal in hot function Memory.Touch`
	f()
}
