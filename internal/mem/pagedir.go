package mem

// PageDir is a sparse directory of lazily allocated pages of type P,
// indexed by page number. It is the one page-table layout behind every
// address-indexed table of the simulator: Memory's backing store,
// cache.Group's distinct-line set, cache.Sharing's coherence state and
// vm's Fenwick slot map. Its zero value is an empty directory; like
// Memory it is not safe for concurrent use.
//
// Regions sit regionSpan apart, so the indices a run touches form a few
// dense clusters separated by enormous gaps. A flat pointer array sized
// to the highest index would cost megabytes of nil pointers per table
// (allocated, zeroed and scanned by the collector) to hold a few dozen
// pages. PageDir is a two-level radix instead: the top level is indexed
// by idx >> 15, and each second-level slice grows (geometrically, by
// append) only up to the highest index touched in its span. Top-level
// indices at or past 1<<12 fall back to a map, so indices near the top
// of the 64-bit space cost one map entry each.
//
// Get keeps a single-entry cache of the last page it returned: the
// reference streams are strongly local, so consecutive lookups
// overwhelmingly hit one page and cost a compare.
type PageDir[P any] struct {
	lastIdx uint64
	last    *P
	top     [][]*P
	far     map[uint64]*P
	n       int
}

const (
	dirSpanShift = 15
	dirSpanMask  = 1<<dirSpanShift - 1
	dirTopLimit  = 1 << 12
)

// Get returns the page at idx, allocating a zeroed one on first touch.
// The last-page hit is all that is inlined into callers.
func (d *PageDir[P]) Get(idx uint64) *P {
	if idx != d.lastIdx || d.last == nil {
		d.miss(idx)
	}
	return d.last
}

// miss is Get's out-of-line path: the two-level walk (or the far map),
// allocating the page — and growing the slices that lead to it — on
// first touch.
func (d *PageDir[P]) miss(idx uint64) *P {
	hi, lo := idx>>dirSpanShift, idx&dirSpanMask
	var p *P
	switch {
	case hi >= dirTopLimit:
		if p = d.far[idx]; p == nil {
			if d.far == nil {
				d.far = make(map[uint64]*P)
			}
			p = new(P)
			d.far[idx] = p
			d.n++
		}
	case hi < uint64(len(d.top)) && lo < uint64(len(d.top[hi])) && d.top[hi][lo] != nil:
		p = d.top[hi][lo]
	default:
		if hi >= uint64(len(d.top)) {
			d.top = append(d.top, make([][]*P, hi+1-uint64(len(d.top)))...)
		}
		if lo >= uint64(len(d.top[hi])) {
			d.top[hi] = append(d.top[hi], make([]*P, lo+1-uint64(len(d.top[hi])))...)
		}
		p = new(P)
		d.top[hi][lo] = p
		d.n++
	}
	d.lastIdx, d.last = idx, p
	return p
}

// Len returns the number of pages allocated so far.
func (d *PageDir[P]) Len() int { return d.n }

// Each calls f on every allocated page. The order is unspecified (the
// far map's is random), so callers fold order-insensitively.
func (d *PageDir[P]) Each(f func(idx uint64, p *P)) {
	for hi, span := range d.top {
		for lo, p := range span {
			if p != nil {
				f(uint64(hi)<<dirSpanShift|uint64(lo), p)
			}
		}
	}
	for idx, p := range d.far {
		f(idx, p)
	}
}
