package mem

import (
	"testing"

	"mallocsim/internal/rng"
)

type testPage [4]uint64

// dirSlots counts the pointer slots a directory holds: its top level,
// every second-level slice and the far map's entries.
func dirSlots[P any](d *PageDir[P]) int {
	n := len(d.top) + len(d.far)
	for _, span := range d.top {
		n += len(span)
	}
	return n
}

// TestPageDirCountAndIdentity: Len counts each distinct page exactly
// once — re-touched pages in the far map included — and Get returns
// the same page (with its contents) for every touch, in both
// territories and up to the top of the 64-bit index space.
func TestPageDirCountAndIdentity(t *testing.T) {
	idxs := []uint64{
		0, 1, dirSpanMask, dirSpanMask + 1, 5 << dirSpanShift,
		dirTopLimit<<dirSpanShift - 1, // last two-level index
		dirTopLimit << dirSpanShift,   // first far-map index
		PageOf(^uint64(0)), ^uint64(0), ^uint64(0) - 1,
	}
	r := rng.New(3)
	for i := 0; i < 200; i++ {
		if r.Bool(0.5) {
			idxs = append(idxs, r.Uint64n(1<<22))
		} else {
			idxs = append(idxs, r.Uint64())
		}
	}
	var d PageDir[testPage]
	want := map[uint64]*testPage{}
	// Three rounds in shuffled orders: the second and third re-touch
	// every page, mostly past the last-page cache.
	for round := 0; round < 3; round++ {
		for i := range idxs {
			j := i + int(r.Uint64n(uint64(len(idxs)-i)))
			idxs[i], idxs[j] = idxs[j], idxs[i]
		}
		for _, idx := range idxs {
			p := d.Get(idx)
			if prev, ok := want[idx]; !ok {
				if *p != (testPage{}) {
					t.Fatalf("new page %#x not zeroed", idx)
				}
				p[0] = idx
				want[idx] = p
			} else if p != prev || p[0] != idx {
				t.Fatalf("round %d: page %#x changed identity or contents", round, idx)
			}
		}
		if d.Len() != len(want) {
			t.Fatalf("round %d: Len = %d, want %d distinct pages", round, d.Len(), len(want))
		}
	}
	if len(d.far) == 0 {
		t.Fatal("no index reached the far map")
	}
	seen := 0
	d.Each(func(idx uint64, p *testPage) {
		seen++
		if want[idx] != p {
			t.Errorf("Each visited page %#x that Get did not return there", idx)
		}
	})
	if seen != len(want) {
		t.Errorf("Each visited %d pages, want %d", seen, len(want))
	}
}

// TestPageDirSlotsFollowTouchedPages: twenty regions spaced 1<<32 bytes
// apart, indexed at page granularity (the densest index space of the
// directory's users), cost pointer slots in proportion to the pages
// touched — not to the 21<<20 slots a flat array up to the last region
// would need.
func TestPageDirSlotsFollowTouchedPages(t *testing.T) {
	var d PageDir[testPage]
	const regions, perRegion = 20, 4
	for i := uint64(1); i <= regions; i++ {
		for k := uint64(0); k < perRegion; k++ {
			d.Get(PageOf(i*regionSpan + k*PageSize))
		}
	}
	touched := regions * perRegion
	if d.Len() != touched {
		t.Fatalf("Len = %d, want %d", d.Len(), touched)
	}
	if slots := dirSlots(&d); slots > 16*touched {
		t.Errorf("%d pointer slots for %d touched pages, want at most %d", slots, touched, 16*touched)
	}
}
