package vm

// Fenwick-tree stack-distance engine (Bennett & Kruskal's algorithm,
// the classic fast implementation of stack simulation that the paper's
// VMSIM methodology descends from).
//
// Each distinct page occupies one time slot, the slot of its most
// recent access; a Fenwick (binary indexed) tree over the slots counts
// live slots by prefix sum. A page's stack distance is then the number
// of live slots after its own — n - prefix(slot) — computed in O(log
// cap). Re-accessing a page clears its old slot and claims the next
// fresh one; when the slot space fills, the live slots are compacted
// back to a dense prefix (amortized O(1) per access).
//
// The engine works over flat arrays and finds each page's slot in a
// paged-sparse table directly indexed by page number. It is the engine
// every simulation runs; the move-to-front list in vm.go computes the
// same true LRU stack distances by brute force and serves as its
// oracle in tests.

type fenwick struct {
	tree   []int32  // 1-based Fenwick tree: tree of live-slot flags
	pageOf []uint64 // slot -> page, for compaction
	slots  pageTable
	n      int // live (distinct) pages
	next   int // next unused slot; next <= len(pageOf)
}

const fenwickMinCap = 1 << 10

func newFenwick() *fenwick {
	return &fenwick{
		tree:   make([]int32, fenwickMinCap+1),
		pageOf: make([]uint64, fenwickMinCap),
	}
}

func (f *fenwick) len() int { return f.n }

// access returns the stack distance of page (or -1 if new) and promotes
// it to most recently used.
func (f *fenwick) access(page uint64) int {
	if f.next == len(f.pageOf) {
		// Compact before touching any state for this access: compaction
		// must see a consistent tree/slots pair, so it cannot run
		// between clearing a page's old slot and claiming its new one.
		f.compact()
	}
	dist := -1
	// One combined lookup for the read-modify-write: every access reads
	// the page's slot and then claims a fresh one, so resolving the
	// two-level table once and writing through the pointer halves the
	// table walks on the hot path. Nothing between the read and the
	// write can move the entry (compaction already ran above).
	ref := f.slots.ref(page)
	if s := *ref; s != 0 {
		slot := int(s - 1)
		// Live slots strictly more recent than this page's slot.
		dist = f.n - f.prefix(slot+1)
		f.add(slot+1, -1)
	} else {
		f.n++
	}
	slot := f.next
	f.next++
	f.add(slot+1, 1)
	f.pageOf[slot] = page
	*ref = int32(slot + 1)
	return dist
}

// prefix returns the number of live slots in [0, i) (1-based tree
// index i).
func (f *fenwick) prefix(i int) int {
	var sum int32
	for ; i > 0; i -= i & -i {
		sum += f.tree[i]
	}
	return int(sum)
}

// add adds delta at 1-based tree index i.
func (f *fenwick) add(i int, delta int32) {
	for ; i < len(f.tree); i += i & -i {
		f.tree[i] += delta
	}
}

// compact remaps the live slots to a dense prefix [0, n), preserving
// their order, and rebuilds the tree — growing the slot space when the
// live set occupies more than half of it.
func (f *fenwick) compact() {
	cap := len(f.pageOf)
	for cap < 2*f.n || cap < fenwickMinCap {
		cap *= 2
	}
	// Reuse the arrays when the capacity is unchanged (the steady state:
	// a working set cycling through half the slot space): the forward
	// copy is safe in place because the write index never overtakes the
	// read index, and clearing the tree is cheaper than reallocating it.
	pageOf := f.pageOf
	if cap != len(f.pageOf) {
		pageOf = make([]uint64, cap)
	}
	j := 0
	for slot := 0; slot < f.next; slot++ {
		page := f.pageOf[slot]
		if f.slots.get(page) != int32(slot+1) {
			continue // stale: the page has moved to a later slot
		}
		pageOf[j] = page
		f.slots.set(page, int32(j+1))
		j++
	}
	f.pageOf = pageOf
	f.next = j
	if cap+1 != len(f.tree) {
		f.tree = make([]int32, cap+1)
	} else {
		clear(f.tree)
	}
	for slot := 0; slot < j; slot++ {
		f.add(slot+1, 1)
	}
}

// pageTable maps page numbers to int32 values (slot+1; 0 = absent) with
// the same two-level layout as cache.lineSet: pages of 4096 entries,
// directly indexed below the dense limit, in a map above it. Simulated
// heaps sit in the low few GB of the address space, so the common case
// is one shift, one bounds check and one store.
type pageTable struct {
	dense  []*pageTablePage
	sparse map[uint64]*pageTablePage
}

const (
	pageTableShift      = 12
	pageTableDenseLimit = 1 << 15
)

type pageTablePage [1 << pageTableShift]int32

func (t *pageTable) get(page uint64) int32 {
	idx := page >> pageTableShift
	var p *pageTablePage
	if idx < uint64(len(t.dense)) {
		p = t.dense[idx]
	} else if t.sparse != nil {
		p = t.sparse[idx]
	}
	if p == nil {
		return 0
	}
	return p[page&(1<<pageTableShift-1)]
}

func (t *pageTable) set(page uint64, v int32) {
	idx := page >> pageTableShift
	var p *pageTablePage
	if idx < uint64(len(t.dense)) {
		p = t.dense[idx]
	} else if idx >= pageTableDenseLimit && t.sparse != nil {
		p = t.sparse[idx]
	}
	if p == nil {
		p = t.page(idx)
	}
	p[page&(1<<pageTableShift-1)] = v
}

// ref returns a pointer to the page's entry, allocating its table page
// if needed — one two-level walk for a read-modify-write access.
func (t *pageTable) ref(page uint64) *int32 {
	idx := page >> pageTableShift
	var p *pageTablePage
	if idx < uint64(len(t.dense)) {
		p = t.dense[idx]
	} else if idx >= pageTableDenseLimit && t.sparse != nil {
		p = t.sparse[idx]
	}
	if p == nil {
		p = t.page(idx)
	}
	return &p[page&(1<<pageTableShift-1)]
}

func (t *pageTable) page(idx uint64) *pageTablePage {
	p := new(pageTablePage)
	if idx < pageTableDenseLimit {
		if idx >= uint64(len(t.dense)) {
			// Grow geometrically so increasing page indices don't recopy
			// the pointer table once per new page.
			size := idx + 1
			if min := 2 * uint64(len(t.dense)); size < min {
				size = min
			}
			if size > pageTableDenseLimit {
				size = pageTableDenseLimit
			}
			grown := make([]*pageTablePage, size)
			copy(grown, t.dense)
			t.dense = grown
		}
		t.dense[idx] = p
		return p
	}
	if t.sparse == nil {
		t.sparse = make(map[uint64]*pageTablePage)
	}
	t.sparse[idx] = p
	return p
}
