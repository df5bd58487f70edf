// Package cache implements the data-cache simulators used to reproduce
// the paper's cache-locality experiments.
//
// The paper simulates direct-mapped caches with 32-byte blocks at sizes
// from 16 KB to 256 KB (a modified Tycho simulator consuming Pixie
// traces). This package provides the same model — a direct-mapped
// simulator — plus an N-way set-associative LRU simulator as an
// extension (the paper cites Wilson's associativity studies as related
// work), and a Group that feeds one reference stream to many
// configurations in a single pass.
//
// Only data references are simulated; the paper assumes a 0% instruction
// cache miss rate, making its (and our) execution-time predictions
// conservative.
package cache

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"mallocsim/internal/mem"
	"mallocsim/internal/trace"
)

// DefaultLineSize is the paper's cache block size (32 bytes).
const DefaultLineSize = mem.LineSize

// Config describes one cache to simulate.
type Config struct {
	// Size is the total capacity in bytes. Must be a power of two and a
	// multiple of LineSize*Assoc.
	Size uint64
	// LineSize is the block size in bytes (power of two). Defaults to 32.
	LineSize uint64
	// Assoc is the set associativity; 1 (direct-mapped) if zero.
	Assoc int
	// NoWriteAllocate makes write misses bypass the cache (counted as
	// misses but not filling a line). The default is write-allocate,
	// matching the paper's Tycho configuration.
	NoWriteAllocate bool
	// FlushInterval, when non-zero, invalidates the whole cache every
	// that many line accesses, modelling context-switch interference —
	// the effect the paper's §3.2 deliberately excludes ("we
	// intentionally avoid introducing the effects of intermittent cache
	// flushes") and that Mogul & Borg quantify.
	FlushInterval uint64
}

func (c Config) withDefaults() Config {
	if c.LineSize == 0 {
		c.LineSize = DefaultLineSize
	}
	if c.Assoc == 0 {
		c.Assoc = 1
	}
	return c
}

// String renders e.g. "64K/32B direct-mapped" or "16K/32B 4-way".
func (c Config) String() string {
	c = c.withDefaults()
	assoc := "direct-mapped"
	if c.Assoc > 1 {
		assoc = fmt.Sprintf("%d-way", c.Assoc)
	}
	return fmt.Sprintf("%s/%dB %s", sizeStr(c.Size), c.LineSize, assoc)
}

func sizeStr(n uint64) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dM", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dK", n>>10)
	default:
		return fmt.Sprintf("%d", n)
	}
}

// Validate checks the configuration's geometry — the same invariants
// New enforces by panicking — and returns a descriptive error for the
// first violation. Use it to reject externally supplied configurations
// (job specs arriving over the network) before they reach New, where a
// bad geometry is treated as a programmer error.
func (c Config) Validate() error {
	c = c.withDefaults()
	if c.LineSize == 0 || c.LineSize&(c.LineSize-1) != 0 {
		return fmt.Errorf("cache: line size %d not a power of two", c.LineSize)
	}
	if c.Assoc < 1 {
		return fmt.Errorf("cache: associativity must be >= 1")
	}
	lines := c.Size / c.LineSize
	if lines == 0 || c.Size%c.LineSize != 0 {
		return fmt.Errorf("cache: size %d not a multiple of line size %d", c.Size, c.LineSize)
	}
	sets := lines / uint64(c.Assoc)
	if sets == 0 || lines%uint64(c.Assoc) != 0 {
		return fmt.Errorf("cache: %d lines not divisible by associativity %d", lines, c.Assoc)
	}
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d not a power of two", sets)
	}
	return nil
}

// Cache simulates a single cache configuration. It implements
// trace.Sink. The zero value is not usable; call New.
type Cache struct {
	cfg       Config
	lineShift uint
	setMask   uint64
	assoc     int
	// tags holds, per set, assoc line tags maintained in LRU order
	// (index 0 = most recently used). invalidTag marks empty ways;
	// valid tags are packed as line<<1 | dirty — the same packing the
	// group's decomposed line stream uses (line<<1 | writeBit), so the
	// hot hit test is a single XOR: t^packed < 2 iff same line, and
	// invalidTag can never satisfy it (lines fit in 60 bits).
	tags []uint64

	accesses   uint64
	misses     uint64
	writebacks uint64
}

const (
	invalidTag = ^uint64(0)
	dirtyBit   = uint64(1)
)

// New builds a cache simulator for cfg. It panics on invalid geometry
// (these are programmer errors in experiment setup); validate untrusted
// configurations with Config.Validate first.
func New(cfg Config) *Cache {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	lines := cfg.Size / cfg.LineSize
	sets := lines / uint64(cfg.Assoc)
	shift := uint(0)
	for l := cfg.LineSize; l > 1; l >>= 1 {
		shift++
	}
	c := &Cache{
		cfg:       cfg,
		lineShift: shift,
		setMask:   sets - 1,
		assoc:     cfg.Assoc,
		tags:      make([]uint64, lines),
	}
	for i := range c.tags {
		c.tags[i] = invalidTag
	}
	return c
}

// Config returns the cache's configuration (with defaults applied).
func (c *Cache) Config() Config { return c.cfg }

// span returns the first and last line numbers touched by a reference,
// clamping spans that would wrap the 64-bit address space (Addr+Size-1
// overflowing) to the top line so iteration always terminates.
func span(addr uint64, size uint32, shift uint) (first, last uint64) {
	n := uint64(size)
	if n == 0 {
		n = 1
	}
	end := addr + n - 1
	if end < addr {
		end = ^uint64(0)
	}
	return addr >> shift, end >> shift
}

// Ref implements trace.Sink. A reference spanning multiple lines counts
// as one access per line touched.
func (c *Cache) Ref(r trace.Ref) {
	first, last := span(r.Addr, r.Size, c.lineShift)
	write := r.Kind == trace.Write
	if first == last {
		// Single-line references dominate real traces (word accesses
		// within a 32-byte line); skip the span loop entirely.
		c.accessLine(first, write)
		return
	}
	for line := first; ; line++ {
		c.accessLine(line, write)
		if line == last {
			break
		}
	}
}

// Refs implements trace.BatchSink.
func (c *Cache) Refs(batch []trace.Ref) {
	for _, r := range batch {
		c.Ref(r)
	}
}

// Block implements trace.BlockSink: the simulator walks the address and
// kind columns directly, loading sizes only to split line-spanning
// references. Run rows are expanded reference by reference — a lone
// Cache may have flush intervals or no-write-allocate semantics, for
// which every individual access matters; the closed-form run sweep
// lives in Group, which gates it on the features that permit it.
func (c *Cache) Block(b *trace.Block) {
	runs := b.Runs
	for i, addr := range b.Addrs {
		sz := b.Sizes[i]
		write := b.Kinds[i] == trace.Write
		n := uint32(1)
		if runs != nil {
			n = runs[i]
		}
		for ; n > 0; n-- {
			first, last := span(addr, sz, c.lineShift)
			if first == last {
				c.accessLine(first, write)
			} else {
				for line := first; ; line++ {
					c.accessLine(line, write)
					if line == last {
						break
					}
				}
			}
			addr += uint64(sz)
		}
	}
}

// accessLineRun folds count consecutive accesses to one line (write
// true if any of them was a store) into a single probe plus a bulk
// access count. Exact only for write-allocate caches with no flush
// interval: after the first access the line is resident whatever the
// probe's outcome, so accesses 2..count hit and can only set the dirty
// bit — which the folded write flag already does. Group.replay gates
// callers on exactly those conditions (rleOK).
func (c *Cache) accessLineRun(line uint64, write bool, count uint64) {
	c.accesses += count - 1
	c.accessLine(line, write)
}

func (c *Cache) accessLine(line uint64, write bool) {
	c.accesses++
	if c.cfg.FlushInterval != 0 && c.accesses%c.cfg.FlushInterval == 0 {
		c.invalidate()
	}
	noFill := write && c.cfg.NoWriteAllocate
	packed := line << 1
	if write {
		packed |= dirtyBit
	}
	set := line & c.setMask
	if c.assoc == 1 {
		// Direct-mapped fast path.
		t := c.tags[set]
		if t^packed < 2 {
			c.tags[set] = t | packed&dirtyBit
			return
		}
		c.misses++
		if !noFill {
			if t != invalidTag && t&dirtyBit != 0 {
				c.writebacks++
			}
			c.tags[set] = packed
		}
		return
	}
	ways := c.tags[set*uint64(c.assoc) : (set+1)*uint64(c.assoc)]
	for i, t := range ways {
		if t^packed < 2 {
			// Hit: move to front (LRU order maintenance).
			t |= packed & dirtyBit
			copy(ways[1:i+1], ways[:i])
			ways[0] = t
			return
		}
	}
	// Miss: evict LRU (last way), insert at front.
	c.misses++
	if !noFill {
		if lru := ways[len(ways)-1]; lru != invalidTag && lru&dirtyBit != 0 {
			c.writebacks++
		}
		copy(ways[1:], ways[:len(ways)-1])
		ways[0] = packed
	}
}

func (c *Cache) invalidate() {
	for i := range c.tags {
		if t := c.tags[i]; t != invalidTag && t&dirtyBit != 0 {
			c.writebacks++
		}
		c.tags[i] = invalidTag
	}
}

// Accesses returns the number of line accesses simulated.
func (c *Cache) Accesses() uint64 { return c.accesses }

// Misses returns the number of misses.
func (c *Cache) Misses() uint64 { return c.misses }

// Writebacks returns the number of dirty lines evicted (write-back bus
// traffic beyond line fills). Invalidations (Reset, FlushInterval) also
// write dirty lines back.
func (c *Cache) Writebacks() uint64 { return c.writebacks }

// MissRate returns misses/accesses, or 0 when empty.
func (c *Cache) MissRate() float64 {
	if c.accesses == 0 {
		return 0
	}
	return float64(c.misses) / float64(c.accesses)
}

// Reset clears contents and counters.
func (c *Cache) Reset() {
	c.invalidate()
	c.accesses = 0
	c.misses = 0
	c.writebacks = 0
}

// Result summarizes one simulated cache after a run.
type Result struct {
	Config   Config
	Accesses uint64
	Misses   uint64
	// ColdLines is the number of distinct lines referenced during the
	// run; the first access to each necessarily misses in any cache, so
	// this is the cold-miss count (identical across configurations).
	ColdLines uint64
}

// MissRate returns the overall miss ratio.
func (r Result) MissRate() float64 {
	if r.Accesses == 0 {
		return 0
	}
	return float64(r.Misses) / float64(r.Accesses)
}

// ConflictMisses returns misses beyond the cold (compulsory) misses.
func (r Result) ConflictMisses() uint64 {
	if r.Misses < r.ColdLines {
		return 0
	}
	return r.Misses - r.ColdLines
}

// lineSet tracks distinct line numbers with a sparse paged bitset:
// 4096-line (512-byte) pages allocated on demand. Pages below
// lineSetDenseLimit live in a directly-indexed slice (one bounds check
// and a load — the common case, since simulated heaps sit in the low
// few GB of the address space); pages above it fall back to a map.
// Compared with map[uint64]struct{} this replaces a hash+insert per
// line access with a shift, an array index and a bit test, and shrinks
// the footprint from ~48 bytes to one bit per distinct line.
type lineSet struct {
	dense  []*lineSetPage
	sparse map[uint64]*lineSetPage
	// Single-entry page cache: reference streams are strongly local, so
	// consecutive adds overwhelmingly hit one page; caching it turns the
	// common case into a compare plus the bit test.
	lastIdx uint64
	last    *lineSetPage
}

const (
	lineSetPageShift = 12 // 4096 lines per page

	// lineSetDenseLimit caps the directly-indexed page table: 2^20
	// pages × 4096 lines × 32-byte lines = the first 128 GB of address
	// space, at a worst-case cost of 8 MB of page pointers (the slice
	// grows only to the highest index actually referenced). The limit
	// must clear mem's region layout — bases at multiples of 1<<32 —
	// for several regions, or every lookup decays to the sparse map.
	lineSetDenseLimit = 1 << 20
)

type lineSetPage [1 << (lineSetPageShift - 6)]uint64

func newLineSet() *lineSet {
	return &lineSet{}
}

// add marks line as seen. The distinct count is not maintained here —
// the unconditional OR keeps the per-access cost at a shift, an index
// and a store; distinct() recovers the count by popcount when a reader
// (end-of-run results, a sample capture) actually wants it.
func (s *lineSet) add(line uint64) {
	idx := line >> lineSetPageShift
	p := s.last
	if p == nil || idx != s.lastIdx {
		p = nil
		if idx < uint64(len(s.dense)) {
			p = s.dense[idx]
		}
		if p == nil {
			p = s.page(idx)
		}
		s.lastIdx, s.last = idx, p
	}
	p[(line>>6)&(uint64(len(p))-1)] |= uint64(1) << (line & 63)
}

// addRange marks every line in [first, last] as seen — equivalent to
// calling add on each, but setting whole 64-bit bitmap words at a time,
// so a contiguous run of lines costs O(words) instead of O(lines).
func (s *lineSet) addRange(first, last uint64) {
	for line := first; ; {
		idx := line >> lineSetPageShift
		p := s.last
		if p == nil || idx != s.lastIdx {
			p = nil
			if idx < uint64(len(s.dense)) {
				p = s.dense[idx]
			}
			if p == nil {
				p = s.page(idx)
			}
			s.lastIdx, s.last = idx, p
		}
		end := (idx+1)<<lineSetPageShift - 1
		if end > last {
			end = last
		}
		wFirst := (line >> 6) & (uint64(len(p)) - 1)
		wLast := (end >> 6) & (uint64(len(p)) - 1)
		loMask := ^uint64(0) << (line & 63)
		hiMask := ^uint64(0) >> (63 - end&63)
		if wFirst == wLast {
			p[wFirst] |= loMask & hiMask
		} else {
			p[wFirst] |= loMask
			for w := wFirst + 1; w < wLast; w++ {
				p[w] = ^uint64(0)
			}
			p[wLast] |= hiMask
		}
		if end == last {
			return
		}
		line = end + 1
	}
}

// empty reports whether no line has ever been added (pages are only
// allocated by add, so page presence is membership evidence).
func (s *lineSet) empty() bool { return len(s.dense) == 0 && len(s.sparse) == 0 }

// distinct counts the set bits across all pages: the number of distinct
// lines added. O(allocated pages), called only from result assembly.
func (s *lineSet) distinct() uint64 {
	var n uint64
	for _, p := range s.dense {
		if p != nil {
			for _, w := range p {
				n += uint64(bits.OnesCount64(w))
			}
		}
	}
	//lint:allow determinism popcount sum is order-insensitive
	for _, p := range s.sparse {
		for _, w := range p {
			n += uint64(bits.OnesCount64(w))
		}
	}
	return n
}

// page allocates (and registers) the page covering idx — the slow path
// of add, kept out of line so add itself stays small and inlinable.
func (s *lineSet) page(idx uint64) *lineSetPage {
	if idx < lineSetDenseLimit {
		if idx >= uint64(len(s.dense)) {
			// Grow geometrically: region layouts touch page indices in
			// increasing order, and growing to exactly idx+1 each time
			// would recopy the whole pointer table per new page.
			size := idx + 1
			if min := 2 * uint64(len(s.dense)); size < min {
				size = min
			}
			if size > lineSetDenseLimit {
				size = lineSetDenseLimit
			}
			grown := make([]*lineSetPage, size)
			copy(grown, s.dense)
			s.dense = grown
		}
		p := new(lineSetPage)
		s.dense[idx] = p
		return p
	}
	p := s.sparse[idx]
	if p == nil {
		p = new(lineSetPage)
		if s.sparse == nil {
			s.sparse = make(map[uint64]*lineSetPage)
		}
		s.sparse[idx] = p
	}
	return p
}

// Group feeds one reference stream to several cache configurations and
// tracks the distinct-line (cold miss) count once for all of them. It
// implements trace.Sink, trace.BatchSink and trace.BlockSink: columnar
// blocks take the fastest path, decomposing every address into a
// run-length-collapsed cache-line stream once and replaying that stream
// across all member configurations.
type Group struct {
	caches []*Cache
	// seen tracks distinct line numbers (the shared cold-miss count).
	seen      *lineSet
	lineShift uint
	// fused is true when every member is a plain direct-mapped
	// write-allocate cache with no flush interval — the paper's exact
	// configuration — letting accessLine run one fused loop over the
	// members' tag arrays instead of a virtual call per cache.
	fused bool
	// rleOK is true when every member is write-allocate with no flush
	// interval: consecutive accesses to one cache line may then be
	// collapsed to a single probe with a bulk access count (see
	// Cache.accessLineRun for why this is exact). Unlike fused it does
	// not require direct mapping.
	rleOK bool

	// Decomposed line stream of the block being replayed by a non-fused
	// group, reused across blocks. runLines packs line<<1|writeBit (the
	// write bit of a collapsed run is the OR of its members); runCounts
	// holds how many consecutive accesses each entry folds (empty unless
	// rleOK).
	runLines  []uint64
	runCounts []uint32

	// probes is fusedScan's flattened view of the member caches — tag
	// array, scan-local miss/writeback accumulators and the member's
	// index side by side in one contiguous array — so the per-line
	// probe loop touches no per-cache structs. Ordered by ascending set
	// count (probeOrder) so probeEntry can stop a read probe at the
	// first hit. Refreshed at every scan; nil unless fused.
	probes []fusedProbe
	// probeOrder holds the member indices sorted by ascending set
	// count (stable, so equal-sized members keep config order).
	probeOrder []int
}

// NewGroup builds a group over the given configurations. All configs
// must share one line size (the paper's experiments all use 32 bytes).
func NewGroup(cfgs ...Config) *Group {
	if len(cfgs) == 0 {
		panic("cache: empty group")
	}
	g := &Group{seen: newLineSet(), fused: true, rleOK: true}
	var lineSize uint64
	for _, cfg := range cfgs {
		c := New(cfg)
		if lineSize == 0 {
			lineSize = c.cfg.LineSize
			g.lineShift = c.lineShift
		} else if c.cfg.LineSize != lineSize {
			panic("cache: group configs must share a line size")
		}
		if c.cfg.NoWriteAllocate || c.cfg.FlushInterval != 0 {
			g.rleOK = false
		}
		if c.assoc != 1 || !g.rleOK {
			g.fused = false
		}
		g.caches = append(g.caches, c)
	}
	if g.fused {
		g.probes = make([]fusedProbe, len(g.caches))
		g.probeOrder = make([]int, len(g.caches))
		for i := range g.probeOrder {
			g.probeOrder[i] = i
		}
		sort.SliceStable(g.probeOrder, func(a, b int) bool {
			return g.caches[g.probeOrder[a]].setMask < g.caches[g.probeOrder[b]].setMask
		})
	}
	return g
}

// fusedProbe is one member's state in fusedScan's probe loop.
type fusedProbe struct {
	tags               []uint64
	idx                int // index of the member cache in g.caches
	misses, writebacks uint64
}

// Ref implements trace.Sink. The line decomposition is done once here —
// every member cache shares the group's line size, so each gets the
// pre-split line number instead of redoing the shift/mask work.
func (g *Group) Ref(r trace.Ref) {
	first, last := span(r.Addr, r.Size, g.lineShift)
	write := r.Kind == trace.Write
	if first == last {
		g.accessLine(first, write)
		return
	}
	for line := first; ; line++ {
		g.accessLine(line, write)
		if line == last {
			break
		}
	}
}

func (g *Group) accessLine(line uint64, write bool) {
	g.seen.add(line)
	if g.fused {
		// Every member is plain direct-mapped write-allocate: run the
		// direct-mapped fast path inline over all tag arrays, skipping
		// the per-cache call and its feature branches.
		packed := line << 1
		if write {
			packed |= dirtyBit
		}
		for _, c := range g.caches {
			c.accesses++
			set := line & c.setMask
			t := c.tags[set]
			if t^packed < 2 {
				c.tags[set] = t | packed&dirtyBit
				continue
			}
			c.misses++
			if t != invalidTag && t&dirtyBit != 0 {
				c.writebacks++
			}
			c.tags[set] = packed
		}
		return
	}
	for _, c := range g.caches {
		c.accessLine(line, write)
	}
}

// Refs implements trace.BatchSink.
func (g *Group) Refs(batch []trace.Ref) {
	for _, r := range batch {
		g.Ref(r)
	}
}

// Block implements trace.BlockSink. A fused group probes every member
// in one pass over the block (fusedScan); any other group decomposes
// the block into a run-length-collapsed line stream once and replays
// that stream across every member. Line numbers are packed as
// line<<1|writeBit, which requires at least one free top bit — with a
// degenerate 1-byte line size the per-reference path is used instead.
func (g *Group) Block(b *trace.Block) {
	if g.lineShift == 0 {
		runs := b.Runs
		for i := 0; i < b.Len(); i++ {
			r := b.At(i)
			n := uint32(1)
			if runs != nil {
				n = runs[i]
			}
			for ; n > 0; n-- {
				g.Ref(r)
				r.Addr += uint64(r.Size)
			}
		}
		return
	}
	if g.fused {
		g.fusedScan(b)
		return
	}
	g.decompose(b)
	g.replay()
}

// runAligned reports whether one run row decomposes in closed form: the
// element size must be a nonzero power of two no larger than the line
// size (hence a divisor of it), the start address a multiple of it — so
// no element spans a line boundary and per-line element counts are
// exact quotients — and the run must not wrap the 64-bit address space.
// Producers honouring the Block contract only emit such rows; anything
// else is expanded element by element in place.
func runAligned(addr, sz, n uint64, shift uint) bool {
	return sz != 0 && sz&(sz-1) == 0 && sz <= uint64(1)<<shift &&
		addr&(sz-1) == 0 && sz*n-1 <= ^uint64(0)-addr
}

// fusedScan is the block path of an all-direct-mapped write-allocate
// group: each collapsed line run probes every member the moment it
// closes, so the block never materializes an intermediate line stream.
// All counter updates match per-reference delivery exactly.
func (g *Group) fusedScan(b *trace.Block) {
	seen := g.seen
	caches := g.caches
	shift := g.lineShift
	runs := b.Runs
	// Refresh the flattened probe view (tag slices may have been
	// replaced by Reset) and zero the scan-local counters. The view is
	// ordered smallest member first so probeEntry can early-exit read
	// probes on the inclusion property.
	for i, k := range g.probeOrder {
		g.probes[i] = fusedProbe{tags: caches[k].tags, idx: k}
	}
	var total uint64
	var cur uint64
	have := false
	for i, addr := range b.Addrs {
		// Kind is 0 for reads and 1 for writes: the packed write bit
		// is the kind itself (masked so a malformed kind cannot reach
		// the line bits).
		w := uint64(b.Kinds[i]) & 1
		if runs != nil && runs[i] != 1 {
			n := uint64(runs[i])
			if n == 0 {
				continue
			}
			sz := uint64(b.Sizes[i])
			if !runAligned(addr, sz, n, shift) {
				// Contract-violating run row: expand it element by
				// element through the span path (preserving order and
				// the current collapse state).
				for ; n > 0; n-- {
					first, last := span(addr, b.Sizes[i], shift)
					total += last - first + 1
					for line := first; ; line++ {
						if have && cur>>1 == line {
							cur |= w
						} else {
							if have {
								g.probeEntry(cur)
							}
							cur, have = line<<1|w, true
						}
						if line == last {
							break
						}
					}
					addr += sz
				}
				continue
			}
			// Aligned run row: every element lies within one line, so
			// the row is n single-line accesses walking lines
			// first..last contiguously. Only the line transitions cost
			// probes; the n accesses are part of the bulk total, and
			// the distinct-line set takes the whole range in one call
			// (re-adding the first line on a merge is an idempotent OR).
			total += n
			first := addr >> shift
			last := (addr + sz*n - 1) >> shift
			seen.addRange(first, last)
			if have && cur>>1 == first {
				cur |= w
			} else {
				if have {
					g.probeEntry(cur)
				}
				cur, have = first<<1|w, true
			}
			if first != last {
				// Lines first..last-1 all close here: probe the first
				// (whose entry may carry a merged-in write bit), then
				// the interior lines in order. The last line stays
				// open for merging.
				g.probeEntry(cur)
				g.probeRun((first+1)<<1|w, last-first-1)
				cur = last<<1 | w
			}
			continue
		}
		first, last := span(addr, b.Sizes[i], shift)
		total += last - first + 1
		if first == last {
			if have && cur>>1 == first {
				cur |= w
				continue
			}
			if have {
				g.probeEntry(cur)
			}
			cur, have = first<<1|w, true
			continue
		}
		for line := first; ; line++ {
			if have && cur>>1 == line {
				cur |= w
			} else {
				if have {
					g.probeEntry(cur)
				}
				cur, have = line<<1|w, true
			}
			if line == last {
				break
			}
		}
	}
	if have {
		g.probeEntry(cur)
	}
	for _, c := range caches {
		c.accesses += total
	}
	for i := range g.probes {
		p := &g.probes[i]
		caches[p.idx].misses += p.misses
		caches[p.idx].writebacks += p.writebacks
	}
}

// probeEntry probes one closed line entry against every member,
// smallest first, exploiting the inclusion property of nested
// direct-mapped caches: a larger member's set index refines a smaller
// member's (both are low-bit masks of the line number), so a line's
// congruence class in the large cache is a subset of its class in the
// small cache — if the line was its class's most recent access in the
// small cache it certainly was in the subclass, hence resident in the
// large cache too. Consequences used here:
//
//   - A read hit at any level implies hits at every larger level,
//     where a read hit changes no state (no LRU, no dirty merge) — the
//     probe stops at the first hit.
//   - Dirty state is inclusive as well (the write that dirtied a line
//     in a small member hit — and dirtied — it in every larger one),
//     so a write hit on an already-dirty line stops the same way.
//   - A hit at the smallest level means the line was installed by an
//     earlier access, which already recorded it in the distinct-line
//     set — only a miss at the smallest level needs seen.add.
//
// The shortcuts assume every member has seen the same access stream
// since its last reset, which Group guarantees for all delivery
// through its sink interface. Probes happen in line-close order, so
// each member's counters and tag state are identical to the unfused
// per-reference simulation. Accesses are charged in bulk by fusedScan.
func (g *Group) probeEntry(e uint64) {
	probes := g.probes
	if e&dirtyBit == 0 {
		for k := range probes {
			p := &probes[k]
			tags := p.tags
			if len(tags) == 0 {
				continue
			}
			// Direct mapped: the set mask is len(tags)-1, and deriving
			// it from the length drops the bounds check.
			set := (e >> 1) & uint64(len(tags)-1)
			t := tags[set]
			if t^e < 2 {
				return // read hit: every larger member hits, no-op
			}
			p.misses++
			if t != invalidTag && t&dirtyBit != 0 {
				p.writebacks++
			}
			tags[set] = e
			if k == 0 {
				g.seen.add(e >> 1)
			}
		}
		return
	}
	for k := range probes {
		p := &probes[k]
		tags := p.tags
		if len(tags) == 0 {
			continue
		}
		set := (e >> 1) & uint64(len(tags)-1)
		t := tags[set]
		if t^e < 2 {
			if t&dirtyBit != 0 {
				return // dirty hit: the rest are dirty hits, no-op
			}
			tags[set] = t | dirtyBit
			continue
		}
		p.misses++
		if t != invalidTag && t&dirtyBit != 0 {
			p.writebacks++
		}
		tags[set] = e
		if k == 0 {
			g.seen.add(e >> 1)
		}
	}
}

// probeRun probes n consecutive closed line entries starting at e0
// (packed stride 2). Callers have already range-added the lines to the
// distinct-line set, so the per-entry add on a smallest-level miss is
// an idempotent re-add.
func (g *Group) probeRun(e0, n uint64) {
	for ; n > 0; n-- {
		g.probeEntry(e0)
		e0 += 2
	}
}

// decompose splits every reference in the block into cache-line
// accesses for the general (non-fused) replay, collapsing consecutive
// accesses to the same line into one entry when the group's members
// allow it (rleOK; the write bit of a collapsed entry is the OR of its
// members' write bits). The resulting runLines/runCounts stream replays
// identically across every member, hoisting the span/shift work that
// the per-reference path repeats per config per ref. Distinct-line
// tracking happens here, at run-entry creation (one add per emitted
// entry — identical to a pass over the finished stream, without the
// extra traversal).
func (g *Group) decompose(b *trace.Block) {
	lines := g.runLines[:0]
	counts := g.runCounts[:0]
	seen := g.seen
	shift := g.lineShift
	runs := b.Runs
	if g.rleOK {
		var cur uint64
		var curN uint32
		have := false
		for i, addr := range b.Addrs {
			w := uint64(b.Kinds[i]) & 1
			if runs != nil && runs[i] != 1 {
				n := runs[i]
				if n == 0 {
					continue
				}
				sz := uint64(b.Sizes[i])
				if !runAligned(addr, sz, uint64(n), shift) {
					// Contract-violating run row: expand element by
					// element through the span path, preserving the
					// collapse state.
					for ; n > 0; n-- {
						first, last := span(addr, b.Sizes[i], shift)
						for line := first; ; line++ {
							if have && cur>>1 == line && curN < math.MaxUint32 {
								cur |= w
								curN++
							} else {
								if have {
									lines = append(lines, cur)
									counts = append(counts, curN)
								}
								cur, curN, have = line<<1|w, 1, true
								seen.add(line)
							}
							if line == last {
								break
							}
						}
						addr += sz
					}
					continue
				}
				// Aligned run row: n single-line accesses walking lines
				// first..last, with exact per-line counts computed in
				// closed form instead of element by element.
				first := addr >> shift
				last := (addr + sz*uint64(n) - 1) >> shift
				seen.addRange(first, last)
				firstCnt := n
				if first != last {
					firstCnt = uint32((((first + 1) << shift) - addr) / sz)
				}
				if have && cur>>1 == first && curN <= math.MaxUint32-firstCnt {
					cur |= w
					curN += firstCnt
				} else {
					if have {
						lines = append(lines, cur)
						counts = append(counts, curN)
					}
					cur, curN, have = first<<1|w, firstCnt, true
				}
				if first == last {
					continue
				}
				// wpl (elements per full line) cannot truncate in the
				// uint32 cast whenever a full middle line exists: its
				// count is bounded by the row's uint32 run length.
				wpl := uint32((uint64(1) << shift) / sz)
				rem := n - firstCnt
				for line := first + 1; ; line++ {
					cnt := wpl
					if line == last {
						cnt = rem
					}
					lines = append(lines, cur)
					counts = append(counts, curN)
					cur, curN = line<<1|w, cnt
					if line == last {
						break
					}
					rem -= wpl
				}
				continue
			}
			first, last := span(addr, b.Sizes[i], shift)
			if first == last {
				// Single-line reference: the overwhelming case for a
				// word-granular stream, kept free of the line loop.
				if have && cur>>1 == first {
					cur |= w
					curN++
					continue
				}
				if have {
					lines = append(lines, cur)
					counts = append(counts, curN)
				}
				cur, curN, have = first<<1|w, 1, true
				seen.add(first)
				continue
			}
			for line := first; ; line++ {
				if have && cur>>1 == line {
					cur |= w
					curN++
				} else {
					if have {
						lines = append(lines, cur)
						counts = append(counts, curN)
					}
					cur, curN, have = line<<1|w, 1, true
					seen.add(line)
				}
				if line == last {
					break
				}
			}
		}
		if have {
			lines = append(lines, cur)
			counts = append(counts, curN)
		}
	} else {
		// Not collapsible (flush intervals or no-write-allocate members
		// need every access): one entry per line access and no counts.
		for i, addr := range b.Addrs {
			w := uint64(b.Kinds[i]) & 1
			if runs != nil && runs[i] != 1 {
				// Per-access stream: expand the run one element at a
				// time. Aligned elements hit exactly one line; a
				// contract-violating row goes through span per element.
				n := runs[i]
				sz := uint64(b.Sizes[i])
				a := addr
				if !runAligned(addr, sz, uint64(n), shift) {
					for ; n > 0; n-- {
						first, last := span(a, b.Sizes[i], shift)
						for line := first; ; line++ {
							lines = append(lines, line<<1|w)
							seen.add(line)
							if line == last {
								break
							}
						}
						a += sz
					}
					continue
				}
				for ; n > 0; n-- {
					line := a >> shift
					lines = append(lines, line<<1|w)
					seen.add(line)
					a += sz
				}
				continue
			}
			first, last := span(addr, b.Sizes[i], shift)
			for line := first; ; line++ {
				lines = append(lines, line<<1|w)
				seen.add(line)
				if line == last {
					break
				}
			}
		}
	}
	g.runLines, g.runCounts = lines, counts
}

// replay feeds the decomposed line stream to every member cache.
// Distinct-line tracking already happened during decomposition.
func (g *Group) replay() {
	lines := g.runLines
	counts := g.runCounts
	for _, c := range g.caches {
		if g.rleOK {
			for j, e := range lines {
				c.accessLineRun(e>>1, e&1 != 0, uint64(counts[j]))
			}
		} else {
			// Not collapsed: the exact per-access path, which handles
			// flush intervals and no-write-allocate.
			for _, e := range lines {
				c.accessLine(e>>1, e&1 != 0)
			}
		}
	}
}

// Caches returns the member simulators in construction order.
func (g *Group) Caches() []*Cache { return g.caches }

// DistinctLines returns the number of distinct cache lines referenced.
func (g *Group) DistinctLines() uint64 { return g.seen.distinct() }

// Results summarizes every member cache.
func (g *Group) Results() []Result {
	out := make([]Result, len(g.caches))
	cold := g.DistinctLines()
	for i, c := range g.caches {
		out[i] = Result{Config: c.cfg, Accesses: c.accesses, Misses: c.misses, ColdLines: cold}
	}
	return out
}
