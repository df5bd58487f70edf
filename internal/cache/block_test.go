package cache

import (
	"reflect"
	"testing"

	"mallocsim/internal/rng"
	"mallocsim/internal/trace"
)

// genBlock builds a random contract-conforming block: a mix of plain
// rows (word refs, line-spanning refs, refs whose byte span clamps at
// the top of the 64-bit address space) and run rows (aligned power-of-
// two runs that the simulators collapse in closed form, misaligned and
// zero-size runs that must take the element-by-element fallback). Run
// rows never wrap and never have count 0, per the Block contract.
func genBlock(r *rng.Rand, rows int) *trace.Block {
	b := &trace.Block{}
	for b.Len() < rows {
		kind := trace.Read
		if r.Bool(0.4) {
			kind = trace.Write
		}
		switch {
		case r.Bool(0.05):
			// Byte span clamps at ^uint64(0).
			b.Append(trace.Ref{
				Addr: ^uint64(0) - r.Uint64n(512),
				Size: uint32(r.Uint64n(1024)),
				Kind: kind,
			})
		case r.Bool(0.1):
			// Aligned power-of-two run: the closed-form path.
			size := uint32(1) << r.Uint64n(7) // 1..64 bytes
			addr := r.Uint64n(1<<22) &^ uint64(size-1)
			b.AppendRun(addr, size, kind, uint32(1+r.Uint64n(200)))
		case r.Bool(0.05):
			// Misaligned or non-power-of-two run: the fallback path.
			sizes := []uint32{3, 5, 12, 96}
			size := sizes[r.Intn(len(sizes))]
			b.AppendRun(1+r.Uint64n(1<<22), size, kind, uint32(1+r.Uint64n(50)))
		case r.Bool(0.02):
			// Zero-size run: every element resolves to the same byte.
			b.AppendRun(r.Uint64n(1<<22), 0, kind, uint32(1+r.Uint64n(5)))
		default:
			sizes := []uint32{0, 1, 4, 8, 8, 8, 62, 256}
			b.Append(trace.Ref{
				Addr: r.Uint64n(1 << 22),
				Size: sizes[r.Intn(len(sizes))],
				Kind: kind,
			})
		}
	}
	return b
}

// deliverRefs feeds the expanded reference sequence of blocks to s one
// Ref at a time — the per-reference oracle every bulk path must match.
func deliverRefs(s trace.Sink, blocks []*trace.Block) {
	var refs []trace.Ref
	for _, b := range blocks {
		refs = b.AppendRefs(refs[:0])
		for _, r := range refs {
			s.Ref(r)
		}
	}
}

func genBlocks(seed uint64, n, rows int) []*trace.Block {
	r := rng.New(seed)
	blocks := make([]*trace.Block, n)
	for i := range blocks {
		blocks[i] = genBlock(r, rows)
	}
	return blocks
}

// TestCacheBlockEquivalence: Cache.Block must accumulate exactly the
// counters of per-reference delivery, for every geometry (direct
// mapped, set associative, no-write-allocate, flush intervals).
func TestCacheBlockEquivalence(t *testing.T) {
	cfgs := map[string]Config{
		"direct16k":   {Size: 16 << 10},
		"assoc4":      {Size: 64 << 10, Assoc: 4},
		"nowralloc":   {Size: 16 << 10, NoWriteAllocate: true},
		"smallline":   {Size: 8 << 10, LineSize: 16},
		"flush":       {Size: 16 << 10, FlushInterval: 4096},
		"fullyassoc":  {Size: 4 << 10, Assoc: 64},
		"assoc2flush": {Size: 32 << 10, Assoc: 2, FlushInterval: 2048},
	}
	for name, cfg := range cfgs {
		t.Run(name, func(t *testing.T) {
			for seed := uint64(1); seed <= 3; seed++ {
				blocks := genBlocks(seed, 4, 512)
				byRef, byBlock := New(cfg), New(cfg)
				deliverRefs(byRef, blocks)
				for _, b := range blocks {
					byBlock.Block(b)
				}
				if byRef.Accesses() != byBlock.Accesses() ||
					byRef.Misses() != byBlock.Misses() ||
					byRef.Writebacks() != byBlock.Writebacks() {
					t.Fatalf("seed %d: block delivery diverged: ref (%d,%d,%d) vs block (%d,%d,%d)",
						seed,
						byRef.Accesses(), byRef.Misses(), byRef.Writebacks(),
						byBlock.Accesses(), byBlock.Misses(), byBlock.Writebacks())
				}
			}
		})
	}
}

// groupVariants are the Group shapes that select each bulk code path:
// the fused single-pass scan (all direct mapped, no flush/nwa), the
// decompose+replay path (associative members), and the per-ref
// fallback (flush intervals and no-write-allocate disable run
// collapsing).
func groupVariants() map[string][]Config {
	return map[string][]Config{
		"fused": {
			{Size: 16 << 10}, {Size: 32 << 10}, {Size: 64 << 10},
			{Size: 128 << 10}, {Size: 512 << 10},
		},
		"assoc": {
			{Size: 16 << 10}, {Size: 64 << 10, Assoc: 4}, {Size: 32 << 10, Assoc: 2},
		},
		"nwa": {
			{Size: 16 << 10}, {Size: 64 << 10, NoWriteAllocate: true},
		},
		"flush": {
			{Size: 16 << 10, FlushInterval: 8192}, {Size: 64 << 10},
		},
	}
}

// TestGroupBlockEquivalence: Group.Block (fused scan, decompose+replay
// and the fallback) must match per-reference delivery on every member's
// counters and on the distinct-line census.
func TestGroupBlockEquivalence(t *testing.T) {
	for name, cfgs := range groupVariants() {
		t.Run(name, func(t *testing.T) {
			for seed := uint64(1); seed <= 3; seed++ {
				blocks := genBlocks(seed, 4, 512)
				byRef, byBlock := NewGroup(cfgs...), NewGroup(cfgs...)
				deliverRefs(byRef, blocks)
				for _, b := range blocks {
					byBlock.Block(b)
				}
				if !reflect.DeepEqual(byRef.Results(), byBlock.Results()) {
					t.Fatalf("seed %d: group block delivery diverged:\nref:   %+v\nblock: %+v",
						seed, byRef.Results(), byBlock.Results())
				}
				if byRef.DistinctLines() != byBlock.DistinctLines() {
					t.Fatalf("seed %d: distinct lines diverged: %d vs %d",
						seed, byRef.DistinctLines(), byBlock.DistinctLines())
				}
			}
		})
	}
}

// TestLineSetAddRange: the word-at-a-time range fill must mark exactly
// the lines that repeated add calls mark, across page boundaries, word
// boundaries and both dense and sparse territory.
func TestLineSetAddRange(t *testing.T) {
	r := rng.New(11)
	spans := [][2]uint64{
		{0, 0},
		{5, 5},
		{0, 63},
		{60, 70},
		{63, 64},
		{(1 << lineSetPageShift) - 2, (1 << lineSetPageShift) + 2},
		{3 * (1 << lineSetPageShift), 5 * (1 << lineSetPageShift)},
	}
	for i := 0; i < 40; i++ {
		first := r.Uint64n(1 << 21)
		spans = append(spans, [2]uint64{first, first + r.Uint64n(3000)})
	}
	// A sparse-territory span (beyond the dense page limit).
	base := uint64(lineSetDenseLimit)<<lineSetPageShift + 17
	spans = append(spans, [2]uint64{base, base + 100})

	ranged, looped := newLineSet(), newLineSet()
	for _, s := range spans {
		ranged.addRange(s[0], s[1])
		for line := s[0]; ; line++ {
			looped.add(line)
			if line == s[1] {
				break
			}
		}
	}
	if ranged.distinct() != looped.distinct() {
		t.Fatalf("distinct count diverged: addRange %d vs add loop %d",
			ranged.distinct(), looped.distinct())
	}
	// Membership spot-check via a probe group is indirect; compare the
	// raw pages instead.
	for idx, page := range looped.dense {
		if page == nil {
			if idx < len(ranged.dense) && ranged.dense[idx] != nil {
				for _, w := range ranged.dense[idx] {
					if w != 0 {
						t.Fatalf("page %d: addRange set bits the oracle did not", idx)
					}
				}
			}
			continue
		}
		if idx >= len(ranged.dense) || ranged.dense[idx] == nil {
			t.Fatalf("page %d missing from addRange set", idx)
		}
		if *ranged.dense[idx] != *page {
			t.Fatalf("page %d bitmap diverged", idx)
		}
	}
}
