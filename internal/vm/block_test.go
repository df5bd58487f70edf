package vm

import (
	"reflect"
	"testing"

	"mallocsim/internal/rng"
	"mallocsim/internal/trace"
)

// genPageBlock builds a random contract-conforming block aimed at the
// page simulator: same-page repeats (the folded hot case), page-
// spanning refs, refs clamping at the top of the address space, and
// run rows both inside the aligned contract (size divides the page
// size, aligned start) and outside it (misaligned, zero size).
func genPageBlock(r *rng.Rand, rows int) *trace.Block {
	b := &trace.Block{}
	space := uint64(512 * DefaultPageSize)
	for b.Len() < rows {
		kind := trace.Read
		if r.Bool(0.3) {
			kind = trace.Write
		}
		switch {
		case r.Bool(0.05):
			// Spans several pages.
			b.Append(trace.Ref{Addr: r.Uint64n(space), Size: uint32(r.Uint64n(3 * DefaultPageSize)), Kind: kind})
		case r.Bool(0.02):
			// Byte span clamps at ^uint64(0).
			b.Append(trace.Ref{Addr: ^uint64(0) - r.Uint64n(2*DefaultPageSize), Size: uint32(r.Uint64n(4 * DefaultPageSize)), Kind: kind})
		case r.Bool(0.1):
			// Aligned run: power-of-two size dividing the page size.
			size := uint32(1) << (2 + r.Uint64n(5)) // 4..64
			addr := r.Uint64n(space) &^ uint64(size-1)
			b.AppendRun(addr, size, kind, uint32(1+r.Uint64n(3*DefaultPageSize/uint64(size))))
		case r.Bool(0.05):
			// Misaligned / non-dividing run: the element-by-element path.
			sizes := []uint32{3, 6, 24, 100}
			b.AppendRun(1+r.Uint64n(space), sizes[r.Intn(len(sizes))], kind, uint32(1+r.Uint64n(60)))
		case r.Bool(0.02):
			// Zero-size run.
			b.AppendRun(r.Uint64n(space), 0, kind, uint32(1+r.Uint64n(4)))
		case r.Bool(0.5):
			// Same-page repeat pressure: small offsets around a hot page.
			b.Append(trace.Ref{Addr: 17*DefaultPageSize + r.Uint64n(DefaultPageSize-8), Size: 4, Kind: kind})
		default:
			b.Append(trace.Ref{Addr: r.Uint64n(space), Size: 4, Kind: kind})
		}
	}
	return b
}

// TestStackSimBlockEquivalence: Block delivery must reproduce the exact
// Curve of per-reference delivery — for the Fenwick engine, the list
// oracle and a non-default page size.
func TestStackSimBlockEquivalence(t *testing.T) {
	modes := map[string][]Option{
		"fenwick": nil,
		"list":    {WithListEngine()},
		"page1k":  {WithPageSize(1024)},
	}
	for name, opts := range modes {
		t.Run(name, func(t *testing.T) {
			for seed := uint64(1); seed <= 3; seed++ {
				r := rng.New(seed)
				blocks := make([]*trace.Block, 4)
				for i := range blocks {
					blocks[i] = genPageBlock(r, 512)
				}
				byRef, byBlock := NewStackSim(opts...), NewStackSim(opts...)
				var refs []trace.Ref
				for _, b := range blocks {
					refs = b.AppendRefs(refs[:0])
					for _, rf := range refs {
						byRef.Ref(rf)
					}
					byBlock.Block(b)
				}
				if !reflect.DeepEqual(byRef.Curve(), byBlock.Curve()) {
					t.Fatalf("seed %d: block curve diverged from per-ref curve\nref:   %+v\nblock: %+v",
						seed, byRef.Curve(), byBlock.Curve())
				}
				if byRef.DistinctPages() != byBlock.DistinctPages() {
					t.Fatalf("seed %d: distinct pages diverged: %d vs %d",
						seed, byRef.DistinctPages(), byBlock.DistinctPages())
				}
			}
		})
	}
}
