package vm

import (
	"fmt"
	"testing"
	"testing/quick"

	"mallocsim/internal/rng"
	"mallocsim/internal/trace"
)

func pageRef(page uint64) trace.Ref {
	return trace.Ref{Addr: page * DefaultPageSize, Size: 4, Kind: trace.Read}
}

func TestColdOnly(t *testing.T) {
	s := NewStackSim()
	for p := uint64(0); p < 10; p++ {
		s.Ref(pageRef(p))
	}
	c := s.Curve()
	if c.Cold != 10 || c.Refs != 10 || c.DistinctPages() != 10 {
		t.Errorf("curve: %+v", c)
	}
	// Every memory size faults exactly 10 times (all cold).
	for _, pages := range []uint64{1, 5, 100} {
		if f := c.Faults(pages); f != 10 {
			t.Errorf("Faults(%d) = %d", pages, f)
		}
	}
}

func TestStackDistances(t *testing.T) {
	s := NewStackSim()
	// Sequence: A B C A  -> A's re-reference has distance 2.
	for _, p := range []uint64{1, 2, 3, 1} {
		s.Ref(pageRef(p))
	}
	c := s.Curve()
	if c.Cold != 3 {
		t.Errorf("cold = %d", c.Cold)
	}
	if len(c.Hist) != 3 || c.Hist[2] != 1 {
		t.Errorf("hist = %v", c.Hist)
	}
	// Memory of 2 pages: the distance-2 reference faults. 3 pages: hit.
	if c.Faults(2) != 4 || c.Faults(3) != 3 {
		t.Errorf("faults: %d %d", c.Faults(2), c.Faults(3))
	}
	if c.MinResidentPages() != 3 {
		t.Errorf("min resident = %d", c.MinResidentPages())
	}
}

func TestSamePageShortCircuit(t *testing.T) {
	s := NewStackSim()
	for i := 0; i < 100; i++ {
		s.Ref(pageRef(7))
	}
	c := s.Curve()
	if c.Cold != 1 || c.Refs != 100 {
		t.Errorf("cold=%d refs=%d", c.Cold, c.Refs)
	}
	if c.Faults(1) != 1 {
		t.Errorf("faults(1) = %d", c.Faults(1))
	}
}

func TestPageSpanningRef(t *testing.T) {
	s := NewStackSim()
	s.Ref(trace.Ref{Addr: DefaultPageSize - 2, Size: 4})
	if s.Curve().Refs != 2 || s.Curve().Cold != 2 {
		t.Errorf("spanning ref: %+v", s.Curve())
	}
}

func TestFaultRateMonotone(t *testing.T) {
	s := NewStackSim()
	r := rng.New(42)
	for i := 0; i < 20000; i++ {
		s.Ref(pageRef(r.Uint64n(64)))
	}
	c := s.Curve()
	prev := 2.0
	for pages := uint64(1); pages <= 70; pages++ {
		rate := c.FaultRate(pages)
		if rate > prev+1e-12 {
			t.Fatalf("fault rate increased at %d pages: %v > %v", pages, rate, prev)
		}
		prev = rate
	}
	if c.FaultRate(70) != float64(c.Cold)/float64(c.Refs) {
		t.Error("large memory should leave only cold faults")
	}
}

// bruteForceLRU simulates an LRU memory of the given size directly.
func bruteForceLRU(pagesSeq []uint64, memPages int) uint64 {
	var lru []uint64
	var faults uint64
	for _, p := range pagesSeq {
		found := -1
		for i, q := range lru {
			if q == p {
				found = i
				break
			}
		}
		if found >= 0 {
			lru = append(lru[:found], lru[found+1:]...)
		} else {
			faults++
			if len(lru) == memPages {
				lru = lru[:len(lru)-1]
			}
		}
		lru = append([]uint64{p}, lru...)
	}
	return faults
}

func TestAgainstBruteForce(t *testing.T) {
	r := rng.New(7)
	seq := make([]uint64, 4000)
	for i := range seq {
		// Zipf-ish locality plus a uniform tail.
		if r.Bool(0.7) {
			seq[i] = r.Uint64n(8)
		} else {
			seq[i] = r.Uint64n(40)
		}
	}
	s := NewStackSim()
	for _, p := range seq {
		s.Ref(pageRef(p))
	}
	c := s.Curve()
	for _, memPages := range []int{1, 2, 3, 5, 8, 13, 25, 40, 64} {
		want := bruteForceLRU(seq, memPages)
		if got := c.Faults(uint64(memPages)); got != want {
			t.Errorf("Faults(%d) = %d, brute force says %d", memPages, got, want)
		}
	}
}

// TestFenwickMatchesList cross-checks the Fenwick engine against the
// move-to-front list oracle on streams chosen to reach its edge paths:
// a small hot set, a live set large enough that compact() grows the
// slot space at least twice, and pages above the dense pageTable limit
// up to the top page of the 64-bit address space.
func TestFenwickMatchesList(t *testing.T) {
	const topPage = ^uint64(0) / DefaultPageSize
	sparseBase := uint64(pageTableDenseLimit) << pageTableShift
	cases := []struct {
		name string
		refs int
		page func(r *rng.Rand) uint64
		// check asserts the stream reached the edge path it targets.
		check func(f *fenwick) error
	}{
		{
			name: "hot",
			refs: 30000,
			page: func(r *rng.Rand) uint64 {
				if r.Bool(0.6) {
					return r.Uint64n(16)
				}
				return r.Uint64n(500)
			},
		},
		{
			name: "growth",
			refs: 20000,
			page: func(r *rng.Rand) uint64 {
				if r.Bool(0.5) {
					return r.Uint64n(64)
				}
				return r.Uint64n(3000)
			},
			check: func(f *fenwick) error {
				if f.n <= 2048 || len(f.pageOf) < 4*fenwickMinCap {
					return fmt.Errorf("live pages %d, slot space %d: want > 2048 live pages and at least two doublings of %d",
						f.n, len(f.pageOf), fenwickMinCap)
				}
				return nil
			},
		},
		{
			name: "sparse",
			refs: 20000,
			page: func(r *rng.Rand) uint64 {
				switch {
				case r.Bool(0.3):
					return r.Uint64n(64) // dense territory
				case r.Bool(0.2):
					return topPage - r.Uint64n(8)
				case r.Bool(0.3):
					return sparseBase + r.Uint64n(256)
				default:
					// Scattered high pages: each lands in its own sparse
					// table page.
					return sparseBase + r.Uint64n(700)*(topPage/1024)
				}
			},
			check: func(f *fenwick) error {
				if len(f.slots.sparse) == 0 || f.slots.get(topPage) == 0 {
					return fmt.Errorf("sparse table pages %d, top page slot %d: the stream missed the sparse table",
						len(f.slots.sparse), f.slots.get(topPage))
				}
				if len(f.pageOf) <= fenwickMinCap {
					return fmt.Errorf("slot space %d never grew: compaction did not run over sparse pages", len(f.pageOf))
				}
				return nil
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := rng.New(99)
			fenSim := NewStackSim()
			listSim := NewStackSim(WithListEngine())
			for i := 0; i < tc.refs; i++ {
				p := tc.page(r)
				fenSim.Ref(pageRef(p))
				listSim.Ref(pageRef(p))
			}
			a, b := fenSim.Curve(), listSim.Curve()
			if a.Cold != b.Cold || a.Refs != b.Refs {
				t.Fatalf("cold/refs mismatch: %d/%d vs %d/%d", a.Cold, a.Refs, b.Cold, b.Refs)
			}
			if len(a.Hist) != len(b.Hist) {
				t.Fatalf("hist lengths differ: %d vs %d", len(a.Hist), len(b.Hist))
			}
			for d := range a.Hist {
				if a.Hist[d] != b.Hist[d] {
					t.Fatalf("hist[%d]: fenwick %d list %d", d, a.Hist[d], b.Hist[d])
				}
			}
			if fenSim.DistinctPages() != listSim.DistinctPages() {
				t.Error("distinct pages differ")
			}
			if tc.check != nil {
				if err := tc.check(fenSim.eng.(*fenwick)); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// Property: Fenwick and list engines agree on arbitrary short traces.
func TestQuickEnginesAgree(t *testing.T) {
	prop := func(raw []byte) bool {
		a := NewStackSim()
		b := NewStackSim(WithListEngine())
		for _, v := range raw {
			a.Ref(pageRef(uint64(v % 32)))
			b.Ref(pageRef(uint64(v % 32)))
		}
		ca, cb := a.Curve(), b.Curve()
		if ca.Cold != cb.Cold || len(ca.Hist) != len(cb.Hist) {
			return false
		}
		for i := range ca.Hist {
			if ca.Hist[i] != cb.Hist[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestWithPageSizeOption(t *testing.T) {
	s := NewStackSim(WithPageSize(256))
	s.Ref(trace.Ref{Addr: 0, Size: 4})
	s.Ref(trace.Ref{Addr: 256, Size: 4})
	if s.Curve().Cold != 2 {
		t.Errorf("cold = %d with 256-byte pages", s.Curve().Cold)
	}
	defer func() {
		if recover() == nil {
			t.Error("non-power-of-two page size must panic")
		}
	}()
	NewStackSim(WithPageSize(1000))
}

func TestCurveEmpty(t *testing.T) {
	s := NewStackSim()
	c := s.Curve()
	if c.FaultRate(4) != 0 || c.Faults(4) != 0 || c.MinResidentPages() != 1 {
		t.Errorf("empty curve misbehaves: %+v", c)
	}
}
