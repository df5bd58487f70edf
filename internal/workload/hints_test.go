package workload

import (
	"testing"

	"mallocsim/internal/alloc"
	"mallocsim/internal/cost"
	"mallocsim/internal/mem"
	"mallocsim/internal/obs"
	"mallocsim/internal/trace"
)

// noHints hides its allocator's locality hints from the driver: the
// embedded interface exposes only Malloc and Free, there is no Unwrap
// for alloc.HintAware to follow, and MallocSite forwards to a
// site-aware inner allocator so the site path stays intact. A
// non-site-aware inner allocator sees plain Malloc, as the driver
// would have called it.
type noHints struct{ alloc.Allocator }

func (n noHints) MallocSite(size, site uint32) (uint64, error) {
	if sa, ok := n.Allocator.(alloc.SiteAllocator); ok {
		return sa.MallocSite(size, site)
	}
	return n.Allocator.Malloc(size)
}

// runHinted executes one run, optionally with the allocator's hints
// hidden behind noHints and optionally under obs instrumentation.
func runHinted(t *testing.T, allocName string, hide, instrument bool) (Stats, cost.Snapshot, trace.Counter, uint64) {
	t.Helper()
	meter := &cost.Meter{}
	var counter trace.Counter
	m := mem.New(&counter, meter)
	a, err := alloc.New(allocName, m)
	if err != nil {
		t.Fatal(err)
	}
	if hide {
		a = noHints{a}
	}
	if instrument {
		a = obs.Instrument(a, meter, &obs.Recorder{})
	}
	prog, ok := ByName("espresso")
	if !ok {
		t.Fatal("no espresso program")
	}
	stats, err := Run(m, a, Config{Program: prog, Scale: 512, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return stats, meter.Snapshot(), counter, m.Footprint()
}

// For allocators that do not implement alloc.LocalityHinter, hints must
// be invisible: a run and the same run with hints hidden are
// byte-identical in every observable (the hint derivation consumes no
// randomness and charges nothing).
func TestHintsNoopForNonHintingAllocators(t *testing.T) {
	for _, name := range []string{"quickfit", "lifetime", "bitfit", "vamfit"} {
		t.Run(name, func(t *testing.T) {
			s1, i1, c1, f1 := runHinted(t, name, false, false)
			s2, i2, c2, f2 := runHinted(t, name, true, false)
			if statKey(s1) != statKey(s2) {
				t.Errorf("stats diverged: %+v vs %+v", s1, s2)
			}
			if i1 != i2 {
				t.Errorf("instruction snapshot diverged: %+v vs %+v", i1, i2)
			}
			if c1 != c2 {
				t.Errorf("reference counter diverged: %+v vs %+v", c1, c2)
			}
			if f1 != f2 {
				t.Errorf("footprint diverged: %d vs %d", f1, f2)
			}
		})
	}
}

// For a hint-aware allocator the hints must actually steer placement:
// hiding them changes the reference stream (same op counts, a
// different heap layout).
func TestHintsSteerLocarena(t *testing.T) {
	s1, _, c1, f1 := runHinted(t, "locarena", false, false)
	s2, _, c2, f2 := runHinted(t, "locarena", true, false)
	if s1.Allocs != s2.Allocs || s1.Frees != s2.Frees {
		t.Fatalf("op counts should not depend on hints: %+v vs %+v", s1, s2)
	}
	if c1 == c2 && f1 == f2 {
		t.Errorf("hints had no observable effect on locarena (footprint %d, refs %+v)", f1, c1)
	}
	if f1 <= f2 {
		t.Logf("note: hinted footprint %d ≤ unhinted %d", f1, f2)
	}
}

// Hints survive the obs instrumentation wrapper: a wrapped hinted run
// reproduces the unwrapped hinted run's workload stats and footprint
// (alloc.HintAware sees through Unwrap, and the wrapper forwards
// MallocLocal).
func TestHintsFlowThroughInstrumentation(t *testing.T) {
	s1, _, _, f1 := runHinted(t, "locarena", false, false)
	s2, _, _, f2 := runHinted(t, "locarena", false, true)
	if statKey(s1) != statKey(s2) {
		t.Errorf("stats diverged under instrumentation: %+v vs %+v", s1, s2)
	}
	if f1 != f2 {
		t.Errorf("footprint diverged under instrumentation: %d vs %d", f1, f2)
	}
	// And a wrapped site-aware allocator keeps its site path: the
	// wrapper implements MallocLocal unconditionally, so a naive
	// hint-first dispatch would silently drop lifetime's site data.
	s3, _, _, f3 := runHinted(t, "lifetime", false, false)
	s4, _, _, f4 := runHinted(t, "lifetime", false, true)
	if statKey(s3) != statKey(s4) || f3 != f4 {
		t.Errorf("wrapped site-aware run diverged: %+v/%d vs %+v/%d", s3, f3, s4, f4)
	}
}
