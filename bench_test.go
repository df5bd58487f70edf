package mallocsim

// The benchmark harness regenerates every table and figure of the
// paper's evaluation section. Each BenchmarkFigureN / BenchmarkTableN
// runs the corresponding experiment end to end (synthetic workloads
// through real allocators through the locality simulators) and prints
// the resulting table once, so
//
//	go test -bench . -benchtime 1x
//
// reproduces the whole paper. MALLOCSIM_BENCH_SCALE (default 128)
// trades fidelity for time: scale 16 takes minutes and matches
// EXPERIMENTS.md; scale 128 smoke-tests the harness in seconds.
//
// BenchmarkMallocFree* are conventional micro-benchmarks of the six
// allocator implementations themselves; BenchmarkAblation* quantify the
// design decisions the paper's §4.3/§4.4 discussion calls out.

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"sync"
	"testing"

	"mallocsim/internal/alloc"
	_ "mallocsim/internal/alloc/all"
	"mallocsim/internal/apps"
	"mallocsim/internal/cache"
	"mallocsim/internal/cost"
	"mallocsim/internal/mem"
	"mallocsim/internal/paper"
	"mallocsim/internal/rng"
	"mallocsim/internal/sim"
	"mallocsim/internal/trace"
	"mallocsim/internal/vm"
	"mallocsim/internal/workload"
)

func benchScale() uint64 {
	if s := os.Getenv("MALLOCSIM_BENCH_SCALE"); s != "" {
		if v, err := strconv.ParseUint(s, 10, 64); err == nil && v > 0 {
			return v
		}
	}
	return 128
}

var printOnce sync.Map

// benchExperiment runs one paper experiment per iteration and prints
// its table the first time.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r := paper.NewRunner(benchScale())
		e, ok := r.ByID(id)
		if !ok {
			b.Fatalf("unknown experiment %q", id)
		}
		tab, err := e.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if _, done := printOnce.LoadOrStore(id, true); !done {
			fmt.Printf("\n%s\n", tab.String())
		}
	}
}

func BenchmarkTable1Programs(b *testing.B)       { benchExperiment(b, "table1") }
func BenchmarkTable2Baseline(b *testing.B)       { benchExperiment(b, "table2") }
func BenchmarkFigure1MallocTime(b *testing.B)    { benchExperiment(b, "figure1") }
func BenchmarkFigure2PageFaultsGS(b *testing.B)  { benchExperiment(b, "figure2") }
func BenchmarkFigure3PageFaultsPTC(b *testing.B) { benchExperiment(b, "figure3") }
func BenchmarkFigure4NormTime16K(b *testing.B)   { benchExperiment(b, "figure4") }
func BenchmarkFigure5NormTime64K(b *testing.B)   { benchExperiment(b, "figure5") }
func BenchmarkTable3GSInputs(b *testing.B)       { benchExperiment(b, "table3") }
func BenchmarkFigure6GSSmall(b *testing.B)       { benchExperiment(b, "figure6") }
func BenchmarkFigure7GSMedium(b *testing.B)      { benchExperiment(b, "figure7") }
func BenchmarkFigure8GSLarge(b *testing.B)       { benchExperiment(b, "figure8") }
func BenchmarkTable4ExecTime16K(b *testing.B)    { benchExperiment(b, "table4") }
func BenchmarkTable5ExecTime64K(b *testing.B)    { benchExperiment(b, "table5") }
func BenchmarkTable6BoundaryTags(b *testing.B)   { benchExperiment(b, "table6") }
func BenchmarkFigure9SizeMapping(b *testing.B)   { benchExperiment(b, "figure9") }

// BenchmarkServerWorkload runs the concurrent server experiment — the
// full 19-allocator sharing-attribution sweep — end to end. It is one
// of the two benchmarks gated by the CI regression check (bench.sh,
// BENCH_MAX_PCT): the server driver, tid plumbing and sharing
// attributor all sit on its hot path.
func BenchmarkServerWorkload(b *testing.B) { benchExperiment(b, "server") }

// --- allocator micro-benchmarks ---

// benchMallocFree measures a steady malloc/free churn through one
// allocator implementation, reporting simulated instructions per
// operation alongside the host-side ns/op.
func benchMallocFree(b *testing.B, name string) {
	meter := &cost.Meter{}
	m := mem.New(trace.Discard, meter)
	a, err := alloc.New(name, m)
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(1)
	sizes := []uint32{8, 16, 24, 24, 32, 48, 64, 128, 24, 16}
	var live []uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(live) > 64 || (len(live) > 0 && r.Bool(0.5)) {
			k := r.Intn(len(live))
			if err := a.Free(live[k]); err != nil {
				b.Fatal(err)
			}
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
			continue
		}
		p, err := a.Malloc(sizes[i%len(sizes)])
		if err != nil {
			b.Fatal(err)
		}
		live = append(live, p)
	}
	b.ReportMetric(float64(meter.Total())/float64(b.N), "sim-instr/op")
}

func BenchmarkMallocFreeFirstFit(b *testing.B) { benchMallocFree(b, "firstfit") }
func BenchmarkMallocFreeGnuFit(b *testing.B)   { benchMallocFree(b, "gnufit") }
func BenchmarkMallocFreeBSD(b *testing.B)      { benchMallocFree(b, "bsd") }
func BenchmarkMallocFreeGnuLocal(b *testing.B) { benchMallocFree(b, "gnulocal") }
func BenchmarkMallocFreeQuickFit(b *testing.B) { benchMallocFree(b, "quickfit") }
func BenchmarkMallocFreeCustom(b *testing.B)   { benchMallocFree(b, "custom") }

// --- pointer-chasing kernel benchmarks (package apps) ---

// benchKernel times one kernel iteration through one allocator and
// reports the simulated instruction cost.
func benchKernel(b *testing.B, kernelName, allocName string) {
	app, ok := apps.Get(kernelName)
	if !ok {
		b.Fatalf("no kernel %q", kernelName)
	}
	size := 1500
	if kernelName == "cubes" {
		size = 300 // quadratic pairwise passes
	}
	for i := 0; i < b.N; i++ {
		meter := &cost.Meter{}
		m := mem.New(trace.Discard, meter)
		a, err := alloc.New(allocName, m)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := app.Run(apps.NewCtx(m, a, 1), size); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(meter.Total()), "sim-instr")
	}
}

func BenchmarkKernelSymtabQuickFit(b *testing.B) { benchKernel(b, "symtab", "quickfit") }
func BenchmarkKernelSymtabFirstFit(b *testing.B) { benchKernel(b, "symtab", "firstfit") }
func BenchmarkKernelListsortBSD(b *testing.B)    { benchKernel(b, "listsort", "bsd") }
func BenchmarkKernelXlatGnuLocal(b *testing.B)   { benchKernel(b, "xlat", "gnulocal") }
func BenchmarkKernelCubesCustom(b *testing.B)    { benchKernel(b, "cubes", "custom") }
func BenchmarkKernelDepgraphGnuFit(b *testing.B) { benchKernel(b, "depgraph", "gnufit") }

// --- locality simulator micro-benchmarks ---

func BenchmarkCacheDirectMapped(b *testing.B) {
	c := cache.New(cache.Config{Size: 64 << 10})
	r := rng.New(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Ref(trace.Ref{Addr: r.Uint64n(1 << 22), Size: 4})
	}
}

func BenchmarkCacheFourWay(b *testing.B) {
	c := cache.New(cache.Config{Size: 64 << 10, Assoc: 4})
	r := rng.New(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Ref(trace.Ref{Addr: r.Uint64n(1 << 22), Size: 4})
	}
}

// BenchmarkStackSimRef drives the Fenwick stack-distance engine one
// reference at a time through the per-Ref path.
func BenchmarkStackSimRef(b *testing.B) {
	s := vm.NewStackSim()
	r := rng.New(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var addr uint64
		if r.Bool(0.7) {
			addr = r.Uint64n(64 * 4096) // hot set
		} else {
			addr = r.Uint64n(4096 * 4096)
		}
		s.Ref(trace.Ref{Addr: addr, Size: 4})
	}
}

// BenchmarkCacheGroupSweep drives the paper's five-configuration cache
// group (the per-pair workhorse of package paper) with a mixed stream:
// mostly word refs, some straddling line boundaries, occasional block
// refs spanning several lines. This is the hot path the sparse paged
// bitset and the hoisted line decomposition target.
func BenchmarkCacheGroupSweep(b *testing.B) {
	cfgs := make([]cache.Config, len(paper.CacheSizes))
	for i, s := range paper.CacheSizes {
		cfgs[i] = cache.Config{Size: s}
	}
	g := cache.NewGroup(cfgs...)
	r := rng.New(4)
	refs := make([]trace.Ref, 4096)
	for i := range refs {
		ref := trace.Ref{Addr: r.Uint64n(1 << 24), Size: 4}
		if r.Bool(0.3) {
			ref.Kind = trace.Write
		}
		switch {
		case r.Bool(0.05):
			ref.Size = 256 // multi-line block copy
		case r.Bool(0.1):
			ref.Addr = ref.Addr&^63 + 62 // straddles a line boundary
			ref.Size = 8
		}
		refs[i] = ref
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Ref(refs[i%len(refs)])
	}
	b.ReportMetric(float64(g.DistinctLines()), "distinct-lines")
}

// BenchmarkCacheGroupBlockSweep drives the same five-configuration
// group with the same mixed stream as BenchmarkCacheGroupSweep, but
// delivered as one columnar trace.Block per op (4096 rows, including
// collapsed run rows): the fused sweep decomposes each block into
// lines once and probes every config from the shared stream. Compare
// the reported ns/ref against BenchmarkCacheGroupSweep's ns/op — both
// simulate the identical reference sequence.
func BenchmarkCacheGroupBlockSweep(b *testing.B) {
	cfgs := make([]cache.Config, len(paper.CacheSizes))
	for i, s := range paper.CacheSizes {
		cfgs[i] = cache.Config{Size: s}
	}
	g := cache.NewGroup(cfgs...)
	r := rng.New(4)
	blk := &trace.Block{}
	refs := 0
	for blk.Len() < 4096 {
		ref := trace.Ref{Addr: r.Uint64n(1 << 24), Size: 4}
		if r.Bool(0.3) {
			ref.Kind = trace.Write
		}
		switch {
		case r.Bool(0.05):
			ref.Size = 256 // multi-line block copy
		case r.Bool(0.1):
			ref.Addr = ref.Addr&^63 + 62 // straddles a line boundary
			ref.Size = 8
		case r.Bool(0.1):
			// A collapsed run row: a sequential word sweep, as the
			// allocators' clear/copy loops emit via mem.TouchRun.
			blk.AppendRun(ref.Addr&^7, 8, ref.Kind, 32)
			refs += 32
			continue
		}
		blk.Append(ref)
		refs++
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Block(blk)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*refs), "ns/ref")
	b.ReportMetric(float64(g.DistinctLines()), "distinct-lines")
}

// BenchmarkStackSimSweepExact drives the Fenwick stack-distance engine
// with a hot/cold paging stream in block mode.
func BenchmarkStackSimSweepExact(b *testing.B) {
	s := vm.NewStackSim()
	r := rng.New(3)
	blk := &trace.Block{}
	for blk.Len() < 4096 {
		var addr uint64
		if r.Bool(0.2) {
			addr = r.Uint64n(64 * 4096) // hot set
		} else {
			addr = r.Uint64n(1 << 32) // 1 Mi cold pages
		}
		blk.Append(trace.Ref{Addr: addr, Size: 4})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Block(blk)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*blk.Len()), "ns/ref")
}

// BenchmarkTeeBatch compares synchronous per-ref delivery against the
// batched ring-buffer path through a realistic fan-out (counter + cache
// group + filter), measured per simulated reference.
func BenchmarkTeeBatch(b *testing.B) {
	mkSink := func() trace.Sink {
		g := cache.NewGroup(cache.Config{Size: 16 << 10}, cache.Config{Size: 64 << 10})
		return trace.NewTee(
			&trace.Counter{},
			g,
			&trace.Filter{Keep: func(r trace.Ref) bool { return r.Kind == trace.Write }, Next: &trace.Counter{}},
		)
	}
	run := func(b *testing.B, batch int) {
		m := mem.New(mkSink(), &cost.Meter{})
		m.SetBatching(batch)
		region := m.NewRegion("bench", 1<<21)
		base, err := region.Sbrk(1 << 20)
		if err != nil {
			b.Fatal(err)
		}
		r := rng.New(5)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a := base + r.Uint64n(1<<20)&^7
			if r.Bool(0.3) {
				m.WriteWord(a, uint64(i))
			} else {
				m.ReadWord(a)
			}
		}
		m.Flush()
	}
	b.Run("direct", func(b *testing.B) { run(b, -1) })
	b.Run("batched", func(b *testing.B) { run(b, 0) })
}

// BenchmarkRunAllParallel regenerates the paper's entire experiment
// suite per iteration with the worker pool at GOMAXPROCS;
// BenchmarkRunAllSequential is the same matrix at Workers=1. Their
// ratio is the wall-clock win of parallel matrix execution (the output
// is byte-identical either way).
func BenchmarkRunAllParallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := paper.NewRunner(benchScale())
		if _, err := r.RunAll(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunAllSequential(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := paper.NewRunner(benchScale())
		r.Workers = 1
		if _, err := r.RunAll(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ablation benches: the §4.3/§4.4 design decisions ---

func runAblation(b *testing.B, progName, allocName string, caches ...cache.Config) *sim.Result {
	b.Helper()
	prog, ok := workload.ByName(progName)
	if !ok {
		b.Fatal("unknown program")
	}
	res, err := sim.Run(sim.Config{
		Program:   prog,
		Allocator: allocName,
		Scale:     benchScale(),
		Caches:    caches,
	})
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkAblationCoalescing quantifies §4.1's claim that coalescing
// buys space at the price of time and locality.
func BenchmarkAblationCoalescing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		on := runAblation(b, "espresso", "firstfit", cache.Config{Size: 64 << 10})
		off := runAblation(b, "espresso", "firstfit-nocoalesce", cache.Config{Size: 64 << 10})
		b.ReportMetric(float64(off.Footprint)/float64(on.Footprint), "space-ratio")
		b.ReportMetric(off.Caches[0].MissRate()/on.Caches[0].MissRate(), "miss-ratio")
	}
}

// BenchmarkAblationRover compares Knuth's roving pointer against
// scanning from the list head.
func BenchmarkAblationRover(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rover := runAblation(b, "espresso", "firstfit", cache.Config{Size: 64 << 10})
		head := runAblation(b, "espresso", "firstfit-norover", cache.Config{Size: 64 << 10})
		b.ReportMetric(float64(head.Instr.Total())/float64(rover.Instr.Total()), "instr-ratio")
	}
}

// BenchmarkAblationAssociativity extends the paper's direct-mapped
// study along the axis its related-work section cites (Wilson et al.).
func BenchmarkAblationAssociativity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := runAblation(b, "gs-small", "quickfit",
			cache.Config{Size: 16 << 10, Assoc: 1},
			cache.Config{Size: 16 << 10, Assoc: 2},
			cache.Config{Size: 16 << 10, Assoc: 4})
		b.ReportMetric(res.Caches[0].MissRate()*100, "miss%-1way")
		b.ReportMetric(res.Caches[1].MissRate()*100, "miss%-2way")
		b.ReportMetric(res.Caches[2].MissRate()*100, "miss%-4way")
	}
}

// BenchmarkAblationChunkReclaim measures the cost of the custom
// allocator's optional whole-chunk reclamation.
func BenchmarkAblationChunkReclaim(b *testing.B) {
	for i := 0; i < b.N; i++ {
		plain := runAblation(b, "gawk", "custom", cache.Config{Size: 16 << 10})
		reclaim := runAblation(b, "gawk", "custom-reclaim", cache.Config{Size: 16 << 10})
		b.ReportMetric(float64(reclaim.Instr.Total())/float64(plain.Instr.Total()), "instr-ratio")
		b.ReportMetric(float64(reclaim.Footprint)/float64(plain.Footprint), "space-ratio")
	}
}

// BenchmarkAblationSizeClasses sweeps the §4.4 size-class granularity
// choice: power-of-two versus 25%-bounded classes.
func BenchmarkAblationSizeClasses(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pow2 := runAblation(b, "gawk", "custom-pow2", cache.Config{Size: 16 << 10})
		bounded := runAblation(b, "gawk", "custom", cache.Config{Size: 16 << 10})
		b.ReportMetric(float64(pow2.Footprint)/float64(bounded.Footprint), "pow2-space-ratio")
	}
}
