package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"mallocsim/internal/alloc"
	"mallocsim/internal/cache"
	"mallocsim/internal/cost"
	"mallocsim/internal/mem"
	"mallocsim/internal/sim"
	"mallocsim/internal/trace"
	"mallocsim/internal/vm"
)

// testPairs cover every pipeline shape the workloads run, at a coarse
// scale: caches with paging, the server's tid column and sharing sink,
// and the allocstats observation sinks; with allocators that scan
// (firstfit), take sites (lifetime) and take locality hints (locarena).
var testPairs = []pairSpec{
	{Program: "gs-small", Allocator: "firstfit", Caches: true},
	{Program: "ptc", Allocator: "quickfit", Caches: true, PageSim: true},
	{Program: "espresso", Allocator: "lifetime", Caches: true},
	{Program: "server", Allocator: "locarena", Caches: true, Server: true},
	{Program: "server", Allocator: "firstfit-nocoalesce", Caches: true, Server: true},
	{Program: "espresso", Allocator: "firstfit", Observe: true},
	{Program: "espresso", Allocator: "locarena", Observe: true},
}

func init() {
	for i := range testPairs {
		testPairs[i].Scale, testPairs[i].Seed = 1024, 3
	}
}

// TestTracedMatchesSimRunContext is the traced-pipeline fidelity check:
// the benchmark's own composition, wrappers included, must produce the
// report sim.RunContext produces.
func TestTracedMatchesSimRunContext(t *testing.T) {
	for _, p := range testPairs {
		cfg, err := p.simConfig()
		if err != nil {
			t.Fatal(err)
		}
		want, err := sim.RunContext(bg, cfg)
		if err != nil {
			t.Fatal(err)
		}
		pt, err := runTraced(bg, p)
		if err != nil {
			t.Fatal(err)
		}
		wh, _ := reportDigest(want)
		gh, _ := reportDigest(pt.Result)
		if wh != gh {
			t.Errorf("%s: traced report %s, sim.RunContext %s", p.key(), gh, wh)
		}
		if pt.Refs != want.Refs.Total() || pt.Refs == 0 {
			t.Errorf("%s: traced refs %d, sim.RunContext %d", p.key(), pt.Refs, want.Refs.Total())
		}
	}
}

// TestSelfTimesSumToSpan checks the nested accounting: every layer's
// self time is non-negative and together they make up the pair span.
func TestSelfTimesSumToSpan(t *testing.T) {
	for _, p := range testPairs {
		pt, err := runTraced(bg, p)
		if err != nil {
			t.Fatal(err)
		}
		var sum int64
		for l, d := range pt.Self {
			if d < 0 {
				t.Errorf("%s: %s self time %v < 0", p.key(), layerNames[l], d)
			}
			sum += int64(d)
		}
		if sum != int64(pt.Span) || pt.Span <= 0 {
			t.Errorf("%s: self times sum to %d ns, pair span %d ns", p.key(), sum, pt.Span)
		}
		if pt.Calls[lAlloc] != pt.Ops {
			t.Errorf("%s: %d allocator calls traced, workload made %d", p.key(), pt.Calls[lAlloc], pt.Ops)
		}
		if pt.flushes() == 0 || pt.Rows == 0 {
			t.Errorf("%s: no flushes traced", p.key())
		}
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	tr.enter(lPair)
	tr.enter(lAlloc)
	tr.enter(lGroup)
	tr.exit()
	tr.enter(lCounter)
	tr.exit()
	tr.exit()
	tr.enter(lGroup)
	tr.exit()
	tr.exit()
	var sum int64
	for _, d := range tr.self {
		if d < 0 {
			t.Fatalf("negative self time %v", d)
		}
		sum += int64(d)
	}
	if sum != int64(tr.root) {
		t.Fatalf("self times sum to %d, root span %d", sum, tr.root)
	}
	if tr.calls[lGroup] != 2 || tr.calls[lAlloc] != 1 || tr.depth != 0 {
		t.Fatalf("calls %v depth %d", tr.calls, tr.depth)
	}
}

// TestTracedAllocForwarding checks the allocator wrapper is transparent
// the way obs.Instrument is: hint awareness seen through Unwrap, and the
// site and hint entry points always present.
func TestTracedAllocForwarding(t *testing.T) {
	for _, tc := range []struct {
		name string
		hint bool
	}{{"locarena", true}, {"firstfit", false}, {"lifetime", false}} {
		m := mem.New(trace.Discard, &cost.Meter{})
		a, err := alloc.New(tc.name, m)
		if err != nil {
			t.Fatal(err)
		}
		w := newTracedAlloc(a, newTracer())
		if got := alloc.HintAware(w); got != tc.hint {
			t.Errorf("%s: HintAware(wrapped) = %v, want %v", tc.name, got, tc.hint)
		}
		if w.Unwrap() != a {
			t.Errorf("%s: Unwrap does not return the allocator", tc.name)
		}
		var _ alloc.SiteAllocator = w
		var _ alloc.LocalityHinter = w
	}
}

// TestTracedSinksStayOnBlockTier checks the sink wrappers keep their
// sinks on the block tier, and the counting wrapper keeps obs
// attribution on the synchronous one.
func TestTracedSinksStayOnBlockTier(t *testing.T) {
	tr := newTracer()
	sinks := trace.NewTee(
		&tracedSink{inner: &trace.Counter{}, t: tr},
		&tracedSink{inner: cache.NewGroup(cacheConfigs()...), t: tr},
		&tracedSink{inner: vm.NewStackSim(), t: tr},
		&tracedSink{inner: cache.NewSharing(cache.SharingConfig{}), t: tr},
		&countSink{inner: trace.Discard},
	)
	blocks, batch, rest := trace.SplitBlocks(sinks)
	if len(blocks) != 4 || len(batch) != 0 {
		t.Fatalf("block tier %d, batch tier %d; want 4 and 0", len(blocks), len(batch))
	}
	if _, ok := rest.(*countSink); !ok {
		t.Fatalf("synchronous tier is %T, want *countSink", rest)
	}
}

// TestLayerSpecs checks layers.json, BENCHMARK.json's per_layer list
// and the traced run's metrics name the same metrics.
func TestLayerSpecs(t *testing.T) {
	specs, err := loadLayers()
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		PerLayer []struct {
			Name   string `json:"name"`
			Unit   string `json:"unit"`
			Better string `json:"better"`
		} `json:"per_layer"`
		EndToEnd []struct {
			Name string `json:"name"`
		} `json:"end_to_end"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	if len(bench.PerLayer) != len(specs) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, layers.json %d", len(bench.PerLayer), len(specs))
	}
	e2e := map[string]bool{}
	for _, m := range bench.EndToEnd {
		e2e[m.Name] = true
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark %v", names, workloadNames())
	}
	values := (&layerAcc{}).metrics()
	for i, s := range specs {
		pl := bench.PerLayer[i]
		if pl.Name != s.Name || pl.Unit != s.Unit || pl.Better != s.Better {
			t.Errorf("per_layer[%d] = %+v, layers.json has %s %s %s", i, pl, s.Name, s.Unit, s.Better)
		}
		if _, ok := values[s.Name]; !ok {
			t.Errorf("%s is not measured by the traced run", s.Name)
		}
		for _, mv := range s.Moves {
			if !e2e[mv.Metric] {
				t.Errorf("%s moves %q, not an end-to-end metric", s.Name, mv.Metric)
			}
		}
	}
	if len(values) != len(specs) {
		t.Errorf("traced run measures %d metrics, layers.json names %d", len(values), len(specs))
	}
}

func TestSimSeedsFor(t *testing.T) {
	for seed, want := range map[uint64][]uint64{
		0: {16, 1, 2, 3, 4, 5, 6, 7}, 1: {1, 2, 3, 4, 5, 6, 7, 8},
		14: {14, 15, 16, 1, 2, 3, 4, 5}, 17: {1, 2, 3, 4, 5, 6, 7, 8},
	} {
		if got := simSeedsFor(seed); !reflect.DeepEqual(got, want) {
			t.Errorf("simSeedsFor(%d) = %v, want %v", seed, got, want)
		}
	}
	for _, w := range workloads {
		ps, err := w.setup(1)
		if err != nil {
			t.Fatal(err)
		}
		if n := seedWindow * len(ps.pairs); n < 100 {
			t.Errorf("%s: one seed window gives %d pair samples, the p90 tail needs 100", w.Name, n)
		}
	}
}

func TestCompareIncomparable(t *testing.T) {
	var spec benchSpec
	spec.EndToEnd = append(spec.EndToEnd, struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}{"wall_s", "s", "lower", 0.1})
	res := func(cpu string, commit string, wall float64) *savedResult {
		sr := &savedResult{File: commit, Correct: true, Stamp: stamp{Workload: "paper", CPU: cpu, Commit: commit}}
		sr.Metrics = map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		}{"wall_s": {wall, "s"}}
		return sr
	}
	base := map[string][]*savedResult{"paper": {res("a", "x", 1)}}
	if code := compareSets(spec, base, map[string][]*savedResult{"paper": {res("b", "y", 1)}}); code != 2 {
		t.Errorf("different CPUs: code %d, want 2 (incomparable)", code)
	}
	if code := compareSets(spec, base, map[string][]*savedResult{"paper": {res("a", "y", 1.05)}}); code != 0 {
		t.Errorf("5%% slower within a 10%% bound: code %d, want 0", code)
	}
	if code := compareSets(spec, base, map[string][]*savedResult{"paper": {res("a", "y", 1.2)}}); code != 1 {
		t.Errorf("20%% slower beyond a 10%% bound: code %d, want 1", code)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v", got)
	}
	if got := quantile(xs, 0.25); got != 2 {
		t.Errorf("q25 = %v", got)
	}
	if q, _ := tailQuantile(200); q != 0.9 {
		t.Errorf("tail of 200 samples is p%v", q*100)
	}
	if q, _ := tailQuantile(50); q != 0.8 {
		t.Errorf("tail of 50 samples is p%v, want p80", q*100)
	}
}

// TestPassIsDeterministic runs small versions of the workload shapes
// through the worker pool twice, traced and untraced, and checks every
// output digest repeats and the traced pass matches.
func TestPassIsDeterministic(t *testing.T) {
	for _, w := range []workloadDef{
		{Name: "server", Scale: 2048, Experiments: []string{"server"}},
		{Name: "allocstats", Scale: 2048},
	} {
		a, b := runPass(bg, w, 2, 2), runPass(bg, w, 2, 2)
		if a.PS == nil || a.AsmErr != nil || firstErr(a.Errs) != nil {
			t.Fatalf("%s: pass failed: %v %v", w.Name, a.AsmErr, firstErr(a.Errs))
		}
		da, err := passDigests(a)
		if err != nil {
			t.Fatal(err)
		}
		db, _ := passDigests(b)
		if !reflect.DeepEqual(da, db) {
			t.Errorf("%s: two passes differ", w.Name)
		}
		if n, f, msgs := check(da, db, b); f != 0 || n != len(da) {
			t.Errorf("%s: check %d failed of %d: %v", w.Name, f, n, msgs)
		}
		r := &run{w: w, workers: 2, exp: map[uint64]map[string]string{2: da}}
		acc := &layerAcc{}
		r.tracedPass(acc, a.PS)
		if r.failed != 0 || r.attempted != len(a.PS.pairs) {
			t.Errorf("%s: traced pass: %d failed of %d: %v", w.Name, r.failed, r.attempted, r.failures)
		}
		if len(acc.pairs) != len(a.PS.pairs) || a.Refs == 0 || a.Wall <= 0 {
			t.Errorf("%s: %d traced pairs, %d refs, wall %v", w.Name, len(acc.pairs), a.Refs, a.Wall)
		}
	}
}
