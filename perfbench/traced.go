package main

// The traced run rebuilds each pair's pipeline from the simulator's
// public constructors, exactly as sim.RunContext composes it, and puts
// benchmark-owned timing wrappers at every layer boundary: around the
// allocator (outermost, like obs.Instrument) and around each block-tier
// sink. Spans nest — mem flushes fire inside allocator calls — so the
// tracer keeps a span stack and charges a child's time to the innermost
// open span; a layer's self time is its spans' durations minus their
// children's. Per-call spans are folded into per-pair, per-layer totals
// as they close, so a pair's spans cost a fixed amount of memory.

import (
	"context"
	"fmt"
	"strings"
	"time"

	"mallocsim/internal/alloc"
	"mallocsim/internal/cache"
	"mallocsim/internal/cost"
	"mallocsim/internal/mem"
	"mallocsim/internal/obs"
	"mallocsim/internal/paper"
	"mallocsim/internal/sim"
	"mallocsim/internal/trace"
	"mallocsim/internal/vm"
	"mallocsim/internal/workload"
)

// layer names one traced boundary. lPair is the root span of a pair;
// its self time is the workload driver's own work (decisions, RNG and
// mem emit), since every call out of the driver is a child span.
type layer int

const (
	lPair layer = iota
	lSetup
	lAlloc
	lCounter
	lGroup
	lStackSim
	lSharing
	lGroupResults
	numLayers
)

var layerNames = [numLayers]string{
	"workload", "sim.setup", "alloc", "trace.counter", "cache.group",
	"vm.stacksim", "cache.sharing", "cache.group.results",
}

// maxDepth bounds span nesting: pair → alloc → sink is the deepest
// chain the pipeline produces.
const maxDepth = 8

type frame struct {
	l     layer
	start time.Duration
	child time.Duration
}

// tracer is one pair's span stack and per-layer accumulators. It is
// owned by the goroutine running the pair.
type tracer struct {
	origin time.Time
	stack  [maxDepth]frame
	depth  int
	self   [numLayers]time.Duration
	calls  [numLayers]uint64
	root   time.Duration // duration of the last closed root span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) enter(l layer) {
	t.stack[t.depth] = frame{l: l, start: time.Since(t.origin)}
	t.depth++
}

func (t *tracer) exit() {
	end := time.Since(t.origin)
	t.depth--
	f := t.stack[t.depth]
	d := end - f.start
	t.self[f.l] += d - f.child
	t.calls[f.l]++
	if t.depth > 0 {
		t.stack[t.depth-1].child += d
	} else {
		t.root = d
	}
}

// tracedAlloc times every allocator entry point. Like obs.Instrument it
// implements alloc.SiteAllocator and alloc.LocalityHinter
// unconditionally, forwarding to the wrapped allocator's MallocSite /
// MallocLocal when it has one and falling back to Malloc otherwise, and
// exposes Unwrap so alloc.HintAware sees the allocator underneath.
type tracedAlloc struct {
	inner alloc.Allocator
	site  alloc.SiteAllocator
	hint  alloc.LocalityHinter
	t     *tracer
}

func newTracedAlloc(a alloc.Allocator, t *tracer) *tracedAlloc {
	w := &tracedAlloc{inner: a, t: t}
	w.site, _ = a.(alloc.SiteAllocator)
	w.hint, _ = a.(alloc.LocalityHinter)
	return w
}

func (w *tracedAlloc) Unwrap() alloc.Allocator { return w.inner }
func (w *tracedAlloc) Name() string            { return w.inner.Name() }

func (w *tracedAlloc) Malloc(n uint32) (uint64, error) {
	w.t.enter(lAlloc)
	addr, err := w.inner.Malloc(n)
	w.t.exit()
	return addr, err
}

func (w *tracedAlloc) MallocSite(n uint32, site uint32) (uint64, error) {
	if w.site == nil {
		return w.Malloc(n)
	}
	w.t.enter(lAlloc)
	addr, err := w.site.MallocSite(n, site)
	w.t.exit()
	return addr, err
}

func (w *tracedAlloc) MallocLocal(n uint32, locality uint32) (uint64, error) {
	if w.hint == nil {
		return w.Malloc(n)
	}
	w.t.enter(lAlloc)
	addr, err := w.hint.MallocLocal(n, locality)
	w.t.exit()
	return addr, err
}

func (w *tracedAlloc) Free(addr uint64) error {
	w.t.enter(lAlloc)
	err := w.inner.Free(addr)
	w.t.exit()
	return err
}

// tracedSink times a block-tier sink. It implements trace.BlockSink so
// mem.Memory keeps delivering to it once per flush, and it counts the
// rows it is handed.
type tracedSink struct {
	inner trace.BlockSink
	l     layer
	t     *tracer
	rows  uint64
}

func (s *tracedSink) Ref(r trace.Ref) {
	s.t.enter(s.l)
	s.inner.Ref(r)
	s.t.exit()
}

func (s *tracedSink) Block(b *trace.Block) {
	s.t.enter(s.l)
	s.inner.Block(b)
	s.t.exit()
	s.rows += uint64(len(b.Addrs))
}

// countSink counts the references an immediate-tier sink receives
// without timing them: obs.Attribution costs less per reference than a
// clock read, so its cost is measured by difference (see
// measureDifference). It implements only trace.Sink, so it stays on the
// synchronous tier exactly like the sink it wraps.
type countSink struct {
	inner trace.Sink
	refs  uint64
}

func (s *countSink) Ref(r trace.Ref) {
	s.refs++
	s.inner.Ref(r)
}

// pairSpec is the pipeline one pair runs: what sim.Config would say.
type pairSpec struct {
	Program     string
	Allocator   string
	Scale, Seed uint64
	Caches      bool // the paper's five direct-mapped caches
	PageSim     bool
	Server      bool
	Observe     bool // obs.Recorder + obs.Attribution, as cmd/allocstats runs
}

// pageSimPrograms mirrors the paper runner: GhostScript and PTC carry
// page-fault simulation. The fidelity check fails if it drifts.
var pageSimPrograms = map[string]bool{"gs": true, "ptc": true}

func (p pairSpec) key() string { return p.Program + "/" + p.Allocator }

func cacheConfigs() []cache.Config {
	cfgs := make([]cache.Config, len(paper.CacheSizes))
	for i, s := range paper.CacheSizes {
		cfgs[i] = cache.Config{Size: s}
	}
	return cfgs
}

// simConfig is the public-entry-point form of the same pair.
func (p pairSpec) simConfig() (sim.Config, error) {
	cfg := sim.Config{Allocator: p.Allocator, Scale: p.Scale, Seed: p.Seed, PageSim: p.PageSim}
	if p.Caches {
		cfg.Caches = cacheConfigs()
	}
	if p.Server {
		srv, ok := workload.ServerByName(p.Program)
		if !ok {
			return cfg, fmt.Errorf("unknown server scenario %q", p.Program)
		}
		cfg.Server = &srv
	} else {
		prog, ok := workload.ByName(p.Program)
		if !ok {
			return cfg, fmt.Errorf("unknown program %q", p.Program)
		}
		cfg.Program = prog
	}
	if p.Observe {
		cfg.Recorder = &obs.Recorder{}
		cfg.Attribution = true
	}
	return cfg, nil
}

// pairTrace is one traced pair: its span, per-layer self times and
// counts, and the report its pipeline produced.
type pairTrace struct {
	Key      string
	Span     time.Duration
	Self     [numLayers]time.Duration
	Calls    [numLayers]uint64
	Refs     uint64 // simulated references (Result.Refs)
	Ops      uint64 // workload mallocs + frees
	Rows     uint64 // block rows mem flushed
	SyncRefs uint64 // references delivered on the immediate tier
	Scan     uint64 // alloc.Scanner steps
	Instr    uint64 // simulated malloc+free instructions
	Result   *sim.Result
}

// flushes is the number of mem flushes: every flush hands the reference
// counter one block.
func (p *pairTrace) flushes() uint64 { return p.Calls[lCounter] }

// runTraced runs one pair through the traced composition.
func runTraced(ctx context.Context, p pairSpec) (*pairTrace, error) {
	cfg, err := p.simConfig()
	if err != nil {
		return nil, err
	}
	t := newTracer()
	t.enter(lPair)
	t.enter(lSetup)

	meter := &cost.Meter{}
	var counter trace.Counter
	tc := &tracedSink{inner: &counter, l: lCounter, t: t}
	sinks := []trace.Sink{tc}
	var group *cache.Group
	if len(cfg.Caches) > 0 {
		group = cache.NewGroup(cfg.Caches...)
		sinks = append(sinks, &tracedSink{inner: group, l: lGroup, t: t})
	}
	var pages *vm.StackSim
	if cfg.PageSim {
		pages = vm.NewStackSim()
		sinks = append(sinks, &tracedSink{inner: pages, l: lStackSim, t: t})
	}
	m := mem.New(trace.Discard, meter)
	var sharing *cache.Sharing
	if cfg.Server != nil {
		sharing = cache.NewSharing(cache.SharingConfig{
			RegionOf: func(addr uint64) int {
				for i, r := range m.Regions() {
					if r.Contains(addr) {
						return i
					}
				}
				return 0
			},
		})
		sinks = append(sinks, &tracedSink{inner: sharing, l: lSharing, t: t})
	}
	var attrib *obs.Attribution
	var direct *countSink
	if cfg.Attribution {
		attrib = obs.NewAttribution(m, meter)
		direct = &countSink{inner: attrib}
		sinks = append(sinks, direct)
	}
	if cfg.Recorder != nil {
		cfg.Recorder.FootprintFn = m.Footprint
	}
	m.SetSink(trace.NewTee(sinks...))
	m.SetBatching(0)

	a, err := alloc.New(cfg.Allocator, m)
	if err != nil {
		return nil, err
	}
	if cfg.Recorder != nil {
		a = obs.Instrument(a, meter, cfg.Recorder)
	}
	scanner, _ := a.(alloc.Scanner)
	if in, ok := a.(interface{ Unwrap() alloc.Allocator }); ok {
		scanner, _ = in.Unwrap().(alloc.Scanner)
	}
	ta := newTracedAlloc(a, t)
	t.exit() // lSetup

	var stats workload.Stats
	if cfg.Server != nil {
		stats, err = workload.RunServerContext(ctx, m, ta, workload.ServerRunConfig{
			Scenario: *cfg.Server, Scale: cfg.Scale, Seed: cfg.Seed,
		})
	} else {
		stats, err = workload.RunContext(ctx, m, ta, workload.Config{
			Program: cfg.Program, Scale: cfg.Scale, Seed: cfg.Seed,
		})
	}
	if err != nil {
		return nil, fmt.Errorf("traced %s: %w", p.key(), err)
	}
	m.Flush()

	res := &sim.Result{
		Program:        p.Program,
		Allocator:      cfg.Allocator,
		Scale:          cfg.Scale,
		Seed:           cfg.Seed,
		Workload:       stats,
		Instr:          meter.Snapshot(),
		Refs:           counter,
		TotalFootprint: m.Footprint(),
		Recorder:       cfg.Recorder,
	}
	for _, r := range m.Regions() {
		name := r.Name()
		// The workload's own segments, as sim.RunContext excludes them.
		if name == p.Program+"-globals" || strings.HasPrefix(name, p.Program+"-stack") {
			continue
		}
		res.Footprint += r.Size()
	}
	if group != nil {
		t.enter(lGroupResults)
		res.Caches = group.Results()
		t.exit()
	}
	if pages != nil {
		res.Curve = pages.Curve()
	}
	if attrib != nil {
		res.Attribution = attrib.Rows()
	}
	if sharing != nil {
		res.Sharing = sharingSummary(sharing.Report(), m.Regions(), cfg.Server.Threads)
	}
	t.exit() // lPair

	pt := &pairTrace{
		Key:    p.key(),
		Span:   t.root,
		Self:   t.self,
		Calls:  t.calls,
		Refs:   counter.Total(),
		Ops:    stats.Allocs + stats.Frees,
		Rows:   tc.rows,
		Instr:  res.Instr.Malloc + res.Instr.Free,
		Result: res,
	}
	if direct != nil {
		pt.SyncRefs = direct.refs
	}
	if scanner != nil {
		pt.Scan = scanner.ScanSteps()
	}
	return pt, nil
}

// sharingSummary resolves the attributor's region indices to region
// names, as sim.RunContext does for its report.
func sharingSummary(rep cache.SharingReport, regions []*mem.Region, threads int) *obs.SharingSummary {
	s := &obs.SharingSummary{
		Threads:     threads,
		TrueEvents:  rep.True,
		FalseEvents: rep.False,
		PingLines:   rep.PingLines,
	}
	for _, row := range rep.Rows {
		name := "?"
		if row.Region >= 0 && row.Region < len(regions) {
			name = regions[row.Region].Name()
		}
		s.Rows = append(s.Rows, obs.SharingRow{
			Region:      name,
			Tid:         uint32(row.Tid),
			TrueEvents:  row.True,
			FalseEvents: row.False,
		})
	}
	return s
}
