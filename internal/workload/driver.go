package workload

import (
	"context"
	"fmt"

	"mallocsim/internal/alloc"
	"mallocsim/internal/cost"
	"mallocsim/internal/mem"
	"mallocsim/internal/rng"
	"mallocsim/internal/trace"
)

// Config parameterizes one driver run.
type Config struct {
	Program Program
	// Scale divides the program's event counts: Scale 16 runs 1/16 of
	// the allocations, references and instructions. The long-lived
	// object count is *not* scaled (it is interleaved more densely), so
	// for churn-dominated programs the heap footprint — and therefore
	// cache and paging behaviour — is preserved across scales. Scale 1
	// reproduces Table 2 exactly.
	Scale uint64
	// Seed makes runs reproducible; the same seed yields the identical
	// operation sequence regardless of allocator.
	Seed uint64
	// SampleEvery, when non-zero, captures a fragmentation sample every
	// that many allocation steps: live payload bytes versus heap bytes
	// requested from the OS. The series shows how each allocator's
	// space overhead evolves (the paper's §4.1 space-efficiency axis).
	SampleEvery uint64
}

// Sample is one point of the fragmentation time series.
type Sample struct {
	Step uint64
	// LiveBytes is the payload currently allocated by the program.
	LiveBytes uint64
	// HeapBytes is what the allocator has requested from the OS
	// (excluding the workload's own stack/global segments).
	HeapBytes uint64
}

// Overhead returns HeapBytes per live payload byte.
func (s Sample) Overhead() float64 {
	if s.LiveBytes == 0 {
		return 0
	}
	return float64(s.HeapBytes) / float64(s.LiveBytes)
}

// Stats summarizes a completed run (the raw material of Table 2).
type Stats struct {
	Program   string
	Allocs    uint64
	Frees     uint64
	FinalLive uint64
	// LiveBytes is the payload bytes still allocated at exit.
	LiveBytes uint64
	// ReqBytes is the total payload bytes requested over the run.
	ReqBytes uint64
	// Handoffs counts producer/consumer cross-thread frees: objects
	// allocated by one logical thread and freed by another. Always zero
	// for the (single-threaded) program driver; the server driver fills
	// it in.
	Handoffs uint64
	// Samples is the fragmentation time series (Config.SampleEvery).
	Samples []Sample
}

// recencyWindow is the temporal-locality model: the application mostly
// re-references recently used objects, Zipf-weighted by recency rank.
const (
	windowSize  = 32
	zipfExp     = 1.1
	windowProb  = 0.85 // else uniform over all live objects
	writeProb   = 0.3
	maxRunWords = 8
)

type object struct {
	addr uint64
	size uint32
	idx  int // position in the live slice
	dead bool
}

// deathEvent schedules an object's free.
type deathEvent struct {
	step uint64
	obj  *object
}

// deathQueue is a binary min-heap on step.
type deathQueue []deathEvent

func (q *deathQueue) push(e deathEvent) {
	*q = append(*q, e)
	i := len(*q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if (*q)[parent].step <= (*q)[i].step {
			break
		}
		(*q)[parent], (*q)[i] = (*q)[i], (*q)[parent]
		i = parent
	}
}

func (q *deathQueue) pop() deathEvent {
	h := *q
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	*q = h[:last]
	i, n := 0, last
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h[l].step < h[smallest].step {
			smallest = l
		}
		if r < n && h[r].step < h[smallest].step {
			smallest = r
		}
		if smallest == i {
			break
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
	return top
}

// model is the heap and reference model both drivers run on: the
// charged allocator call, the live set, the global segment and the
// per-reference generator that spends a reference budget on stack,
// global and heap words. The program driver embeds one model and one
// stream; the server driver embeds one model and gives each logical
// thread its own stream.
type model struct {
	m      *mem.Memory
	a      alloc.Allocator
	hinter alloc.LocalityHinter // non-nil only when a exploits hints
	meter  *cost.Meter

	sizeRng *rng.Rand
	lifeRng *rng.Rand
	refRng  *rng.Rand

	windowZipf *rng.Zipf
	globalZipf *rng.Zipf
	globalHot  []uint64

	// stackFrac and globalFrac split data references between the
	// issuing stream's stack and the global segment; the rest go to the
	// heap.
	stackFrac  float64
	globalFrac float64

	refsAcc  float64 // reference budget accumulator
	refsStep uint64  // references emitted this step

	live      []*object
	liveBytes uint64

	stats Stats
}

// init prepares the model for one run of the named workload and returns
// the root generator, from which a driver may split further streams
// after the model's size, lifetime and reference generators.
func (d *model) init(m *mem.Memory, a alloc.Allocator, name string, seed uint64, stackFrac, globalFrac float64) *rng.Rand {
	d.m, d.a, d.meter = m, a, m.Meter()
	if d.meter == nil {
		d.meter = &cost.Meter{}
	}
	// Locality hints flow only to allocators that natively exploit them.
	// alloc.HintAware sees through instrumentation wrappers (which
	// implement MallocLocal unconditionally as a transparent fallback):
	// without the probe, a wrapped site-aware allocator would be routed
	// down the hint path and lose its site information.
	if alloc.HintAware(a) {
		d.hinter, _ = a.(alloc.LocalityHinter)
	}
	root := rng.New(seed ^ hashName(name))
	d.sizeRng = root.Split()
	d.lifeRng = root.Split()
	d.refRng = root.Split()
	d.windowZipf = rng.NewZipf(windowSize, zipfExp)
	d.stackFrac, d.globalFrac = stackFrac, globalFrac
	d.stats.Program = name
	return root
}

// newStream creates one logical thread's stack segment — a small,
// intensely hot region — and the stream that references it.
func (d *model) newStream(name string) (stream, *mem.Region, error) {
	stack := d.m.NewRegion(name, 64*1024)
	sb, err := stack.Sbrk(8 * 1024)
	if err != nil {
		return stream{}, nil, err
	}
	return stream{stackBase: sb, sp: 1024}, stack, nil
}

// newGlobals creates the global segment with a Zipf-hot set of 64 word
// addresses.
func (d *model) newGlobals(name string, bytes uint64) (*mem.Region, error) {
	globals := d.m.NewRegion(name, 0)
	gb, err := globals.Sbrk(bytes)
	if err != nil {
		return nil, err
	}
	d.globalHot = make([]uint64, 64)
	for i := range d.globalHot {
		d.globalHot[i] = gb + mem.AlignUp(d.refRng.Uint64n(bytes-4), mem.WordSize)
	}
	d.globalZipf = rng.NewZipf(len(d.globalHot), 1.0)
	return globals, nil
}

// finish records the live set at exit and returns the run's stats.
func (d *model) finish() Stats {
	d.stats.FinalLive = uint64(len(d.live))
	d.stats.LiveBytes = d.liveBytes
	return d.stats
}

// stream is one logical thread's reference state: its stack pointer
// and the recency window of objects it used last.
type stream struct {
	stackBase uint64
	sp        uint64
	window    [windowSize]*object
	wpos      int
}

// promote makes o the stream's most recently used object.
func (s *stream) promote(o *object) {
	s.window[s.wpos] = o
	s.wpos = (s.wpos + 1) % windowSize
}

// driver holds one program run's state.
type driver struct {
	model
	stream
	prog Program

	churnDist    *rng.Discrete
	churnSizes   []uint32
	immortalDist *rng.Discrete
	immortalSzs  []uint32

	deaths  deathQueue
	nonHeap []*mem.Region // stack + globals, excluded from heap samples
}

// cancelCheckEvery is the cancellation-poll cadence of the driver's
// step loop: every that many allocation steps RunContext checks whether
// its context is done. One step is a bounded amount of work (one
// malloc, the scheduled frees, and the step's reference budget), so the
// poll granularity keeps cancellation latency in the low milliseconds
// while the check itself — one interface call on a non-cancellable
// context — stays invisible in profiles.
const cancelCheckEvery = 1024

// Run drives the program model against allocator a on memory m,
// creating stack and global regions on m for the application's
// non-heap references. The allocator must already be constructed on
// the same memory. References flow to m's sink; instructions to its
// meter with malloc/free time in the proper cost domains.
func Run(m *mem.Memory, a alloc.Allocator, cfg Config) (Stats, error) {
	return RunContext(context.Background(), m, a, cfg)
}

// RunContext is Run with cooperative cancellation: the step loop polls
// ctx every cancelCheckEvery allocation steps and returns early with
// context.Cause(ctx) wrapped in the error when the context is done.
// Cancellation does not perturb determinism — a run that completes
// produces byte-identical results whether or not ctx is cancellable.
func RunContext(ctx context.Context, m *mem.Memory, a alloc.Allocator, cfg Config) (Stats, error) {
	if cfg.Scale == 0 {
		cfg.Scale = 1
	}
	p := cfg.Program
	d := &driver{prog: p}
	d.init(m, a, p.Name, cfg.Seed, p.StackFrac, p.GlobalFrac)
	d.churnDist, d.churnSizes = buildDist(p.ChurnSizes)
	d.immortalDist, d.immortalSzs = buildDist(p.ImmortalSizes)

	s, stack, err := d.newStream(p.Name + "-stack")
	if err != nil {
		return Stats{}, err
	}
	d.stream = s
	globals, err := d.newGlobals(p.Name+"-globals", p.GlobalBytes)
	if err != nil {
		return Stats{}, err
	}
	d.nonHeap = append(d.nonHeap, stack, globals)

	nAllocs := p.Allocs / cfg.Scale
	if nAllocs == 0 {
		nAllocs = 1
	}
	// The long-lived object count is kept at its full-scale value so the
	// heap footprint survives downscaling, but at extreme scales it is
	// capped so churn still dominates the run (real behaviour at any
	// scale has far more deaths than survivors). Programs that free
	// nothing (PTC) bypass this via the immortal branch below.
	immortalTarget := p.ImmortalCount()
	if p.Frees > 0 && immortalTarget > nAllocs/2 {
		immortalTarget = nAllocs / 2
	}
	// Bresenham-style interleaving spreads exactly immortalTarget
	// long-lived allocations through the run, in small bursts: real
	// programs allocate long-lived structure in clusters (loading a
	// document, building a table), not one object at a time. Bursting
	// also keeps the permanent heap from shredding the address space
	// into isolated holes beyond what real programs exhibit.
	const immortalBurst = 4
	var immAcc uint64
	var immPending uint64
	refsPerStep := p.RefsPerAlloc()
	instrPerStep := p.InstrPerAlloc()

	var frees uint64 // amortized cancellation poll across death drains
	for step := uint64(0); step < nAllocs; step++ {
		if step%cancelCheckEvery == 0 && ctx.Err() != nil {
			return d.stats, fmt.Errorf("workload %s: aborted at step %d/%d: %w",
				p.Name, step, nAllocs, context.Cause(ctx))
		}
		// Deaths scheduled at or before this step happen first, so the
		// allocator sees the recycling opportunity the paper's
		// segregated-storage designs exploit. The drain after a free
		// burst is unbounded in step terms, so it polls on its own
		// counter (ctx.Err() is nil until cancellation, so the poll
		// leaves uncancelled runs byte-identical).
		for len(d.deaths) > 0 && d.deaths[0].step <= step {
			frees++
			if frees%cancelCheckEvery == 0 && ctx.Err() != nil {
				return d.stats, fmt.Errorf("workload %s: aborted at step %d/%d: %w",
					p.Name, step, nAllocs, context.Cause(ctx))
			}
			ev := d.deaths.pop()
			if err := d.free(ev.obj); err != nil {
				return d.stats, fmt.Errorf("workload %s step %d: %w", p.Name, step, err)
			}
		}

		immortal := false
		immAcc += immortalTarget
		if immPending > 0 {
			immPending--
			immortal = true
		} else if immAcc >= nAllocs*immortalBurst {
			immAcc -= nAllocs * immortalBurst
			immPending = immortalBurst - 1
			immortal = true
		}
		var size uint32
		var site uint32
		if immortal || p.Frees == 0 {
			idx := d.immortalDist.Sample(d.sizeRng)
			size = d.immortalSzs[idx]
			site = immortalSiteBase + uint32(idx)
			immortal = true
		} else {
			idx := d.churnDist.Sample(d.sizeRng)
			size = d.churnSizes[idx]
			site = churnSiteBase + uint32(idx)
		}

		obj, err := d.malloc(size, site, uint32(step>>localityPhaseShift))
		if err != nil {
			return d.stats, fmt.Errorf("workload %s step %d: %w", p.Name, step, err)
		}
		d.promote(obj)
		if !immortal {
			death := step + 1 + d.sampleLife()
			// Phase behaviour: deaths land on batch boundaries, so the
			// program releases objects in bursts.
			if b := p.FreeBatch; b > 1 {
				death = (death + b - 1) / b * b
			}
			d.deaths.push(deathEvent{step: death, obj: obj})
		}

		// The application initializes its new object...
		d.refsStep = 0
		d.initObject(obj)
		// ...then computes, referencing stack, globals and the heap.
		d.refsAcc += refsPerStep - float64(d.refsStep)
		d.emitRefs(&d.stream)
		// Pure-compute instructions fill out the instruction budget
		// (each reference already charged one instruction).
		if extra := instrPerStep - float64(d.refsStep); extra > 1 {
			d.meter.ChargeTo(cost.App, uint64(extra))
		}

		if cfg.SampleEvery > 0 && step%cfg.SampleEvery == 0 {
			d.stats.Samples = append(d.stats.Samples, d.sample(step))
		}
	}
	return d.finish(), nil
}

func hashName(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

func buildDist(sw []SizeWeight) (*rng.Discrete, []uint32) {
	weights := make([]float64, len(sw))
	sizes := make([]uint32, len(sw))
	for i, e := range sw {
		weights[i] = e.Weight
		sizes[i] = e.Size
	}
	return rng.NewDiscrete(weights), sizes
}

func (d *driver) sampleLife() uint64 {
	p := d.prog
	if p.MediumFrac > 0 && d.lifeRng.Bool(p.MediumFrac) {
		return d.lifeRng.Geometric(p.MediumLife)
	}
	return d.lifeRng.Geometric(p.ShortLife)
}

// Synthetic call-site identifiers: each size-distribution entry plays
// the role of one allocation site, the granularity at which Barrett &
// Zorn-style predictors observe programs. Site-aware allocators (the
// lifetime package) receive them; everything else sees plain Malloc.
const (
	churnSiteBase    = 1
	immortalSiteBase = 1001
)

// localityPhaseShift derives an object's locality hint from its birth
// step: steps in the same 2^localityPhaseShift-step window share a
// hint, modelling a program phase whose objects are born — and will be
// referenced — together. Hint-aware allocators (alloc.LocalityHinter)
// receive it; everything else is untouched, and the derivation costs
// no randomness or instructions, so non-hinted runs stay
// byte-identical.
const localityPhaseShift = 6

// sample captures one fragmentation time-series point.
func (d *driver) sample(step uint64) Sample {
	heap := d.m.Footprint()
	for _, r := range d.nonHeap {
		heap -= r.Size()
	}
	return Sample{Step: step, LiveBytes: d.liveBytes, HeapBytes: heap}
}

// malloc allocates size bytes in the malloc cost domain. A hint-aware
// allocator receives the locality hint, a site-aware one the call site,
// and everything else plain Malloc.
func (d *model) malloc(size, site, hint uint32) (*object, error) {
	prev := d.meter.Enter(cost.Malloc)
	d.meter.Charge(alloc.CallOverhead)
	var addr uint64
	var err error
	if d.hinter != nil {
		addr, err = d.hinter.MallocLocal(size, hint)
	} else if sa, ok := d.a.(alloc.SiteAllocator); ok {
		addr, err = sa.MallocSite(size, site)
	} else {
		addr, err = d.a.Malloc(size)
	}
	d.meter.Enter(prev)
	if err != nil {
		return nil, err
	}
	d.stats.Allocs++
	d.stats.ReqBytes += uint64(size)
	d.liveBytes += uint64(size)
	o := &object{addr: addr, size: size, idx: len(d.live)}
	d.live = append(d.live, o)
	return o, nil
}

func (d *model) free(o *object) error {
	prev := d.meter.Enter(cost.Free)
	d.meter.Charge(alloc.CallOverhead)
	err := d.a.Free(o.addr)
	d.meter.Enter(prev)
	if err != nil {
		return err
	}
	d.stats.Frees++
	d.liveBytes -= uint64(o.size)
	o.dead = true
	last := len(d.live) - 1
	d.live[o.idx] = d.live[last]
	d.live[o.idx].idx = o.idx
	d.live = d.live[:last]
	return nil
}

// initObject writes every word of the fresh object, as real programs
// initialize their allocations. Large objects (GhostScript buffers) can
// exceed one step's reference budget; the accumulator carries the debt
// forward so total references stay on target.
func (d *model) initObject(o *object) {
	words := uint64(o.size) / mem.WordSize
	if words == 0 {
		d.m.Touch(o.addr, o.size, trace.Write)
		d.refsStep++
		return
	}
	d.m.TouchRun(o.addr, words, trace.Write)
	d.refsStep += words
}

// emitRefs spends the accumulated reference budget on s's
// locality-shaped mix of stack, global and heap references.
func (d *model) emitRefs(s *stream) {
	for d.refsAcc >= 1 {
		r := d.refRng.Float64()
		switch {
		case r < d.stackFrac:
			d.stackRef(s)
			d.refsAcc--
			d.refsStep++
		case r < d.stackFrac+d.globalFrac:
			d.globalRef()
			d.refsAcc--
			d.refsStep++
		default:
			n := d.heapRun(s)
			d.refsAcc -= float64(n)
			d.refsStep += n
		}
	}
}

// stackRef models a procedure-call stack: s's pointer random-walks in a
// narrow band of its private stack and references land near it.
func (d *model) stackRef(s *stream) {
	delta := int64(d.refRng.Uint64n(129)) - 64
	sp := int64(s.sp) + delta
	if sp < 64 {
		sp = 64
	}
	if sp > 1984 {
		sp = 1984
	}
	s.sp = uint64(sp)
	off := s.sp - d.refRng.Uint64n(16)*mem.WordSize
	kind := trace.Read
	if d.refRng.Bool(0.45) {
		kind = trace.Write
	}
	d.m.Touch(s.stackBase+mem.AlignUp(off, mem.WordSize), mem.WordSize, kind)
}

// globalRef touches the Zipf-hot global words. Under the server's
// concurrent writers these lines ping-pong identically for every
// allocator: the allocator-independent true-sharing floor.
func (d *model) globalRef() {
	addr := d.globalHot[d.globalZipf.Sample(d.refRng)]
	kind := trace.Read
	if d.refRng.Bool(0.2) {
		kind = trace.Write
	}
	d.m.Touch(addr, mem.WordSize, kind)
}

// heapRun references a short sequential run of words inside one live
// object, chosen mostly from s's recency window (temporal locality)
// and otherwise uniformly from the whole live set — under the server,
// occasionally another thread's object.
func (d *model) heapRun(s *stream) uint64 {
	o := d.pickObject(s)
	if o == nil {
		// Nothing live: burn one reference on the stack instead.
		d.stackRef(s)
		return 1
	}
	words := uint64(o.size) / mem.WordSize
	if words == 0 {
		d.m.Touch(o.addr, o.size, trace.Read)
		return 1
	}
	start := d.refRng.Uint64n(words)
	run := 1 + d.refRng.Uint64n(maxRunWords)
	if run > words-start {
		run = words - start
	}
	kind := trace.Read
	if d.refRng.Bool(writeProb) {
		kind = trace.Write
	}
	d.m.TouchRun(o.addr+start*mem.WordSize, run, kind)
	s.promote(o)
	return run
}

func (d *model) pickObject(s *stream) *object {
	if len(d.live) == 0 {
		return nil
	}
	if d.refRng.Bool(windowProb) {
		// Most recent = rank 0: the window is a ring, so walk back from
		// the last insertion point.
		rank := d.windowZipf.Sample(d.refRng)
		pos := (s.wpos - 1 - rank + 2*windowSize) % windowSize
		if o := s.window[pos]; o != nil && !o.dead {
			return o
		}
	}
	// Uint64n is the draw Intn makes, without Intn's n <= 0 panic (the
	// guard above rules it out) and the boxed message it would escape.
	return d.live[d.refRng.Uint64n(uint64(len(d.live)))]
}
