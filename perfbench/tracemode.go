package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"mallocsim/internal/obs"
	"mallocsim/internal/sim"
)

// layerSpec is one per-layer metric of layers.json: its unit and
// direction (as in BENCHMARK.json), the module it measures, how it is
// measured, which end-to-end metric it should move on which workloads,
// and the workloads on which it should move nothing.
type layerSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	Layer  string `json:"layer"`
	How    string `json:"how"`
	Moves  []struct {
		Metric    string   `json:"metric"`
		Workloads []string `json:"workloads"`
	} `json:"moves"`
	Unchanged []string `json:"unchanged"`
}

//go:embed layers.json
var layersJSON []byte

func loadLayers() ([]layerSpec, error) {
	var v struct {
		Metrics []layerSpec `json:"metrics"`
	}
	if err := json.Unmarshal(layersJSON, &v); err != nil {
		return nil, fmt.Errorf("layers.json: %w", err)
	}
	return v.Metrics, nil
}

// layerAcc accumulates the traced run over its passes.
type layerAcc struct {
	passes int
	pairs  []*pairTrace

	// untraced passes of the same run
	busy        time.Duration // sum of pair run times
	queueWait   time.Duration
	queuedPairs int
	poolCap     time.Duration
	assembly    []float64

	curve      time.Duration
	curvePairs int
	report     time.Duration

	// difference runs (obs sinks)
	attribDiff, instrDiff time.Duration
	diffRefs, diffCalls   uint64
}

// traced runs alternating untraced and traced passes for --seconds and
// reports the per-layer metrics of layers.json.
func (r *run) traced(spansPath string) ([]metric, error) {
	specs, err := loadLayers()
	if err != nil {
		return nil, err
	}
	warm := runPass(bg, r.w, r.passSeed(0), r.workers)
	if warm.PS == nil {
		return nil, warm.AsmErr
	}
	r.verify(warm)

	acc := &layerAcc{}
	since := time.Now()
	var last time.Duration
	for n := 0; r.more(n, since, 1, last); n++ {
		t0 := time.Now()
		runtime.GC()
		up := runPass(bg, r.w, r.passSeed(n), r.workers)
		if up.PS == nil {
			return nil, up.AsmErr
		}
		r.verify(up)
		for _, p := range up.Pairs {
			acc.queueWait += p.Wait
			acc.busy += p.Run
		}
		acc.queuedPairs += len(up.Pairs)
		acc.poolCap += up.Pool * time.Duration(min(r.workers, len(up.Pairs)))
		acc.assembly = append(acc.assembly, ms(up.Assembly))

		runtime.GC()
		r.tracedPass(acc, up.PS)
		if up.PS.runner == nil {
			r.difference(acc, up.PS)
		}
		acc.passes++
		last = time.Since(t0)
	}
	if err := writeSpans(spansPath, r.stamp, acc.pairs); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: spans not written: %v\n", err)
	}
	values := acc.metrics()
	var out []metric
	for _, s := range specs {
		v, ok := values[s.Name]
		if !ok {
			return nil, fmt.Errorf("layers.json names %q, which the traced run does not measure", s.Name)
		}
		out = append(out, metric{s.Name, v, s.Unit, s.How})
	}
	return out, nil
}

// tracedPass runs every pair of the matrix through the traced
// composition on the worker pool, then checks that each produced the
// report sim.RunContext produces (the recorded digest).
func (r *run) tracedPass(acc *layerAcc, ps *passState) {
	pts := make([]*pairTrace, len(ps.pairs))
	errs := make([]error, len(ps.pairs))
	pool(r.workers, len(ps.pairs), func(i int) {
		pts[i], errs[i] = runTraced(bg, ps.pairs[i])
	})
	for i, pt := range pts {
		key := ps.pairs[i].key()
		r.attempted++
		if errs[i] != nil {
			r.failed++
			r.failures = append(r.failures, fmt.Sprintf("traced %s: %v", key, errs[i]))
			continue
		}
		if pt.Result.Curve != nil {
			t0 := time.Now()
			pt.Result.Curve.Sweep()
			acc.curve += time.Since(t0)
			acc.curvePairs++
		}
		t0 := time.Now()
		h, err := reportDigest(pt.Result)
		acc.report += time.Since(t0)
		if want := r.exp[ps.seed][key]; err != nil || h != want {
			r.failed++
			r.failures = append(r.failures, fmt.Sprintf("traced %s seed %d: report digest %s, sim.RunContext gives %s", key, ps.seed, h, want))
		}
		pt.Result = nil // keep only the spans
		acc.pairs = append(acc.pairs, pt)
	}
}

// difference measures the obs sinks that cost less per call than a
// clock read: each pair runs through sim.RunContext with everything
// (Recorder and Attribution), without the Attribution sink, and without
// the Recorder (so without obs.Instrument), twice each, and the fastest
// times' differences are charged to the sink that was left out.
func (r *run) difference(acc *layerAcc, ps *passState) {
	type times struct{ full, noAttrib, noRecorder time.Duration }
	res := make([]times, len(ps.pairs))
	stats := make([]*sim.Result, len(ps.pairs))
	pool(r.workers, len(ps.pairs), func(i int) {
		cfg, err := ps.pairs[i].simConfig()
		if err != nil {
			return
		}
		timed := func(rec *obs.Recorder, attrib bool) time.Duration {
			c := cfg
			c.Recorder, c.Attribution = rec, attrib
			t0 := time.Now()
			out, err := sim.RunContext(context.Background(), c)
			d := time.Since(t0)
			if err == nil && stats[i] == nil {
				stats[i] = out
			}
			return d
		}
		best := times{1 << 62, 1 << 62, 1 << 62}
		for rep := 0; rep < 2; rep++ {
			best.full = min(best.full, timed(&obs.Recorder{}, true))
			best.noAttrib = min(best.noAttrib, timed(&obs.Recorder{}, false))
			best.noRecorder = min(best.noRecorder, timed(nil, true))
		}
		res[i] = best
	})
	for i, t := range res {
		if stats[i] == nil {
			continue
		}
		acc.attribDiff += t.full - t.noAttrib
		acc.instrDiff += t.full - t.noRecorder
		acc.diffRefs += stats[i].Refs.Total()
		acc.diffCalls += stats[i].Workload.Allocs + stats[i].Workload.Frees
	}
}

// metrics derives every per-layer value from the accumulated passes.
// A layer the workload does not run reports 0.
func (acc *layerAcc) metrics() map[string]float64 {
	var span time.Duration
	var refs, ops, rows, flushes, sync, scan, instr uint64
	var self [numLayers]time.Duration
	var calls [numLayers]uint64
	var groupRefs, vmRefs, sharingRefs uint64
	var groupPairs int
	for _, p := range acc.pairs {
		span += p.Span
		refs += p.Refs
		ops += p.Ops
		rows += p.Rows
		flushes += p.flushes()
		sync += p.SyncRefs
		scan += p.Scan
		instr += p.Instr
		for l := range self {
			self[l] += p.Self[l]
			calls[l] += p.Calls[l]
		}
		if p.Calls[lGroupResults] > 0 {
			groupRefs += p.Refs
			groupPairs++
		}
		if p.Calls[lStackSim] > 0 {
			vmRefs += p.Refs
		}
		if p.Calls[lSharing] > 0 {
			sharingRefs += p.Refs
		}
	}
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	ns := func(d time.Duration) float64 { return float64(d.Nanoseconds()) }
	passes := float64(max(acc.passes, 1))
	fspan := ns(span)
	return map[string]float64{
		"workload.self_ns_per_ref":   div(ns(self[lPair]), float64(refs)),
		"workload.self_share":        div(ns(self[lPair]), fspan),
		"workload.ops":               float64(ops) / passes,
		"alloc.calls":                float64(calls[lAlloc]) / passes,
		"alloc.self_ns_per_call":     div(ns(self[lAlloc]), float64(calls[lAlloc])),
		"alloc.self_share":           div(ns(self[lAlloc]), fspan),
		"alloc.scan_steps_per_call":  div(float64(scan), float64(calls[lAlloc])),
		"alloc.sim_instr_per_call":   div(float64(instr), float64(calls[lAlloc])),
		"mem.flushes":                float64(flushes) / passes,
		"mem.rows_per_flush":         div(float64(rows), float64(flushes)),
		"mem.refs_per_row":           div(float64(refs), float64(rows)),
		"mem.sync_refs":              float64(sync) / passes,
		"trace.counter.ns_per_ref":   div(ns(self[lCounter]), float64(refs)),
		"cache.group.ns_per_ref":     div(ns(self[lGroup]), float64(groupRefs)),
		"cache.group.share":          div(ns(self[lGroup]), fspan),
		"cache.group.results_ms":     div(ns(self[lGroupResults])/1e6, float64(groupPairs)),
		"cache.sharing.ns_per_ref":   div(ns(self[lSharing]), float64(sharingRefs)),
		"cache.sharing.share":        div(ns(self[lSharing]), fspan),
		"vm.stacksim.ns_per_ref":     div(ns(self[lStackSim]), float64(vmRefs)),
		"vm.stacksim.share":          div(ns(self[lStackSim]), fspan),
		"vm.curve_ms":                div(ns(acc.curve)/1e6, float64(acc.curvePairs)),
		"obs.attribution.ns_per_ref": div(ns(acc.attribDiff), float64(acc.diffRefs)),
		"obs.instrument.ns_per_call": div(ns(acc.instrDiff), float64(acc.diffCalls)),
		"obs.report_ms":              div(ns(acc.report)/1e6, float64(len(acc.pairs))),
		"sim.setup_ms":               div(ns(self[lSetup])/1e6, float64(len(acc.pairs))),
		"paper.queue_wait_ms":        div(ns(acc.queueWait)/1e6, float64(acc.queuedPairs)),
		"paper.worker_busy_share":    div(ns(acc.busy), ns(acc.poolCap)),
		"paper.assembly_ms":          median(acc.assembly),
		"bench.trace_overhead_pct":   (div(fspan, ns(acc.busy)) - 1) * 100,
	}
}

// writeSpans writes the per-pair, per-layer spans of the traced run.
func writeSpans(path string, st stamp, pairs []*pairTrace) error {
	type pairOut struct {
		Pair   string            `json:"pair"`
		SpanNs int64             `json:"span_ns"`
		SelfNs map[string]int64  `json:"self_ns"`
		Calls  map[string]uint64 `json:"calls"`
		Refs   uint64            `json:"refs"`
	}
	out := struct {
		Stamp stamp     `json:"stamp"`
		Pairs []pairOut `json:"pairs"`
	}{Stamp: st}
	for _, p := range pairs {
		po := pairOut{Pair: p.Key, SpanNs: p.Span.Nanoseconds(), SelfNs: map[string]int64{},
			Calls: map[string]uint64{}, Refs: p.Refs}
		for l := layer(0); l < numLayers; l++ {
			if p.Calls[l] > 0 {
				po.SelfNs[layerNames[l]] = p.Self[l].Nanoseconds()
				po.Calls[layerNames[l]] = p.Calls[l]
			}
		}
		out.Pairs = append(out.Pairs, po)
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
