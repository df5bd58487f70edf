package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"mallocsim/internal/alloc/all"
	"mallocsim/internal/obs"
	"mallocsim/internal/paper"
	"mallocsim/internal/sim"
	"mallocsim/internal/workload"
)

// workloadDef is one benchmark workload: a fixed matrix of
// (program, allocator) pairs at a fixed scale, and the outputs a user
// gets from it.
type workloadDef struct {
	Name  string
	Scale uint64
	// Experiments are the paper.Runner experiments whose tables the
	// workload assembles; empty means the cmd/allocstats shape (one
	// instrumented sim.RunContext per allocator, reports as output).
	Experiments []string
}

// allocstatsProgram is the program cmd/allocstats runs by default.
const allocstatsProgram = "espresso"

var workloads = []workloadDef{
	{
		Name:  "paper",
		Scale: 256,
		Experiments: []string{"table1", "table2", "figure1", "figure2", "figure3",
			"figure4", "figure5", "table3", "figure6", "figure7", "figure8",
			"table4", "table5", "table6", "figure9", "modern"},
	},
	{Name: "server", Scale: 64, Experiments: []string{"server"}},
	{Name: "allocstats", Scale: 128},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// passState is one pass's set-up: everything built before the first
// pair starts.
type passState struct {
	seed   uint64        // simulation seed
	runner *paper.Runner // nil for allocstats
	pairs  []pairSpec
	prog   workload.Program
}

// setup builds a pass: the runner and its pair list for the paper
// experiments, or the allocator list for allocstats.
func (w workloadDef) setup(simSeed uint64) (*passState, error) {
	ps := &passState{seed: simSeed}
	if len(w.Experiments) > 0 {
		r := paper.NewRunner(w.Scale)
		r.Seed = simSeed
		ps.runner = r
		for _, p := range r.PairsFor(w.Experiments...) {
			_, server := workload.ServerByName(p.Program)
			ps.pairs = append(ps.pairs, pairSpec{
				Program: p.Program, Allocator: p.Allocator, Scale: w.Scale, Seed: simSeed,
				Caches: true, PageSim: !server && pageSimPrograms[p.Program], Server: server,
			})
		}
		return ps, nil
	}
	prog, ok := workload.ByName(allocstatsProgram)
	if !ok {
		return nil, fmt.Errorf("unknown program %q", allocstatsProgram)
	}
	ps.prog = prog
	for _, a := range all.Everything {
		ps.pairs = append(ps.pairs, pairSpec{
			Program: prog.Name, Allocator: a, Scale: w.Scale, Seed: simSeed, Observe: true,
		})
	}
	return ps, nil
}

// runPair runs pair i through the public entry point: paper.Runner for
// the paper experiments, sim.RunContext as cmd/allocstats calls it.
func (ps *passState) runPair(ctx context.Context, i int) (*sim.Result, error) {
	p := ps.pairs[i]
	if ps.runner != nil {
		return ps.runner.Result(ctx, p.Program, p.Allocator)
	}
	return sim.RunContext(ctx, sim.Config{
		Program:     ps.prog,
		Allocator:   p.Allocator,
		Scale:       p.Scale,
		Seed:        p.Seed,
		Recorder:    &obs.Recorder{},
		Attribution: true,
	})
}

// assemble builds the workload's user-visible output from the pass's
// results: the experiment tables, or the allocstats run reports. It
// returns one rendering per output, keyed for the digest check.
func (w workloadDef) assemble(ctx context.Context, ps *passState, results []*sim.Result) (map[string]string, error) {
	out := map[string]string{}
	if ps.runner == nil {
		for i, res := range results {
			rep := res.Report()
			b, err := rep.Encode()
			if err != nil {
				return nil, err
			}
			out["report:"+ps.pairs[i].key()] = string(b)
		}
		return out, nil
	}
	for _, id := range w.Experiments {
		e, ok := ps.runner.ByID(id)
		if !ok {
			return nil, fmt.Errorf("unknown experiment %q", id)
		}
		t, err := e.Run(ctx)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", id, err)
		}
		out["table:"+id] = t.String()
	}
	return out, nil
}

// pairsDigest identifies the pair matrix (and scale) a result measured.
func pairsDigest(w workloadDef, pairs []pairSpec) string {
	var b strings.Builder
	fmt.Fprintf(&b, "scale=%d\n", w.Scale)
	for _, p := range pairs {
		fmt.Fprintf(&b, "%s pagesim=%t server=%t observe=%t\n", p.key(), p.PageSim, p.Server, p.Observe)
	}
	return shortHash(b.String())
}

func shortHash(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:8])
}

// reportDigest is the recorded form of a pair's obs.Report.Hash.
func reportDigest(res *sim.Result) (string, error) {
	h, err := res.Report().Hash()
	if err != nil {
		return "", err
	}
	return h[:16], nil
}
