package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
)

// recordedSeeds is how many simulation seeds have recorded digests.
// The benchmark's --seed picks a window of them (see simSeedsFor), so
// every run is checked against recorded outputs, whatever its seed.
const recordedSeeds = 16

// seedWindow is how many simulation seeds one run cycles its passes
// through. Medians over several inputs keep the figures of one run from
// hanging on the quirks of one input: with a window of 4, whether a
// window held the one input with slower middle pairs moved paper's
// pair_ms_p50 by 15% from seed to seed.
const seedWindow = 8

// simSeedsFor maps the benchmark seed onto seedWindow consecutive
// recorded simulation seeds, wrapping within 1..recordedSeeds: seed 1
// starts at the simulator's default seed 1, and seed n+recordedSeeds
// gives the same inputs as seed n.
func simSeedsFor(seed uint64) []uint64 {
	out := make([]uint64, seedWindow)
	for k := range out {
		out[k] = (seed+recordedSeeds-1+uint64(k))%recordedSeeds + 1
	}
	return out
}

// digestFile is perfbench/digests.json: per workload, the pair matrix
// it was recorded for and, per simulation seed, the first 16 hex digits
// of every pair's obs.Report.Hash and of every assembled table.
type digestFile struct {
	Workloads map[string]*workloadDigests `json:"workloads"`
}

type workloadDigests struct {
	Scale uint64                       `json:"scale"`
	Pairs string                       `json:"pairs"`
	Seeds map[string]map[string]string `json:"seeds"`
}

//go:embed digests.json
var recordedDigests []byte

func loadDigests() (*digestFile, error) {
	var d digestFile
	if err := json.Unmarshal(recordedDigests, &d); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return &d, nil
}

// expected returns the recorded digests for one workload and seed, or
// an error naming why none apply.
func (d *digestFile) expected(w workloadDef, pairs string, simSeed uint64) (map[string]string, error) {
	wd := d.Workloads[w.Name]
	if wd == nil {
		return nil, fmt.Errorf("no recorded digests for workload %q", w.Name)
	}
	if wd.Scale != w.Scale || wd.Pairs != pairs {
		return nil, fmt.Errorf("recorded digests for %q are for scale %d pairs %s, not scale %d pairs %s; re-record them",
			w.Name, wd.Scale, wd.Pairs, w.Scale, pairs)
	}
	exp := wd.Seeds[strconv.FormatUint(simSeed, 10)]
	if exp == nil {
		return nil, fmt.Errorf("no recorded digests for %q at simulation seed %d", w.Name, simSeed)
	}
	return exp, nil
}

// passDigests returns a pass's output digests: one per pair (its
// report hash) and one per assembled table.
func passDigests(pr *passResult) (map[string]string, error) {
	got := map[string]string{}
	ps := pr.PS
	for i, p := range ps.pairs {
		if pr.Errs[i] != nil || pr.Results[i] == nil {
			continue
		}
		if enc, ok := pr.Outputs["report:"+p.key()]; ok {
			got[p.key()] = shortHash(enc)
			continue
		}
		h, err := reportDigest(pr.Results[i])
		if err != nil {
			return nil, err
		}
		got[p.key()] = h
	}
	for k, v := range pr.Outputs {
		if len(k) > 6 && k[:6] == "table:" {
			got[k] = shortHash(v)
		}
	}
	return got, nil
}

// check compares a pass's outputs with the expected digests. Every pair
// and every expected table is one attempted output; an error, a missing
// output or a mismatch fails it.
func check(exp, got map[string]string, pr *passResult) (attempted, failed int, msgs []string) {
	for i, p := range pr.PS.pairs {
		attempted++
		switch {
		case pr.Errs[i] != nil:
			failed++
			msgs = append(msgs, fmt.Sprintf("%s: %v", p.key(), pr.Errs[i]))
		case got[p.key()] != exp[p.key()]:
			failed++
			msgs = append(msgs, fmt.Sprintf("%s: report digest %s, recorded %s", p.key(), got[p.key()], exp[p.key()]))
		}
	}
	var tables []string
	for k := range exp {
		if len(k) > 6 && k[:6] == "table:" {
			tables = append(tables, k)
		}
	}
	sort.Strings(tables)
	for _, k := range tables {
		attempted++
		if got[k] != exp[k] {
			failed++
			msgs = append(msgs, fmt.Sprintf("%s: digest %s, recorded %s", k, got[k], exp[k]))
		}
	}
	return attempted, failed, msgs
}

// writeDigests records every workload at every recorded seed into path.
func writeDigests(path string, workers int, progress func(string)) error {
	d := digestFile{Workloads: map[string]*workloadDigests{}}
	for _, w := range workloads {
		wd := &workloadDigests{Scale: w.Scale, Seeds: map[string]map[string]string{}}
		for s := uint64(1); s <= recordedSeeds; s++ {
			pr := runPass(bg, w, s, workers)
			if err := firstErr(pr.Errs); err != nil {
				return err
			}
			if pr.AsmErr != nil {
				return pr.AsmErr
			}
			wd.Pairs = pairsDigest(w, pr.PS.pairs)
			got, err := passDigests(pr)
			if err != nil {
				return err
			}
			wd.Seeds[strconv.FormatUint(s, 10)] = got
			progress(fmt.Sprintf("recorded %s seed %d (%d outputs, %.1fs)", w.Name, s, len(got), pr.Wall.Seconds()))
		}
		d.Workloads[w.Name] = wd
	}
	b, err := json.MarshalIndent(&d, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
