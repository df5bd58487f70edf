package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// stamp records what a result was measured on and what it measured.
// Two results compare only when every field but Commit and the seeds
// agrees (comparableFields); otherwise the compare step calls them
// incomparable instead of declaring a pass or a fail.
type stamp struct {
	Commit     string   `json:"commit"`
	GoVersion  string   `json:"go"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	NProc      int      `json:"nproc"`
	CPU        string   `json:"cpu"`
	Workload   string   `json:"workload"`
	Scale      uint64   `json:"scale"`
	Seed       uint64   `json:"seed"`
	SimSeeds   []uint64 `json:"sim_seeds"`
	Workers    int      `json:"workers"`
	Pairs      string   `json:"pairs"`
}

func newStamp(w workloadDef, seed uint64, simSeeds []uint64, workers int, pairs string) stamp {
	return stamp{
		Commit:     commit(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPU:        cpuModel(),
		Workload:   w.Name,
		Scale:      w.Scale,
		Seed:       seed,
		SimSeeds:   simSeeds,
		Workers:    workers,
		Pairs:      pairs,
	}
}

// comparableFields are the stamp fields two results must share.
func (s stamp) comparableFields() map[string]string {
	return map[string]string{
		"go":         s.GoVersion,
		"gomaxprocs": fmt.Sprint(s.GOMAXPROCS),
		"nproc":      fmt.Sprint(s.NProc),
		"cpu":        s.CPU,
		"workload":   s.Workload,
		"scale":      fmt.Sprint(s.Scale),
		"workers":    fmt.Sprint(s.Workers),
		"pairs":      s.Pairs,
	}
}

// commit is the VCS revision the binary was built from, when the build
// had one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// savedResult is one saved benchmark output: its stamp line and its
// result line.
type savedResult struct {
	File    string
	Stamp   stamp
	Metrics map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	Correct bool
}

func readResult(path string) (*savedResult, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	sr := &savedResult{File: path}
	var sawStamp, sawResult bool
	for _, line := range strings.Split(string(b), "\n") {
		switch {
		case strings.HasPrefix(line, `{"stamp":`):
			var v struct {
				Stamp stamp `json:"stamp"`
			}
			if err := json.Unmarshal([]byte(line), &v); err != nil {
				return nil, fmt.Errorf("%s: stamp: %w", path, err)
			}
			sr.Stamp, sawStamp = v.Stamp, true
		case strings.HasPrefix(line, `{"correct":`):
			var v struct {
				Correct bool `json:"correct"`
				Metrics map[string]struct {
					Value float64 `json:"value"`
					Unit  string  `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(line), &v); err != nil {
				return nil, fmt.Errorf("%s: result: %w", path, err)
			}
			sr.Correct, sr.Metrics, sawResult = v.Correct, v.Metrics, true
		}
	}
	if !sawStamp || !sawResult {
		return nil, fmt.Errorf("%s: no stamp and result lines", path)
	}
	return sr, nil
}

// benchSpec is the part of BENCHMARK.json the compare step needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runCompare compares saved results of a base and a head build:
//
//	perfbench compare base1.out base2.out ... -- head1.out ...
//
// Per workload it compares the medians of each end-to-end metric with
// the bound BENCHMARK.json fixes. It exits 0 when every metric is
// within its bound, 1 when one is worse by more, and 2 when the stamps
// differ in anything but commit and seed: such results are
// incomparable, not a pass or a fail.
func runCompare(args []string) int {
	const specPath = "BENCHMARK.json"
	var base, head []string
	side := &base
	for _, a := range args {
		if a == "--" {
			side = &head
			continue
		}
		*side = append(*side, a)
	}
	if len(base) == 0 || len(head) == 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare base.out... -- head.out...")
		return 2
	}
	b, err := os.ReadFile(specPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench compare: %v\n", err)
		return 2
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench compare: %s: %v\n", specPath, err)
		return 2
	}
	load := func(paths []string) (map[string][]*savedResult, error) {
		out := map[string][]*savedResult{}
		for _, p := range paths {
			sr, err := readResult(p)
			if err != nil {
				return nil, err
			}
			out[sr.Stamp.Workload] = append(out[sr.Stamp.Workload], sr)
		}
		return out, nil
	}
	bs, err := load(base)
	if err == nil {
		var hs map[string][]*savedResult
		if hs, err = load(head); err == nil {
			return compareSets(spec, bs, hs)
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench compare: %v\n", err)
	return 2
}

func compareSets(spec benchSpec, base, head map[string][]*savedResult) int {
	var names []string
	for w := range base {
		names = append(names, w)
	}
	for w := range head {
		if base[w] == nil {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	code := 0
	for _, w := range names {
		if mismatch := stampMismatch(append(append([]*savedResult{}, base[w]...), head[w]...)); mismatch != "" || base[w] == nil || head[w] == nil {
			if mismatch == "" {
				mismatch = "workload measured on one side only"
			}
			fmt.Printf("%s: incomparable: %s\n", w, mismatch)
			code = max(code, 2)
			continue
		}
		for _, side := range [][]*savedResult{base[w], head[w]} {
			for _, sr := range side {
				if !sr.Correct {
					fmt.Printf("%s: %s reported incorrect outputs\n", w, sr.File)
					code = max(code, 1)
				}
			}
		}
		for _, m := range spec.EndToEnd {
			bm, hm := sideMedian(base[w], m.Name), sideMedian(head[w], m.Name)
			change := 0.0
			if bm != 0 {
				change = (hm - bm) / bm
			}
			worse := change
			if m.Better == "higher" {
				worse = -change
			}
			verdict := "pass"
			if worse > m.Bound {
				verdict = "FAIL"
				code = max(code, 1)
			}
			fmt.Printf("%-10s %-20s base %12.6g  head %12.6g %-7s %+7.2f%%  bound %4.0f%%  %s\n",
				w, m.Name, bm, hm, m.Unit, change*100, m.Bound*100, verdict)
		}
	}
	return code
}

// stampMismatch names the first comparable field on which results
// disagree, or returns "".
func stampMismatch(rs []*savedResult) string {
	if len(rs) == 0 {
		return ""
	}
	ref := rs[0].Stamp.comparableFields()
	for _, sr := range rs[1:] {
		f := sr.Stamp.comparableFields()
		keys := make([]string, 0, len(f))
		for k := range f {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if f[k] != ref[k] {
				return fmt.Sprintf("%s differs: %q in %s, %q in %s", k, ref[k], rs[0].File, f[k], sr.File)
			}
		}
	}
	return ""
}

func sideMedian(rs []*savedResult, name string) float64 {
	var xs []float64
	for _, sr := range rs {
		if v, ok := sr.Metrics[name]; ok {
			xs = append(xs, v.Value)
		}
	}
	return median(xs)
}
