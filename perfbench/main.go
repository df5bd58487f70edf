// Command perfbench is the repository's benchmark. It measures the host
// time the simulator costs its users on three workloads — the paper's
// experiment matrix, the concurrent server experiment and the
// cmd/allocstats sweep — and checks every simulated output against
// recorded digests, since simulated statistics are deterministic.
//
// Run it from the repository root through its wrapper, which builds it:
//
//	bash perfbench/run.sh --workload paper --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --workload server --seed 3 --seconds 30 --trace 1
//	bash perfbench/run.sh compare base-*.out -- head-*.out
//	bash perfbench/run.sh record
//
// With --trace 0 it reports the end-to-end metrics, with --trace 1 the
// per-layer breakdown of a separate traced run. The last line of
// standard output is one JSON object with the keys correct, attempted,
// failed and metrics; the lines before it are the environment stamp and
// a readable table.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

var bg = context.Background()

// hardCap bounds a run whatever --seconds says, so that a slow machine
// still finishes inside the benchmark's time limit.
const hardCap = 140 * time.Second

// Before each measured pass the run times setupBatches batches of
// setupBatch back-to-back set-ups; setup_s is the median batch mean.
// A set-up takes microseconds, so timing batches rather than single
// set-ups keeps clock reads and scheduler noise out of the figure.
const (
	setupBatches = 8
	setupBatch   = 32
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "record":
			os.Exit(runRecord())
		case "compare":
			os.Exit(runCompare(os.Args[2:]))
		}
	}
	fs := flag.NewFlagSet("perfbench", flag.ExitOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 30, "how long to measure")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer metrics")
	_ = fs.Parse(os.Args[1:])

	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive, --trace 0 or 1")
		os.Exit(2)
	}
	r := &run{w: w, seed: *seed, simSeeds: simSeedsFor(*seed), seconds: time.Duration(*seconds) * time.Second,
		workers: simWorkers, start: time.Now()}
	if err := r.prepare(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	var metrics []metric
	var err error
	if *traced == 1 {
		metrics, err = r.traced(fmt.Sprintf(".bench_build/spans-%s-%d.json", w.Name, *seed))
	} else {
		metrics, err = r.endToEnd()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	r.print(metrics)
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.Name)
	}
	return out
}

// simWorkers is the measured runs' simulation worker count. One worker
// leaves the other CPUs to the Go runtime's collector and to the rest of
// the host. On a shared 2-vCPU VM, two workers made single passes of
// paper vary by ±20% and their CPU time per reference by as much, one
// worker by ±6%: with two, the pool measured the scheduler.
const simWorkers = 1

// metric is one reported value.
type metric struct {
	Name  string
	Value float64
	Unit  string
	Note  string
}

// run is one benchmark invocation's state.
type run struct {
	w        workloadDef
	seed     uint64
	simSeeds []uint64 // passes cycle through these
	seconds  time.Duration
	workers  int
	start    time.Time

	stamp     stamp
	exp       map[uint64]map[string]string // per simulation seed
	attempted int
	failed    int
	failures  []string
}

// prepare stamps the run and loads the recorded digests it checks
// against.
func (r *run) prepare() error {
	ps, err := r.w.setup(r.simSeeds[0])
	if err != nil {
		return err
	}
	pairs := pairsDigest(r.w, ps.pairs)
	r.stamp = newStamp(r.w, r.seed, r.simSeeds, r.workers, pairs)
	d, err := loadDigests()
	if err != nil {
		return err
	}
	r.exp = map[uint64]map[string]string{}
	for _, s := range r.simSeeds {
		if r.exp[s], err = d.expected(r.w, pairs, s); err != nil {
			return err
		}
	}
	return nil
}

// passSeed is the simulation seed of the n-th measured pass.
func (r *run) passSeed(n int) uint64 { return r.simSeeds[n%len(r.simSeeds)] }

// verify checks one pass's outputs and counts them.
func (r *run) verify(pr *passResult) {
	if pr.AsmErr != nil {
		r.attempted++
		r.failed++
		r.failures = append(r.failures, "assembly: "+pr.AsmErr.Error())
	}
	got, err := passDigests(pr)
	if err != nil {
		r.failures = append(r.failures, "digest: "+err.Error())
		r.failed++
	}
	a, f, msgs := check(r.exp[pr.PS.seed], got, pr)
	r.attempted += a
	r.failed += f
	r.failures = append(r.failures, msgs...)
}

// more reports whether the measuring loop should run another pass. It
// runs passes in units of unit passes: one unit, then more while one
// more, as long as the last one took, still ends within --seconds.
func (r *run) more(done int, since time.Time, unit int, last time.Duration) bool {
	if time.Since(r.start) > hardCap {
		return false
	}
	if done < unit || done%unit != 0 {
		return true
	}
	return time.Since(since)+last <= r.seconds
}

// endToEnd measures untraced passes for --seconds, cycling through the
// run's simulation seeds, and reports the end-to-end metrics: timings
// and peak memory as medians over passes, pair latencies over all pairs
// of all passes, and Go heap allocation, which is deterministic per
// seed rather than noisy, as a total over all passes.
func (r *run) endToEnd() ([]metric, error) {
	warm := runPass(bg, r.w, r.passSeed(0), r.workers)
	if warm.PS == nil {
		return nil, warm.AsmErr
	}
	r.verify(warm)

	var walls, rates, cpus, setups, rss, pairMs []float64
	var allocBytes, allocRefs uint64
	// Passes run in whole seed windows, so that every input of the run
	// weighs the same in its medians.
	since := time.Now()
	unitStart, last := since, time.Duration(0)
	for n := 0; r.more(n, since, seedWindow, last); n++ {
		seed := r.passSeed(n)
		// Every pass, and the set-ups timed before it, start from a
		// collected heap returned to the OS, as in a fresh process.
		debug.FreeOSMemory()
		for b := 0; b < setupBatches; b++ {
			t0 := time.Now()
			for k := 0; k < setupBatch; k++ {
				if _, err := r.w.setup(seed); err != nil {
					return nil, err
				}
			}
			setups = append(setups, time.Since(t0).Seconds()/setupBatch)
		}
		resetPeakRSS()
		pr := runPass(bg, r.w, seed, r.workers)
		if pr.PS == nil {
			return nil, pr.AsmErr
		}
		rss = append(rss, float64(peakRSS())/(1<<20))
		walls = append(walls, pr.Wall.Seconds())
		refs := float64(pr.Refs)
		if refs == 0 {
			refs = 1
		}
		rates = append(rates, refs/pr.Wall.Seconds())
		cpus = append(cpus, float64(pr.CPU.Nanoseconds())/refs)
		allocBytes += pr.Alloc
		allocRefs += pr.Refs
		for _, p := range pr.Pairs {
			pairMs = append(pairMs, ms(p.Run))
		}
		r.verify(pr)
		if (n+1)%seedWindow == 0 {
			last, unitStart = time.Since(unitStart), time.Now()
		}
	}
	tailQ, tailNote := tailQuantile(len(pairMs))
	errRate := float64(r.failed) / float64(max(r.attempted, 1))
	passes := fmt.Sprintf("median of %d passes", len(walls))
	return []metric{
		{"wall_s", median(walls), "s", passes},
		{"refs_per_s", median(rates), "refs/s", passes},
		{"cpu_ns_per_ref", median(cpus), "ns/ref", passes + "; host user+sys"},
		{"pair_ms_p50", quantile(pairMs, 0.5), "ms", fmt.Sprintf("%d pair samples", len(pairMs))},
		{"pair_ms_tail", quantile(pairMs, tailQ), "ms", tailNote},
		{"setup_s", median(setups), "s", fmt.Sprintf("median of %d batches of %d set-ups", len(setups), setupBatch)},
		{"peak_rss_mb", median(rss), "MB", passes + "; per-pass peak resident set"},
		{"alloc_bytes_per_ref", float64(allocBytes) / float64(max(allocRefs, 1)), "B/ref", "total over all passes"},
		{"error_rate", errRate, "ratio", fmt.Sprintf("%d failed of %d outputs; shown here, not a BENCHMARK.json metric", r.failed, r.attempted)},
	}, nil
}

// tailQuantile is the pair-latency tail: p90 when at least ten samples
// lie beyond it (one seed window gives every workload 100 samples),
// else the highest percentile that still has ten.
func tailQuantile(n int) (float64, string) {
	q := 0.9
	if n < 100 {
		q = float64(max(n-10, 0)) / float64(max(n, 1))
	}
	return q, fmt.Sprintf("p%g of %d pair samples", q*100, n)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// print writes the stamp, the readable table, any failures and the
// result object, which is the last line.
func (r *run) print(metrics []metric) {
	stampJSON, _ := json.Marshal(map[string]any{"stamp": r.stamp})
	fmt.Println(string(stampJSON))
	for _, m := range metrics {
		fmt.Printf("%-30s %16.6g %-10s %s\n", m.Name, m.Value, m.Unit, m.Note)
	}
	for i, f := range r.failures {
		if i == 20 {
			fmt.Printf("FAIL ... %d more\n", len(r.failures)-20)
			break
		}
		fmt.Println("FAIL " + f)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0 && len(r.failures) == 0, r.attempted, r.failed, map[string]value{}}
	for _, m := range metrics {
		if m.Name == "error_rate" {
			continue
		}
		out.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// runRecord re-records perfbench/digests.json, after a deliberate change
// to simulated output.
func runRecord() int {
	err := writeDigests("perfbench/digests.json", runtime.NumCPU(), func(s string) { fmt.Fprintln(os.Stderr, s) })
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench record: %v\n", err)
		return 1
	}
	return 0
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the q-quantile of xs by linear interpolation between
// order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
