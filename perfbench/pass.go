package main

import (
	"context"
	"fmt"
	"os"
	"runtime/metrics"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"mallocsim/internal/sim"
)

// pairTiming is one pair's schedule within a pass, relative to the
// moment the worker pool started.
type pairTiming struct {
	Wait time.Duration // queued before a worker picked it up
	Run  time.Duration
}

// passResult is one measured pass over a workload's pair matrix.
type passResult struct {
	Wall     time.Duration // pass start until the outputs are assembled
	Pool     time.Duration // worker pool start until the last pair ended
	Assembly time.Duration
	CPU      time.Duration // host user+sys over the pass
	Alloc    uint64        // Go heap bytes allocated over the pass
	Refs     uint64        // simulated references over all pairs
	Pairs    []pairTiming
	Results  []*sim.Result
	Errs     []error
	Outputs  map[string]string
	AsmErr   error
	PS       *passState
}

// cpuTime is the process's user+sys time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapAllocated is the cumulative number of bytes the Go heap has
// allocated, read without stopping the world.
func heapAllocated() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// resetPeakRSS restarts the kernel's resident-set high-water mark from
// the current resident set (Linux); elsewhere peakRSS stays the
// process-lifetime peak.
func resetPeakRSS() {
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return
	}
	_, _ = f.WriteString("5") // unsupported: the peak stays cumulative
	_ = f.Close()
}

// peakRSS is the resident-set high-water mark in bytes: VmHWM from
// /proc/self/status, else the process-lifetime ru_maxrss (KiB on
// Linux).
func peakRSS() uint64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				var kb uint64
				if _, err := fmt.Sscan(strings.TrimSuffix(strings.TrimSpace(v), " kB"), &kb); err == nil {
					return kb * 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return uint64(ru.Maxrss) * 1024
}

// pool runs fn(i) for i in [0,n) on the given number of workers, in
// index order, and returns when every call has returned. Each call's
// queue wait and run time are recorded relative to the pool's start.
func pool(workers, n int, fn func(i int)) ([]pairTiming, time.Duration) {
	timings := make([]pairTiming, n)
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	if workers > n {
		workers = n
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				t0 := time.Since(start)
				fn(i)
				timings[i] = pairTiming{Wait: t0, Run: time.Since(start) - t0}
			}
		}()
	}
	wg.Wait()
	return timings, time.Since(start)
}

// runPass measures one untraced pass: set-up, the pair matrix on the
// worker pool, and output assembly. Verification happens afterwards,
// outside the measured interval.
func runPass(ctx context.Context, w workloadDef, simSeed uint64, workers int) *passResult {
	pr := &passResult{}
	alloc0 := heapAllocated()
	cpu0 := cpuTime()
	t0 := time.Now()

	ps, err := w.setup(simSeed)
	if err != nil {
		pr.AsmErr = err
		return pr
	}
	pr.PS = ps
	pr.Results = make([]*sim.Result, len(ps.pairs))
	pr.Errs = make([]error, len(ps.pairs))
	pr.Pairs, pr.Pool = pool(workers, len(ps.pairs), func(i int) {
		pr.Results[i], pr.Errs[i] = ps.runPair(ctx, i)
	})
	a0 := time.Now()
	if firstErr(pr.Errs) == nil {
		pr.Outputs, pr.AsmErr = w.assemble(ctx, ps, pr.Results)
	}
	pr.Assembly = time.Since(a0)

	pr.Wall = time.Since(t0)
	pr.CPU = cpuTime() - cpu0
	pr.Alloc = heapAllocated() - alloc0
	for _, res := range pr.Results {
		if res != nil {
			pr.Refs += res.Refs.Total()
		}
	}
	return pr
}

func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
