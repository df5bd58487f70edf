package workload

import (
	"fmt"
	"testing"

	"mallocsim/internal/alloc"
	"mallocsim/internal/cost"
	"mallocsim/internal/mem"
	"mallocsim/internal/obs"
	"mallocsim/internal/trace"
)

// fnvSink folds every reference it receives into a 64-bit FNV-1a hash.
type fnvSink struct{ h uint64 }

func newFNV() *fnvSink { return &fnvSink{h: 14695981039346656037} }

func (s *fnvSink) word(v uint64, bytes int) {
	for i := 0; i < bytes; i++ {
		s.h ^= v & 0xff
		s.h *= 1099511628211
		v >>= 8
	}
}

func (s *fnvSink) Ref(r trace.Ref) {
	s.word(r.Addr, 8)
	s.word(uint64(r.Size), 4)
	s.word(uint64(r.Kind), 1)
	s.word(uint64(r.Tid), 1)
}

// streamDigest hashes a run's whole observable output: every emitted
// reference in order, the per-domain instruction totals and the stats.
func streamDigest(t *testing.T, allocName string, instrument bool, run func(*mem.Memory, alloc.Allocator) (Stats, error)) uint64 {
	t.Helper()
	sink := newFNV()
	meter := &cost.Meter{}
	m := mem.New(sink, meter)
	a, err := alloc.New(allocName, m)
	if err != nil {
		t.Fatal(err)
	}
	if instrument {
		a = obs.Instrument(a, meter, &obs.Recorder{})
	}
	s, err := run(m, a)
	if err != nil {
		t.Fatal(err)
	}
	m.Flush()
	snap := meter.Snapshot()
	for _, v := range []uint64{snap.App, snap.Malloc, snap.Free,
		s.Allocs, s.Frees, s.FinalLive, s.LiveBytes, s.ReqBytes, s.Handoffs} {
		sink.word(v, 8)
	}
	return sink.h
}

// streamDigests pins the exact reference streams of both drivers from
// one commit to the next. The golden tables round to three decimals and
// the determinism tests only compare two runs of one binary; these
// constants change only when a driver's stream does, which is never
// silent. Coverage: every catalog program under a plain allocator, a
// site-aware one (lifetime's MallocSite path) and a hint-aware one
// behind the obs wrapper (hints seen through Unwrap), plus the server
// scenario with and without hints.
var streamDigests = map[string]uint64{
	"espresso/firstfit":      0xfb58f2e63e354188,
	"espresso/lifetime":      0x86657d0df93092e4,
	"espresso/locarena+obs":  0x60e978d5fc131ac8,
	"gs/firstfit":            0x9a0483795afcca89,
	"gs/lifetime":            0x622638ab9fa87729,
	"gs/locarena+obs":        0xf1a5ced3ccf72077,
	"gs-medium/firstfit":     0xccb52cce00926493,
	"gs-medium/lifetime":     0x64bd82269e7d3039,
	"gs-medium/locarena+obs": 0x4558e4af6d65e87f,
	"gs-small/firstfit":      0x5c46feb13576da1f,
	"gs-small/lifetime":      0xceb720445f1d507b,
	"gs-small/locarena+obs":  0xe4d358d9ba7cde4,
	"ptc/firstfit":           0x9ebcb485849e3ad1,
	"ptc/lifetime":           0xdfb5cdc4debfbc18,
	"ptc/locarena+obs":       0x93bf309e667d1a15,
	"gawk/firstfit":          0x36550d130b9d9ef1,
	"gawk/lifetime":          0xba7da64197098843,
	"gawk/locarena+obs":      0xd42e7a556fe8ab9d,
	"make/firstfit":          0xe58093ca2656ce50,
	"make/lifetime":          0xc3546fc77a3b0eb3,
	"make/locarena+obs":      0xaf5f3f2f7ad9935d,
	"server/firstfit":        0x7bef132d78b7cb04,
	"server/locarena":        0xdf0d48640d94c580,
}

func TestStreamDigests(t *testing.T) {
	var keys []string
	got := map[string]uint64{}
	record := func(key, allocName string, instrument bool, run func(*mem.Memory, alloc.Allocator) (Stats, error)) {
		keys = append(keys, key)
		got[key] = streamDigest(t, allocName, instrument, run)
	}
	for _, p := range Programs() {
		prog := func(m *mem.Memory, a alloc.Allocator) (Stats, error) {
			return Run(m, a, Config{Program: p, Scale: 256, Seed: 1})
		}
		record(p.Name+"/firstfit", "firstfit", false, prog)
		record(p.Name+"/lifetime", "lifetime", false, prog)
		record(p.Name+"/locarena+obs", "locarena", true, prog)
	}
	scen, _ := ServerByName("server")
	server := func(m *mem.Memory, a alloc.Allocator) (Stats, error) {
		return RunServer(m, a, ServerRunConfig{Scenario: scen, Scale: 64, Seed: 1})
	}
	record("server/firstfit", "firstfit", false, server)
	record("server/locarena", "locarena", false, server)

	var table string
	bad := len(got) != len(streamDigests)
	for _, key := range keys {
		if want, ok := streamDigests[key]; !ok || got[key] != want {
			t.Errorf("%s: stream digest %#x, want %#x", key, got[key], want)
			bad = true
		}
		table += fmt.Sprintf("\t%q: %#x,\n", key, got[key])
	}
	if bad {
		t.Logf("digests of this build (re-record only for an intended stream change):\n%s", table)
	}
}
