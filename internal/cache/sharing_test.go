package cache

import (
	"reflect"
	"testing"

	"mallocsim/internal/mem"
	"mallocsim/internal/rng"
	"mallocsim/internal/trace"
)

// shareOracle is the naive per-Ref reference implementation of the
// sharing protocol: plain maps keyed by line number, one transition per
// (reference, line) pair, no run folding, no paging, no caching. The
// attributor's bulk paths must reproduce its numbers exactly.
type shareOracle struct {
	lineSize uint64
	regionOf func(uint64) int
	owner    map[uint64]int
	holders  map[uint64]uint64
	written  map[uint64]uint64
	rows     map[[2]int][2]uint64
	ping     map[uint64]bool
	trueEv   uint64
	falseEv  uint64
}

func newShareOracle(lineSize uint64, regionOf func(uint64) int) *shareOracle {
	return &shareOracle{
		lineSize: lineSize,
		regionOf: regionOf,
		owner:    map[uint64]int{},
		holders:  map[uint64]uint64{},
		written:  map[uint64]uint64{},
		rows:     map[[2]int][2]uint64{},
		ping:     map[uint64]bool{},
	}
}

func (o *shareOracle) ref(r trace.Ref) {
	n := uint64(r.Size)
	if n == 0 {
		n = 1
	}
	end := r.Addr + n - 1
	if end < r.Addr {
		end = ^uint64(0)
	}
	first, last := r.Addr/o.lineSize, end/o.lineSize
	for line := first; ; line++ {
		base := line * o.lineSize
		lo, hi := r.Addr, end
		if lo < base {
			lo = base
		}
		if lineEnd := base + o.lineSize - 1; hi > lineEnd {
			hi = lineEnd
		}
		var mask uint64
		for w := mem.WordOf(lo - base); w <= mem.WordOf(hi-base); w++ {
			mask |= uint64(1) << w
		}
		o.line(line, mask, r.Kind == trace.Write, r.Tid)
		if line == last {
			return
		}
	}
}

func (o *shareOracle) line(line, mask uint64, write bool, tid uint8) {
	t := int(tid & 63)
	bit := uint64(1) << t
	holders := o.holders[line]
	if write {
		if holders&bit == 0 && o.owner[line] != 0 {
			o.record(line, t, mask&o.written[line] != 0)
		}
		if o.owner[line] == t+1 && holders == bit {
			o.written[line] |= mask
		} else {
			o.written[line] = mask
		}
		o.owner[line] = t + 1
		o.holders[line] = bit
		return
	}
	if holders&bit == 0 {
		if o.owner[line] != 0 {
			o.record(line, t, mask&o.written[line] != 0)
		}
		o.holders[line] = holders | bit
	}
}

func (o *shareOracle) record(line uint64, tid int, isTrue bool) {
	o.ping[line] = true
	region := 0
	if o.regionOf != nil {
		if r := o.regionOf(line * o.lineSize); r > 0 {
			region = r
		}
	}
	row := o.rows[[2]int{region, tid}]
	if isTrue {
		o.trueEv++
		row[0]++
	} else {
		o.falseEv++
		row[1]++
	}
	o.rows[[2]int{region, tid}] = row
}

func (o *shareOracle) report() SharingReport {
	rep := SharingReport{True: o.trueEv, False: o.falseEv, PingLines: uint64(len(o.ping))}
	keys := make([][2]int, 0, len(o.rows))
	for k := range o.rows {
		keys = append(keys, k)
	}
	for i := 0; i < len(keys); i++ {
		for j := i + 1; j < len(keys); j++ {
			if keys[j][0] < keys[i][0] || (keys[j][0] == keys[i][0] && keys[j][1] < keys[i][1]) {
				keys[i], keys[j] = keys[j], keys[i]
			}
		}
	}
	if len(keys) > 0 {
		rep.Rows = make([]SharingRow, 0, len(keys))
	}
	for _, k := range keys {
		row := o.rows[k]
		rep.Rows = append(rep.Rows, SharingRow{Region: k[0], Tid: uint8(k[1]), True: row[0], False: row[1]})
	}
	return rep
}

// genTidBlocks builds contract-conforming blocks (the genBlock mix of
// plain, clamped, aligned-run, misaligned-run and zero-size rows) and
// stamps a tid column on most of them, leaving some without a column
// (all thread 0) to cover the nil-Tids path.
func genTidBlocks(seed uint64, n, rows, tids int) []*trace.Block {
	r := rng.New(seed)
	blocks := make([]*trace.Block, n)
	for i := range blocks {
		b := genBlock(r, rows)
		if i%4 != 3 {
			col := make([]uint8, b.Len())
			for j := range col {
				col[j] = uint8(r.Uint64n(uint64(tids)))
			}
			b.Tids = col
		}
		blocks[i] = b
	}
	return blocks
}

// testRegionOf carves the low address space into arbitrary 1 MB
// "regions" so the attribution rows exercise multiple region indices.
func testRegionOf(addr uint64) int { return int(addr >> 20) }

// TestSharingOracleEquivalence: every delivery tier of the attributor —
// per-Ref, batched slices, and columnar blocks with folded run rows —
// must reproduce the naive per-Ref oracle exactly, across line- and
// page-spanning refs, clamped top-of-address-space refs, multiple
// line sizes and several thread counts.
func TestSharingOracleEquivalence(t *testing.T) {
	for _, lineSize := range []uint64{32, 64, 128} {
		for _, tids := range []int{1, 2, 5, 64} {
			for seed := uint64(1); seed <= 3; seed++ {
				blocks := genTidBlocks(seed, 4, 512, tids)
				var refs []trace.Ref
				for _, b := range blocks {
					refs = b.AppendRefs(refs)
				}

				oracle := newShareOracle(lineSize, testRegionOf)
				for _, r := range refs {
					oracle.ref(r)
				}
				want := oracle.report()

				cfg := SharingConfig{LineSize: lineSize, RegionOf: testRegionOf}
				byRef := NewSharing(cfg)
				for _, r := range refs {
					byRef.Ref(r)
				}
				byBatch := NewSharing(cfg)
				byBatch.Refs(refs)
				byBlock := NewSharing(cfg)
				for _, b := range blocks {
					byBlock.Block(b)
				}

				for name, s := range map[string]*Sharing{"ref": byRef, "refs": byBatch, "block": byBlock} {
					if got := s.Report(); !reflect.DeepEqual(got, want) {
						t.Fatalf("line=%d tids=%d seed=%d: %s tier diverged from oracle:\ngot:  %+v\nwant: %+v",
							lineSize, tids, seed, name, got, want)
					}
				}
			}
		}
	}
}

// TestSharingSingleThreadSilent: a stream with no tid stamping can
// never ping-pong — thread 0 always holds its own lines.
func TestSharingSingleThreadSilent(t *testing.T) {
	s := NewSharing(SharingConfig{})
	for _, b := range genBlocks(3, 4, 512) {
		s.Block(b)
	}
	rep := s.Report()
	if rep.True != 0 || rep.False != 0 || rep.PingLines != 0 || len(rep.Rows) != 0 {
		t.Fatalf("single-threaded stream produced sharing events: %+v", rep)
	}
}
