package trace

import (
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	if Read.String() != "read" || Write.String() != "write" {
		t.Errorf("Kind strings: %q %q", Read, Write)
	}
	if Kind(9).String() != "unknown" {
		t.Errorf("unexpected: %q", Kind(9))
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	c.Ref(Ref{Addr: 0, Size: 4, Kind: Read})
	c.Ref(Ref{Addr: 8, Size: 8, Kind: Write})
	c.Ref(Ref{Addr: 16, Size: 4, Kind: Read})
	if c.Reads != 2 || c.Writes != 1 {
		t.Errorf("reads=%d writes=%d", c.Reads, c.Writes)
	}
	if c.Total() != 3 {
		t.Errorf("total=%d", c.Total())
	}
	if c.BytesRead != 8 || c.BytesWrote != 8 || c.Bytes() != 16 {
		t.Errorf("bytes: %d/%d", c.BytesRead, c.BytesWrote)
	}
	c.Reset()
	if c.Total() != 0 {
		t.Error("reset failed")
	}
}

func TestTeeFansOut(t *testing.T) {
	var a, b Counter
	tee := NewTee(&a, &b)
	tee.Ref(Ref{Size: 4})
	tee.Ref(Ref{Size: 4, Kind: Write})
	if a.Total() != 2 || b.Total() != 2 {
		t.Errorf("tee did not fan out: %d %d", a.Total(), b.Total())
	}
}

func TestNewTeeFlattens(t *testing.T) {
	var a, b, c Counter
	inner := NewTee(&a, &b)
	outer := NewTee(inner, &c, nil, Discard)
	tee, ok := outer.(Tee)
	if !ok {
		t.Fatalf("expected Tee, got %T", outer)
	}
	if len(tee) != 3 {
		t.Errorf("expected 3 flattened sinks, got %d", len(tee))
	}
	if got := NewTee(); got != Discard {
		t.Errorf("empty tee should be Discard")
	}
	if got := NewTee(&a); got != Sink(&a) {
		t.Errorf("single-sink tee should collapse")
	}
}

// TestNewTeeNested: hand-built Tees nested inside Tees flatten
// recursively, including Discard and nil entries at any depth.
func TestNewTeeNested(t *testing.T) {
	var a, b, c, d Counter
	deep := Tee{&a, Tee{&b, Tee{&c, Discard}, nil}}
	out := NewTee(deep, &d)
	tee, ok := out.(Tee)
	if !ok {
		t.Fatalf("expected Tee, got %T", out)
	}
	if len(tee) != 4 {
		t.Fatalf("expected 4 flattened sinks, got %d: %#v", len(tee), tee)
	}
	out.Ref(Ref{Size: 4})
	for i, cnt := range []*Counter{&a, &b, &c, &d} {
		if cnt.Total() != 1 {
			t.Errorf("sink %d saw %d refs, want 1", i, cnt.Total())
		}
	}
}

// TestNewTeeAllDiscard: an input of only Discard (and nested Discard)
// collapses to Discard itself, not an empty Tee.
func TestNewTeeAllDiscard(t *testing.T) {
	if got := NewTee(Discard, Discard); got != Discard {
		t.Errorf("all-Discard tee = %T, want Discard", got)
	}
	if got := NewTee(Tee{Discard}, nil, Tee{Tee{Discard}}); got != Discard {
		t.Errorf("nested all-Discard tee = %T, want Discard", got)
	}
	if got := NewTee(nil, nil); got != Discard {
		t.Errorf("all-nil tee = %T, want Discard", got)
	}
}

// TestNewTeeSingleUnwrap: a single surviving sink is returned directly
// even when buried under nesting and noise.
func TestNewTeeSingleUnwrap(t *testing.T) {
	var a Counter
	if got := NewTee(Tee{Tee{&a}}, Discard, nil); got != Sink(&a) {
		t.Errorf("buried single sink = %T, want *Counter directly", got)
	}
	if got := NewTee(Discard, &a); got != Sink(&a) {
		t.Errorf("single sink + Discard = %T, want *Counter directly", got)
	}
}

func TestFilterAndRange(t *testing.T) {
	var c Counter
	f := RangeFilter(100, 200, &c)
	f.Ref(Ref{Addr: 50, Size: 4})
	f.Ref(Ref{Addr: 100, Size: 4})
	f.Ref(Ref{Addr: 199, Size: 4})
	f.Ref(Ref{Addr: 200, Size: 4})
	if c.Total() != 2 {
		t.Errorf("range filter passed %d refs, want 2", c.Total())
	}
}

func TestRecorder(t *testing.T) {
	var r Recorder
	refs := []Ref{{1, 4, Read, 0}, {2, 8, Write, 0}}
	for _, ref := range refs {
		r.Ref(ref)
	}
	if len(r.Refs) != 2 || r.Refs[0] != refs[0] || r.Refs[1] != refs[1] {
		t.Errorf("recorded %v", r.Refs)
	}
	r.Reset()
	if len(r.Refs) != 0 {
		t.Error("reset failed")
	}
}

func TestSinkFunc(t *testing.T) {
	n := 0
	s := SinkFunc(func(Ref) { n++ })
	s.Ref(Ref{})
	if n != 1 {
		t.Error("SinkFunc not invoked")
	}
}

// TestQuickCounterTotals: total always equals reads+writes and bytes
// accumulate exactly, for arbitrary ref sequences.
func TestQuickCounterTotals(t *testing.T) {
	prop := func(addrs []uint64, sizes []uint16, kinds []bool) bool {
		var c Counter
		n := len(addrs)
		if len(sizes) < n {
			n = len(sizes)
		}
		if len(kinds) < n {
			n = len(kinds)
		}
		var bytes uint64
		for i := 0; i < n; i++ {
			k := Read
			if kinds[i] {
				k = Write
			}
			c.Ref(Ref{Addr: addrs[i], Size: uint32(sizes[i]), Kind: k})
			bytes += uint64(sizes[i])
		}
		return c.Total() == uint64(n) && c.Bytes() == bytes
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// TestCounterBlockMatchesRefs: Counter.Block must tally exactly what
// per-Ref delivery of the expanded block tallies, for blocks without a
// Runs column and for blocks mixing plain, run and tid-stamped rows.
func TestCounterBlockMatchesRefs(t *testing.T) {
	var plain, mixed Block
	for i := uint64(0); i < 64; i++ {
		k := Read
		if i%3 == 0 {
			k = Write
		}
		r := Ref{Addr: i * 24, Size: uint32(i % 9), Kind: k, Tid: uint8(i % 4)}
		plain.Append(r)
		if i%5 == 0 {
			mixed.AppendRunTid(r.Addr, 8, k, uint32(1+i%7), r.Tid)
		} else {
			mixed.Append(r)
		}
	}
	if plain.Runs != nil || plain.Tids == nil || mixed.Runs == nil || mixed.Tids == nil {
		t.Fatal("test blocks lack the intended columns")
	}
	for name, b := range map[string]*Block{"plain": &plain, "mixed": &mixed} {
		var byRef, byBlock Counter
		for _, r := range b.AppendRefs(nil) {
			byRef.Ref(r)
		}
		byBlock.Block(b)
		if byRef != byBlock {
			t.Errorf("%s: block %+v != per-ref %+v", name, byBlock, byRef)
		}
	}
}

func TestFilterBatch(t *testing.T) {
	var out Counter
	f := &Filter{Keep: func(r Ref) bool { return r.Addr < 100 }, Next: &out}
	f.Refs([]Ref{{Addr: 1, Size: 4}, {Addr: 200, Size: 4}, {Addr: 99, Size: 4}})
	if out.Total() != 2 {
		t.Errorf("filtered batch total = %d, want 2", out.Total())
	}
}

// TestSplitBlocks: SplitBlocks flattens nested Tees, drops Discard and
// nil, puts BlockSinks on the block tier and slice-only BatchSinks on
// the batch tier, and recombines what is left into one immediate sink.
func TestSplitBlocks(t *testing.T) {
	var c, c2 Counter                                                 // BlockSink
	f := &Filter{Keep: func(Ref) bool { return true }, Next: Discard} // BatchSink only
	var rec Recorder                                                  // plain Sink (Refs is a field)
	var rec2 Recorder                                                 // second plain sink: the remainder becomes a Tee
	fn := SinkFunc(func(Ref) {})

	// Block leaves only: no batch tier, no remainder.
	blocks, batch, rest := SplitBlocks(NewTee(&c, Discard, &c2))
	if len(blocks) != 2 || blocks[0] != BlockSink(&c) || blocks[1] != BlockSink(&c2) || len(batch) != 0 || rest != nil {
		t.Errorf("block-only split: %v, %v, %v", blocks, batch, rest)
	}

	// Filter takes slices but not blocks.
	blocks, batch, rest = SplitBlocks(NewTee(f, &c))
	if len(blocks) != 1 || blocks[0] != BlockSink(&c) || len(batch) != 1 || batch[0] != BatchSink(f) || rest != nil {
		t.Errorf("filter split: %v, %v, %v", blocks, batch, rest)
	}

	// A single leftover is returned directly.
	_, _, rest = SplitBlocks(NewTee(&c, Tee{&rec}))
	if rest != Sink(&rec) {
		t.Errorf("single leftover = %T, want *Recorder", rest)
	}

	// Several leftovers recombine into a Tee, in order.
	blocks, batch, rest = SplitBlocks(NewTee(&rec, &c, &rec2, f, fn))
	if len(blocks) != 1 || len(batch) != 1 {
		t.Errorf("mixed split: %d block, %d batch leaves", len(blocks), len(batch))
	}
	if tee, ok := rest.(Tee); !ok || len(tee) != 3 || tee[0] != Sink(&rec) || tee[1] != Sink(&rec2) {
		t.Errorf("rest = %T %v, want Tee{rec, rec2, fn}", rest, rest)
	}

	// A hand-built nested Tee flattens with Discard and nil dropped at
	// every depth.
	blocks, batch, rest = SplitBlocks(Tee{&c, Tee{f, Tee{&c2, Discard}, nil}, &rec})
	if len(blocks) != 2 || blocks[0] != BlockSink(&c) || blocks[1] != BlockSink(&c2) ||
		len(batch) != 1 || rest != Sink(&rec) {
		t.Errorf("nested split: %v, %v, %v", blocks, batch, rest)
	}

	// Discard alone: nothing on any tier.
	blocks, batch, rest = SplitBlocks(Discard)
	if len(blocks) != 0 || len(batch) != 0 || rest != nil {
		t.Errorf("discard split: %v, %v, %v", blocks, batch, rest)
	}
}

var _ BatchSink = (*Filter)(nil)
