package vm

import (
	"testing"

	"mallocsim/internal/trace"
)

// Dynamic half of the hotalloc contract for the VM tier: the exact
// stack-distance probe must not allocate once its page table, distance
// engine and histogram have been materialized by a warm-up sweep.

func stackSimBlock() *trace.Block {
	b := &trace.Block{}
	addr := uint64(1 << 20)
	for i := 0; i < 256; i++ {
		b.Append(trace.Ref{Addr: addr, Size: 8, Kind: trace.Read})
		addr += 4096 * 3 // stride across pages
		if i%5 == 0 {
			b.AppendRun(addr, 64, trace.Write, 128)
			addr += 64 * 128
		}
		if i%17 == 0 {
			addr = 1 << 20 // loop back for reuse distances
		}
	}
	return b
}

func TestStackSimExactBlockZeroAlloc(t *testing.T) {
	s := NewStackSim()
	b := stackSimBlock()
	s.Block(b)
	s.Block(b)
	if avg := testing.AllocsPerRun(20, func() { s.Block(b) }); avg != 0 {
		t.Errorf("warmed exact StackSim.Block allocates %.1f allocs/op, want 0", avg)
	}
}
