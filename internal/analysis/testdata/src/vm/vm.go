// Package vm exercises the determinism rules for hash-based page
// sampling: a sampling filter must be a pure function of the page
// number, so hash/maphash — whose seeds are randomized per
// process — is banned alongside global math/rand.
package vm

import (
	"hash/maphash" // want `import of hash/maphash in a determinism-scoped package`
)

var seed = maphash.MakeSeed()

// SamplePage draws its sampling decision from a per-process random
// seed: the same trace would select a different page population every
// run.
func SamplePage(page uint64) bool {
	var h maphash.Hash
	h.SetSeed(seed)
	var buf [8]byte
	for i := range buf {
		buf[i] = byte(page >> (8 * i))
	}
	h.Write(buf[:])
	return h.Sum64()&63 == 0
}

// SamplePageFixed is the blessed shape: a fixed avalanche hash
// (SplitMix64's finalizer) of the page number, identical in every
// process.
func SamplePageFixed(page uint64) bool {
	z := page + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return (z^(z>>31))&63 == 0
}
