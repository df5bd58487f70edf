// Package workload exercises hotalloc on the reference generator's hot
// set: the model's per-reference methods and the stream's recency
// window.
package workload

import "fmt"

type object struct {
	addr uint64
	size uint32
}

type stream struct {
	window [4]*object
	wpos   int
}

// promote rotates the recency window in place: clean.
func (s *stream) promote(o *object) {
	s.window[s.wpos] = o
	s.wpos = (s.wpos + 1) % len(s.window)
}

// reset is not in the hot set: it allocates freely.
func (s *stream) reset() {
	s.window = [4]*object{}
	_ = make([]*object, 4)
}

type model struct {
	live []*object
	refs []uint64
}

// emitRefs allocates a scratch buffer per budget spend: flagged.
func (d *model) emitRefs(s *stream) {
	scratch := make([]uint64, 8) // want `make in hot function model.emitRefs`
	d.refs = append(d.refs, scratch...)
}

// pickObject builds an error message on its empty-set path: flagged.
func (d *model) pickObject(s *stream) *object {
	if len(d.live) == 0 {
		_ = fmt.Sprintf("empty live set %d", len(d.live)) // want `fmt\.Sprintf allocates`
		return nil
	}
	return d.live[0]
}

// heapRun appends into the reused reference buffer: exempt.
func (d *model) heapRun(s *stream) uint64 {
	o := d.pickObject(s)
	if o == nil {
		return 0
	}
	d.refs = append(d.refs, o.addr)
	s.promote(o)
	return 1
}

// malloc is the cold allocator call: a fresh object per allocation is
// its job.
func (d *model) malloc(size uint32) *object {
	o := &object{size: size}
	d.live = append(d.live, o)
	return o
}
