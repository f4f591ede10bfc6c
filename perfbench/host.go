package main

import (
	"fmt"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark runs on shared machines whose speed drifts by tens of
// percent over tens of seconds, as other tenants load the caches and the
// memory bus. So every timed phase is reported in reference seconds: each
// episode times a fixed reference task between its phases, and a phase's
// wall time is scaled by refNominal over the mean of the reference timings
// on either side of it. A change to the simulator moves the phases and not
// the reference, so it shows in full; a host that slows everything down
// for a while moves both, and the drift cancels out.
//
// The reference is simulator-shaped work (pointer chasing, hash lookups
// and a binary heap over a few MB) written with the standard library
// only. Its memory is mapped outside the Go heap and it never allocates,
// so it neither triggers a collection nor changes how often the
// simulator's heap is collected.

// refNominal is the reference chunk's wall time on the host speed the
// reported seconds are expressed in (about this machine class's typical
// speed, so reference seconds read close to wall seconds).
const refNominal = 0.010

const (
	refChaseSlots = 1 << 20 // 4 MB of uint32 links
	refTableSlots = 1 << 19 // 4 MB hash set of uint64 keys
	refHeapSlots  = 4096
	refChunkOps   = 40000
	// refGap is the least measured time between two reference chunks
	// where a workload's windows are shorter than that.
	refGap = 100 * time.Millisecond
)

// hostRef is the reference task and its memory; close unmaps it.
type hostRef struct {
	mem   [][]byte // the mappings behind next, table and heap
	next  []uint32 // one random cycle through all slots
	table []uint64 // open-addressing hash set, half full
	heap  []uint64 // binary min-heap
	pos   uint32
	x     uint64
	sink  uint64
}

func offHeap(bytes int) ([]byte, error) {
	return syscall.Mmap(-1, 0, bytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
}

func newHostRef() (*hostRef, error) {
	r := &hostRef{x: 88172645463325252}
	for _, n := range []int{refChaseSlots * 4, refTableSlots * 8, refHeapSlots * 8} {
		b, err := offHeap(n)
		if err != nil {
			r.close()
			return nil, fmt.Errorf("reference memory: %w", err)
		}
		r.mem = append(r.mem, b)
	}
	r.next = unsafe.Slice((*uint32)(unsafe.Pointer(&r.mem[0][0])), refChaseSlots)
	r.table = unsafe.Slice((*uint64)(unsafe.Pointer(&r.mem[1][0])), refTableSlots)
	r.heap = unsafe.Slice((*uint64)(unsafe.Pointer(&r.mem[2][0])), refHeapSlots)[:0]
	// Sattolo's shuffle: a single cycle, so the chase visits every slot.
	for i := range r.next {
		r.next[i] = uint32(i)
	}
	for i := len(r.next) - 1; i > 0; i-- {
		j := int(r.rnd() % uint64(i))
		r.next[i], r.next[j] = r.next[j], r.next[i]
	}
	for i := 0; i < refTableSlots/2; i++ {
		r.insert(r.rnd() | 1)
	}
	return r, nil
}

// close unmaps the reference memory; r is unusable after it.
func (r *hostRef) close() {
	for _, b := range r.mem {
		// Unmapping anonymous memory that was mapped whole cannot fail.
		_ = syscall.Munmap(b)
	}
	r.mem, r.next, r.table, r.heap = nil, nil, nil, nil
}

func (r *hostRef) rnd() uint64 {
	r.x ^= r.x << 13
	r.x ^= r.x >> 7
	r.x ^= r.x << 17
	return r.x
}

func (r *hostRef) slot(k uint64) uint64 { return (k * 0x9e3779b97f4a7c15) >> 45 }

func (r *hostRef) insert(k uint64) {
	h := r.slot(k)
	for r.table[h] != 0 && r.table[h] != k {
		h = (h + 1) & (refTableSlots - 1)
	}
	r.table[h] = k
}

func (r *hostRef) contains(k uint64) bool {
	for h := r.slot(k); ; h = (h + 1) & (refTableSlots - 1) {
		switch r.table[h] {
		case k:
			return true
		case 0:
			return false
		}
	}
}

func (r *hostRef) push(v uint64) {
	h := append(r.heap, v)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	r.heap = h
}

func (r *hostRef) pop() uint64 {
	h := r.heap
	top, n := h[0], len(h)-1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1] < h[c] {
			c++
		}
		if h[i] <= h[c] {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	r.heap = h
	return top
}

// chunk runs one fixed amount of reference work and returns its wall
// seconds.
func (r *hostRef) chunk() float64 {
	t := time.Now()
	p := r.pos
	for i := 0; i < refChunkOps; i++ {
		p = r.next[p]
		if r.contains(r.rnd() | 1) {
			r.sink++
		}
		r.push(r.rnd() ^ uint64(p))
		if len(r.heap) == refHeapSlots {
			for len(r.heap) > refHeapSlots/2 {
				r.sink += r.pop()
			}
		}
	}
	r.pos = p
	return time.Since(t).Seconds()
}

// calPoint is one reference timing, taken after the first `after` timed
// phases of an episode had ended.
type calPoint struct {
	after int
	sec   float64
}

// timeline collects an episode's reference timings. Its phases are the
// set-up (phase 0) and then the measured windows, in order.
type timeline struct {
	ref  *hostRef
	cal  []calPoint
	last time.Time
}

// calibrate times a reference chunk after the first `after` phases and
// returns the wall seconds it took, so a caller inside a timed harness can
// take it out of the harness's clock.
func (t *timeline) calibrate(after int) float64 {
	t0 := time.Now()
	t.cal = append(t.cal, calPoint{after, t.ref.chunk()})
	t.last = time.Now()
	return t.last.Sub(t0).Seconds()
}

// maybeCalibrate calibrates unless the last chunk ran less than refGap ago.
func (t *timeline) maybeCalibrate(after int) {
	if time.Since(t.last) >= refGap {
		t.calibrate(after)
	}
}

// closeAt makes sure a reference timing follows the first n phases.
func (t *timeline) closeAt(n int) {
	if len(t.cal) == 0 || t.cal[len(t.cal)-1].after < n {
		t.calibrate(n)
	}
}

// scale converts raw wall seconds of the phases into reference seconds.
// Phase i lies between the last reference timing taken after at most i
// phases and the first taken after more than i; its factor is refNominal
// over their mean. The first and last timings must bracket every phase.
func (t *timeline) scale(raw []float64) ([]float64, error) {
	if len(t.cal) == 0 || t.cal[0].after != 0 || t.cal[len(t.cal)-1].after < len(raw) {
		return nil, fmt.Errorf("reference timings %v do not bracket %d phases", t.cal, len(raw))
	}
	out := make([]float64, len(raw))
	k := 0 // t.cal[k] is the last timing taken after at most i phases
	for i, d := range raw {
		for k+1 < len(t.cal) && t.cal[k+1].after <= i {
			k++
		}
		out[i] = d * refNominal * 2 / (t.cal[k].sec + t.cal[k+1].sec)
	}
	return out, nil
}

// medianSec is the episode's median reference chunk time.
func (t *timeline) medianSec() float64 {
	xs := make([]float64, len(t.cal))
	for i, c := range t.cal {
		xs[i] = c.sec
	}
	return median(xs)
}
