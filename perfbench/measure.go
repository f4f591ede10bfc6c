package main

import (
	"fmt"
	"math"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"strings"

	"wow/internal/brunet"
	"wow/internal/metrics"
)

// rtSnap is a reading of the Go runtime's cumulative counters.
type rtSnap struct {
	mallocs   uint64  // heap objects allocated since start
	liveBytes uint64  // live heap marked by the last completed GC
	gcCPU     float64 // CPU seconds spent in GC (runtime estimate)
	totalCPU  float64 // CPU seconds available to the process (runtime estimate)
}

var rtNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/live:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() rtSnap {
	s := make([]rtmetrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	rtmetrics.Read(s)
	return rtSnap{
		mallocs:   s[0].Value.Uint64(),
		liveBytes: s[1].Value.Uint64(),
		gcCPU:     s[2].Value.Float64(),
		totalCPU:  s[3].Value.Float64(),
	}
}

// gcFrac is the share of the process CPU time the GC took between two
// readings.
func gcFrac(a, b rtSnap) float64 {
	if b.totalCPU <= a.totalCPU {
		return 0
	}
	return (b.gcCPU - a.gcCPU) / (b.totalCPU - a.totalCPU)
}

// heapPeak tracks the largest live heap seen at phase and progress
// boundaries. sample reads the live heap of the last completed GC and is
// cheap enough for progress callbacks inside timed phases; exact forces a
// collection first and is only called outside timed phases.
type heapPeak struct{ peak uint64 }

func (h *heapPeak) sample() {
	if b := readRuntime().liveBytes; b > h.peak {
		h.peak = b
	}
}

func (h *heapPeak) exact() {
	runtime.GC()
	h.sample()
}

func (h *heapPeak) mb() float64 { return float64(h.peak) / 1e6 }

// median of xs (xs is not modified).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// percentile of xs by linear interpolation between closest ranks
// (p in [0,100]; xs is sorted in place).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	r := p / 100 * float64(len(xs)-1)
	lo := int(math.Floor(r))
	hi := int(math.Ceil(r))
	return xs[lo] + (xs[hi]-xs[lo])*(r-float64(lo))
}

// ratio returns a/b, or 0 when b is 0 (a metric that does not apply).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// pairOffset derives the workload's routing-pair offset from the seed
// (splitmix64), so each seed routes its own sequence of node pairs.
func pairOffset(seed int64) int {
	z := uint64(seed) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int(z % (1 << 24))
}

// sumStat sums one per-node counter over the fleet.
func sumStat(nodes []*brunet.Node, name string) int64 {
	var t int64
	for _, n := range nodes {
		t += n.Stats.Get(name)
	}
	return t
}

// fleetStats snapshots the per-node counters the benchmark reads.
type fleetStats struct {
	forwarded, delivered, deadLetter, hopsExceeded int64
	ping, status, ctm                              int64
	linkAttempts, linkSuccess                      int64
}

func readFleet(nodes []*brunet.Node) fleetStats {
	return fleetStats{
		forwarded:    sumStat(nodes, "route.forwarded"),
		delivered:    sumStat(nodes, "route.delivered"),
		deadLetter:   sumStat(nodes, "route.dead_letter"),
		hopsExceeded: sumStat(nodes, "route.hops_exceeded"),
		ping:         sumStat(nodes, "ping.sent"),
		status:       sumStat(nodes, "status.sent"),
		ctm:          sumStat(nodes, "ctm.sent"),
		linkAttempts: sumStat(nodes, "link.attempts"),
		linkSuccess:  sumStat(nodes, "link.success"),
	}
}

func (a fleetStats) sub(b fleetStats) fleetStats {
	return fleetStats{
		forwarded:    a.forwarded - b.forwarded,
		delivered:    a.delivered - b.delivered,
		deadLetter:   a.deadLetter - b.deadLetter,
		hopsExceeded: a.hopsExceeded - b.hopsExceeded,
		ping:         a.ping - b.ping,
		status:       a.status - b.status,
		ctm:          a.ctm - b.ctm,
		linkAttempts: a.linkAttempts - b.linkAttempts,
		linkSuccess:  a.linkSuccess - b.linkSuccess,
	}
}

// missingNear counts ring positions whose successor is not held as a
// structured near connection (the audit the NAT harness reports).
func missingNear(nodes []*brunet.Node) int {
	ring := append([]*brunet.Node(nil), nodes...)
	sort.Slice(ring, func(i, j int) bool { return ring[i].Addr().Less(ring[j].Addr()) })
	missing := 0
	for i, n := range ring {
		succ := ring[(i+1)%len(ring)]
		if c := n.ConnectionTo(succ.Addr()); c == nil || !c.Has(brunet.StructuredNear) {
			missing++
		}
	}
	return missing
}

// lossReasons are the physical layer's drop reasons (phys.Network counter
// names "lost.<reason>").
var lossReasons = []string{"wire", "noroute", "hostdown", "fault", "boundary", "overload", "noport"}

// physCounters is a delta-able copy of the phys.Network fleet totals.
type physCounters struct {
	delivered, boundaryIn, boundaryOut int64
	lost                               map[string]int64
}

func readPhys(c metrics.Counter) physCounters {
	p := physCounters{
		delivered:   c.Get("delivered"),
		boundaryIn:  c.Get("boundary.in"),
		boundaryOut: c.Get("boundary.out"),
		lost:        map[string]int64{},
	}
	for _, r := range lossReasons {
		p.lost[r] = c.Get("lost." + r)
	}
	return p
}

// physMetrics writes the phys.* per-layer metrics for the delta b-a.
func physMetrics(m map[string]float64, a, b physCounters) {
	del := float64(b.delivered - a.delivered)
	var lost float64
	for _, r := range lossReasons {
		lost += float64(b.lost[r] - a.lost[r])
	}
	m["phys.delivered"] = del
	m["phys.lost"] = lost
	m["phys.lost_frac"] = ratio(lost, del+lost)
	for _, r := range lossReasons {
		m["phys.lost_frac."+r] = ratio(float64(b.lost[r]-a.lost[r]), del+lost)
	}
	m["phys.boundary_in"] = float64(b.boundaryIn - a.boundaryIn)
	m["phys.boundary_out"] = float64(b.boundaryOut - a.boundaryOut)
}

// sig accumulates an episode's deterministic simulated outputs as
// "key=value" pairs; two episodes of one seed must produce the same string.
type sig []string

func (s *sig) add(key string, v any) { *s = append(*s, fmt.Sprintf("%s=%v", key, v)) }

func (s sig) String() string { return strings.Join(s, " ") }
