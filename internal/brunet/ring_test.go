package brunet

import (
	"math/big"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"wow/internal/phys"
	"wow/internal/sim"
	"wow/internal/trace"
)

// ringTestNode builds a bare node (never started) whose connection table
// can be churned directly — the unit under test is the ring index's
// agreement with the linear-scan oracles, not the linking protocol.
func ringTestNode(seed int64) *Node {
	s := sim.New(seed)
	net := phys.NewNetwork(s, phys.UniformLatency(phys.PathModel{}, phys.PathModel{}))
	site := net.AddSite("t")
	h := net.AddHost("t0", site, net.Root(), phys.HostConfig{})
	return NewNode(h, AddrFromString("ring-test-origin"), Config{})
}

var churnTypes = []ConnType{StructuredNear, StructuredFar, Shortcut, Leaf}

// applyChurn drives the connection table through a scripted sequence of
// adds, role-drops and full drops derived from ops, returning the node.
// Addresses are drawn from a small deterministic universe so drops hit
// existing connections and role mixes accumulate on single peers.
func applyChurn(seed int64, ops []uint32) *Node {
	universe := make([]Addr, 24)
	for i := range universe {
		universe[i] = RandomAddr(rand.New(rand.NewSource(seed + int64(i))))
	}
	return churnOver(ringTestNode(seed), universe, ops)
}

// applyClusteredChurn is applyChurn from origin over a clustered universe
// (clusteredAddr): random addresses almost always differ in their first 8
// bytes, so only a clustered universe makes the lower limbs decide the
// ring order.
func applyClusteredChurn(origin Addr, seed int64, ops []uint32) *Node {
	n := ringTestNode(seed)
	n.addr = origin
	n.ring.reset(origin)
	rng := rand.New(rand.NewSource(seed))
	universe := make([]Addr, 24)
	for i := range universe {
		universe[i] = clusteredAddr(rng, origin)
	}
	return churnOver(n, universe, ops)
}

// churnedNodes churns one node per universe with the same ops: the random
// one, and a clustered one from each edge origin.
func churnedNodes(seed int64, ops []uint32) []*Node {
	nodes := []*Node{applyChurn(seed, ops)}
	for _, o := range edgeOrigins {
		nodes = append(nodes, applyClusteredChurn(o, seed, ops))
	}
	return nodes
}

// clusteredAddr draws an address sharing the top 8 or 16 bytes of origin,
// or of the address space's two ends (just above Zero or just below it),
// with the remaining bytes random: the universe straddles both the origin
// and Zero, and every order inside a cluster is decided by the lower one
// or two limbs, with borrows crossing the limb boundaries.
func clusteredAddr(rng *rand.Rand, origin Addr) Addr {
	var a Addr
	switch rng.Intn(3) {
	case 0:
		a = origin
	case 2:
		for i := range a {
			a[i] = 0xff
		}
	}
	for i := 8 + 8*rng.Intn(2); i < AddrBytes; i++ {
		a[i] = byte(rng.Uint32())
	}
	return a
}

func churnOver(n *Node, universe []Addr, ops []uint32) *Node {
	ep := phys.Endpoint{IP: 1, Port: 1}
	for _, op := range ops {
		peer := universe[int(op>>8)%len(universe)]
		if peer == n.addr {
			continue // a node never links to itself
		}
		typ := churnTypes[int(op>>16)%len(churnTypes)]
		switch op % 4 {
		case 0, 1: // add (twice as likely: tables should be non-trivial)
			n.addConnection(peer, ep, nil, nil, typ)
		case 2: // drop one role, connection may survive
			if c, ok := n.conns[peer]; ok && c.Has(typ) {
				n.dropConnRole(c, typ, "test")
			}
		case 3: // drop the whole connection
			if c, ok := n.conns[peer]; ok {
				n.dropConnection(c, false, "test")
			}
		}
	}
	return n
}

// probeAddr draws a destination for a routing or side query against n: a
// connected peer (the exact-match and exclusion paths), a peer nudged by
// ±1 or ±2^32 (a hair either side, across the lowest limb boundary), the
// midpoint between the node and a peer or between two neighboring peers
// (distance ties), or a fresh random or clustered draw.
func probeAddr(rng *rand.Rand, n *Node) Addr {
	m := len(n.ring.conns)
	if m == 0 || rng.Intn(5) == 0 {
		return clusteredAddr(rng, n.addr)
	}
	i := rng.Intn(m)
	p := n.ring.conns[i].Peer
	switch rng.Intn(6) {
	case 4:
		if rng.Intn(2) == 0 {
			return midpoint(n.addr, p)
		}
		return midpoint(p, n.addr)
	case 5:
		return midpoint(p, n.ring.conns[(i+1)%m].Peer)
	case 1:
		return addrPlus(p, 1-2*rng.Intn(2))
	case 2:
		var off Addr
		off[15] = 1
		if rng.Intn(2) == 0 {
			return addModRing(p, off)
		}
		return subModRing(p, off)
	case 3:
		return RandomAddr(rng)
	}
	return p
}

// midpoint returns the address halfway clockwise from a to b, rounded
// down: equidistant from both when their distance is even.
func midpoint(a, b Addr) Addr {
	return addrOfBig(new(big.Int).Add(bigOf(a), new(big.Int).Rsh(bigClockwise(a, b), 1)))
}

// Property: after arbitrary churn, the indexed nearestConn agrees with the
// brute-force linear oracle for every destination and exclusion choice,
// and so does its verdict on whether the pick is strictly closer to the
// destination than the node itself.
func TestQuickNearestConnMatchesOracle(t *testing.T) {
	f := func(ops []uint32, probeSeed int64) bool {
		rng := rand.New(rand.NewSource(probeSeed))
		for _, n := range churnedNodes(11, ops) {
			for trial := 0; trial < 8; trial++ {
				dst := probeAddr(rng, n)
				exclude := Addr{}
				if trial%3 == 0 {
					exclude = probeAddr(rng, n)
				}
				got, closer := n.nearestConn(dst, exclude)
				want := n.nearestConnLinear(dst, exclude)
				wantCloser := want != nil && (want.Peer == dst || dst.CmpRingDist(want.Peer, n.addr) < 0)
				if got != want || closer != wantCloser {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(17))}); err != nil {
		t.Fatal(err)
	}
}

// Property: nthOnSide walks each side in the same order as the
// sort-per-call oracle: its k-th answer is the oracle's k-th entry for
// every k, and nil one past the end.
func TestQuickNeighborsOnSideMatchesOracle(t *testing.T) {
	f := func(ops []uint32) bool {
		for _, n := range churnedNodes(23, ops) {
			for _, right := range []bool{true, false} {
				want := n.neighborsOnSideLinear(right)
				for k := 1; k <= len(want)+1; k++ {
					got := n.nthOnSide(right, k)
					if k > len(want) {
						if got != nil {
							return false
						}
					} else if got != want[k-1] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(29))}); err != nil {
		t.Fatal(err)
	}
}

// Property: the side queries of the near overlord — whether a candidate
// near link is wanted, and the node's neighbor across a joining address —
// answer as the forms that materialize both clockwise distances did,
// including for the node's own address and its antipode.
func TestQuickSideQueriesMatchMaterialized(t *testing.T) {
	f := func(ops []uint32, probeSeed int64) bool {
		rng := rand.New(rand.NewSource(probeSeed))
		var half Addr
		half[0] = 0x80
		for _, n := range churnedNodes(43, ops) {
			o := newNearOverlord(n)
			for trial := 0; trial < 8; trial++ {
				w := probeAddr(rng, n)
				switch trial {
				case 0:
					w = n.addr
				case 1:
					w = n.addr.Offset(half)
				}
				right := n.addr.Clockwise(w).Cmp(w.Clockwise(n.addr)) < 0
				if n.neighborAcross(w) != n.nthOnSide(right, 1) {
					return false
				}
				if o.wanted(w) != wantedMaterialized(n, w) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(47))}); err != nil {
		t.Fatal(err)
	}
}

// wantedMaterialized is nearOverlord.wanted computed on materialized
// clockwise distances, the reference for its comparator form.
func wantedMaterialized(n *Node, w Addr) bool {
	right := n.addr.Clockwise(w).Cmp(w.Clockwise(n.addr)) < 0
	kth := n.nthOnSide(right, n.cfg.NearPerSide)
	if kth == nil {
		return true
	}
	if right {
		return n.addr.Clockwise(w).Cmp(n.addr.Clockwise(kth.Peer)) < 0
	}
	return w.Clockwise(n.addr).Cmp(kth.Peer.Clockwise(n.addr)) < 0
}

// Property: the index slice itself stays sorted, mirrors exactly the
// structured subset of the connection table through churn, and keeps
// each key equal to its peer's clockwise offset from the node.
func TestQuickRingIndexInvariants(t *testing.T) {
	f := func(ops []uint32) bool {
		for _, n := range churnedNodes(31, ops) {
			structured := 0
			for _, c := range n.conns {
				if c.structured() {
					structured++
					if !c.inRing {
						return false
					}
				} else if c.inRing {
					return false
				}
			}
			if len(n.ring.conns) != structured || len(n.ring.keys) != len(n.ring.conns) {
				return false
			}
			for i, c := range n.ring.conns {
				if n.ring.keys[i] != n.addr.Clockwise(c.Peer) {
					return false
				}
				if i > 0 && n.addr.CmpClockwise(n.ring.conns[i-1].Peer, c.Peer) >= 0 {
					return false
				}
			}
			// A stop clears the table and re-anchors the index: both
			// slices must empty together.
			clear(n.conns)
			n.ring.reset(n.addr)
			if len(n.ring.conns) != 0 || len(n.ring.keys) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(37))}); err != nil {
		t.Fatal(err)
	}
}

// buildZeroLatencyRing converges a small overlay on a zero-latency fabric:
// with no propagation delay a packet's entire multi-hop route drains within
// RunUntil(Now()), so the clock never advances and no keepalive or gossip
// timer can interleave with a measurement (the scale harness uses the same
// trick).
func buildZeroLatencyRing(t testing.TB, seed int64, count int) (*sim.Simulator, []*Node) {
	t.Helper()
	s := sim.New(seed)
	net := phys.NewNetwork(s, phys.UniformLatency(phys.PathModel{}, phys.PathModel{}))
	site := net.AddSite("z")
	cfg := FastTestConfig()
	var nodes []*Node
	for i := 0; i < count; i++ {
		name := "zring" + string(rune('a'+i%26)) + string(rune('a'+i/26))
		h := net.AddHost(name, site, net.Root(), phys.HostConfig{})
		n := NewNode(h, AddrFromString(name), cfg)
		var boot []URI
		if len(nodes) > 0 {
			boot = []URI{nodes[0].BootstrapURI()}
		}
		if err := n.Start(boot); err != nil {
			t.Fatalf("start %s: %v", name, err)
		}
		nodes = append(nodes, n)
		s.RunFor(2 * sim.Second)
	}
	s.RunFor(60 * sim.Second)
	return s, nodes
}

// TestAllocFreeForwarding is the hot-path allocation guard: with the
// virtual clock frozen, routing a pre-built overlay packet through a
// converged ring — socket send, propagation event, CPU event, per-hop
// greedy forwarding, final delivery — must not allocate at all in steady
// state. Event and packet pools absorb the per-hop objects; only packet
// origination (SendTo) may allocate, and it is excluded here on purpose.
func TestAllocFreeForwarding(t *testing.T) {
	s, nodes := buildZeroLatencyRing(t, 7, 12)
	src, dst := nodes[2], nodes[9]
	pkt := &OverlayPacket{Payload: AppData{Proto: "allocguard", Size: 64}}
	delivered := 0
	dst.RegisterProto("allocguard", func(Addr, AppData) { delivered++ })
	route := func() {
		pkt.Src = src.Addr()
		pkt.Dst = dst.Addr()
		pkt.Mode = DeliverExact
		pkt.Hops = 0
		pkt.MaxHops = src.cfg.MaxHops
		pkt.Size = overlayHdrSize + 64
		src.routePacket(pkt, src.Addr())
		s.RunUntil(s.Now())
	}
	// Warm the pools and any lazily grown heap/slice capacity.
	for i := 0; i < 64; i++ {
		route()
	}
	if delivered == 0 {
		t.Fatal("warmup packets never delivered; measurement would be vacuous")
	}
	avg := testing.AllocsPerRun(200, route)
	if raceEnabled {
		// The race detector instruments allocations; record but don't
		// assert.
		t.Logf("allocs/packet under -race: %.2f (not asserted)", avg)
		return
	}
	if avg != 0 {
		t.Errorf("allocs per forwarded packet = %.2f, want 0", avg)
	}
}

// TestAllocFreeOrigination extends the hot-path guard to the SendTo
// origination path: with the per-node OverlayPacket pool, originating an
// application packet — pool acquire, inline AppData boxing, multi-hop
// route, terminal release into the far node's pool — allocates nothing in
// steady state. (The origination pool migrates packets from the sender's
// free list to the terminal node's, so round-tripping traffic keeps both
// pools warm.)
func TestAllocFreeOrigination(t *testing.T) {
	s, nodes := buildZeroLatencyRing(t, 11, 12)
	src, dst := nodes[3], nodes[8]
	delivered := 0
	dst.RegisterProto("allocguard", func(Addr, AppData) { delivered++ })
	src.RegisterProto("allocguard", func(Addr, AppData) {})
	d := AppData{Proto: "allocguard", Size: 64}
	send := func() {
		// Round trip so pooled packets flow back: src's pool drains
		// toward dst and dst's toward src, reaching a steady state.
		src.SendTo(dst.Addr(), DeliverExact, d)
		dst.SendTo(src.Addr(), DeliverExact, d)
		s.RunUntil(s.Now())
	}
	for i := 0; i < 64; i++ {
		send()
	}
	if delivered == 0 {
		t.Fatal("warmup packets never delivered; measurement would be vacuous")
	}
	avg := testing.AllocsPerRun(200, send)
	if raceEnabled {
		t.Logf("allocs/origination under -race: %.2f (not asserted)", avg)
		return
	}
	if avg != 0 {
		t.Errorf("allocs per originated packet = %.2f, want 0 (2 sends/run)", avg)
	}
}

// enableUnsampledTrace arms the flight recorder on every node with a
// sampling rate so sparse no packet in the test will be sampled: the
// enabled-but-unsampled path (one nil check, one inline FNV hash per
// origination) must stay exactly as allocation-free as tracing disabled.
func enableUnsampledTrace(s *sim.Simulator, nodes []*Node) *trace.Tracer {
	tr := trace.New(trace.Options{SampleN: 1 << 62}, s)
	for _, n := range nodes {
		n.EnableTrace(tr)
	}
	return tr
}

// TestAllocFreeForwardingTraced repeats the forwarding guard with the
// flight recorder enabled and the packets unsampled — recording must add
// zero allocations to the hot path.
func TestAllocFreeForwardingTraced(t *testing.T) {
	s, nodes := buildZeroLatencyRing(t, 7, 12)
	tr := enableUnsampledTrace(s, nodes)
	src, dst := nodes[2], nodes[9]
	pkt := &OverlayPacket{Payload: AppData{Proto: "allocguard", Size: 64}}
	delivered := 0
	dst.RegisterProto("allocguard", func(Addr, AppData) { delivered++ })
	route := func() {
		pkt.Src = src.Addr()
		pkt.Dst = dst.Addr()
		pkt.Mode = DeliverExact
		pkt.Hops = 0
		pkt.MaxHops = src.cfg.MaxHops
		pkt.Size = overlayHdrSize + 64
		src.routePacket(pkt, src.Addr())
		s.RunUntil(s.Now())
	}
	for i := 0; i < 64; i++ {
		route()
	}
	if delivered == 0 {
		t.Fatal("warmup packets never delivered; measurement would be vacuous")
	}
	avg := testing.AllocsPerRun(200, route)
	if n := tr.Shard(0).Len(); n != 0 {
		t.Fatalf("expected no sampled packets at 1-in-2^62, got %d records", n)
	}
	if raceEnabled {
		t.Logf("allocs/packet traced-unsampled under -race: %.2f (not asserted)", avg)
		return
	}
	if avg != 0 {
		t.Errorf("allocs per forwarded packet with tracing enabled = %.2f, want 0", avg)
	}
}

// TestAllocFreeOriginationTraced repeats the origination guard with the
// flight recorder enabled and the packets unsampled.
func TestAllocFreeOriginationTraced(t *testing.T) {
	s, nodes := buildZeroLatencyRing(t, 11, 12)
	tr := enableUnsampledTrace(s, nodes)
	src, dst := nodes[3], nodes[8]
	delivered := 0
	dst.RegisterProto("allocguard", func(Addr, AppData) { delivered++ })
	src.RegisterProto("allocguard", func(Addr, AppData) {})
	d := AppData{Proto: "allocguard", Size: 64}
	send := func() {
		src.SendTo(dst.Addr(), DeliverExact, d)
		dst.SendTo(src.Addr(), DeliverExact, d)
		s.RunUntil(s.Now())
	}
	for i := 0; i < 64; i++ {
		send()
	}
	if delivered == 0 {
		t.Fatal("warmup packets never delivered; measurement would be vacuous")
	}
	avg := testing.AllocsPerRun(200, send)
	if n := tr.Shard(0).Len(); n != 0 {
		t.Fatalf("expected no sampled packets at 1-in-2^62, got %d records", n)
	}
	if raceEnabled {
		t.Logf("allocs/origination traced-unsampled under -race: %.2f (not asserted)", avg)
		return
	}
	if avg != 0 {
		t.Errorf("allocs per originated packet with tracing enabled = %.2f, want 0 (2 sends/run)", avg)
	}
}

// nearestSink keeps BenchmarkRingNearest's lookups observable.
var nearestSink *Connection

// BenchmarkRingNearest measures the ring index's greedy-routing lookup
// alone: one node's index of 30 structured links (random peers, a mix of
// near and far roles), queried for 256 precomputed random destinations in
// turn with the previous hop excluded, as routePacket does. One op is one
// lookup.
func BenchmarkRingNearest(b *testing.B) {
	n := ringTestNode(3)
	rng := rand.New(rand.NewSource(3))
	ep := phys.Endpoint{IP: 1, Port: 1}
	for len(n.ring.conns) < 30 {
		n.addConnection(RandomAddr(rng), ep, nil, nil, churnTypes[rng.Intn(2)])
	}
	var dsts, excl [256]Addr
	for i := range dsts {
		dsts[i] = RandomAddr(rng)
		excl[i] = n.ring.conns[rng.Intn(len(n.ring.conns))].Peer
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nearestSink, _ = n.ring.nearest(dsts[i&255], excl[i&255])
	}
}

// BenchmarkRouteHop measures greedy forwarding per overlay hop: a
// pre-built packet routed end to end through a converged 64-node ring on
// a zero-latency fabric with the clock frozen (socket send, propagation
// and CPU events, one greedy decision per hop, final delivery), cycling
// through 64 fixed source/destination pairs. One op is one packet; ns/hop
// divides by the hops the packets took.
func BenchmarkRouteHop(b *testing.B) {
	s, nodes := buildZeroLatencyRing(b, 13, 64)
	rng := rand.New(rand.NewSource(13))
	var pairs [64][2]*Node
	for i := range pairs {
		src := nodes[rng.Intn(len(nodes))]
		dst := nodes[rng.Intn(len(nodes))]
		for dst == src {
			dst = nodes[rng.Intn(len(nodes))]
		}
		pairs[i] = [2]*Node{src, dst}
		dst.RegisterProto("routehop", func(Addr, AppData) {})
	}
	pkt := &OverlayPacket{Payload: AppData{Proto: "routehop", Size: 64}}
	hops := 0
	route := func(i int) {
		src, dst := pairs[i&63][0], pairs[i&63][1]
		pkt.Src, pkt.Dst = src.Addr(), dst.Addr()
		pkt.Mode = DeliverExact
		pkt.Hops = 0
		pkt.MaxHops = src.cfg.MaxHops
		pkt.Size = overlayHdrSize + 64
		src.routePacket(pkt, src.Addr())
		s.RunUntil(s.Now())
		hops += pkt.Hops
	}
	for i := 0; i < 256; i++ {
		route(i)
	}
	hops = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		route(i)
	}
	b.StopTimer()
	if hops == 0 {
		b.Fatal("no packet took a hop; the measurement would be vacuous")
	}
	b.ReportMetric(float64(hops)/float64(b.N), "hops/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(hops), "ns/hop")
}

// nearestConnLinear is the original linear-scan selection, kept as the
// reference oracle for property tests of the ring index. It must implement
// the exact same choice: minimal ring distance, ties to the smaller peer
// address, leaf connections on exact match only.
func (n *Node) nearestConnLinear(dst Addr, exclude Addr) *Connection {
	var best *Connection
	var bestDist Addr
	for _, c := range n.conns {
		if c.Peer == exclude {
			continue
		}
		if !c.structured() {
			if c.Peer == dst && c.Has(Leaf) {
				return c
			}
			continue
		}
		d := c.Peer.RingDist(dst)
		if best == nil || d.Cmp(bestDist) < 0 || (d.Cmp(bestDist) == 0 && c.Peer.Less(best.Peer)) {
			best, bestDist = c, d
		}
	}
	return best
}

// neighborsOnSideLinear is the original sort-per-call selection, kept as
// the reference oracle for property tests of the ring index walks.
func (n *Node) neighborsOnSideLinear(right bool) []*Connection {
	conns := n.connsOfType(StructuredNear)
	sort.Slice(conns, func(i, j int) bool {
		var di, dj Addr
		if right {
			di, dj = n.addr.Clockwise(conns[i].Peer), n.addr.Clockwise(conns[j].Peer)
		} else {
			di, dj = conns[i].Peer.Clockwise(n.addr), conns[j].Peer.Clockwise(n.addr)
		}
		return di.Cmp(dj) < 0
	})
	return conns
}

// connsOfType is the original sort-based role query, kept as the reference
// oracle for countOfType and the address-ordered near walk: every live
// connection carrying role t, in address order.
func (n *Node) connsOfType(t ConnType) []*Connection {
	var out []*Connection
	for _, c := range n.conns {
		if c.Has(t) {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Peer.Less(out[j].Peer) })
	return out
}
