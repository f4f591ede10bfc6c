package brunet

import (
	"math/rand"
	"testing"
	"testing/quick"

	"wow/internal/phys"
)

// edgeOrigins are the node addresses the maintenance-query properties run
// from: an ordinary address, and origins hugging both ends of the address
// space, so the ring index's rotation point search(Zero) lands at its
// start, its end and in between.
var edgeOrigins = []Addr{
	AddrFromString("ring-test-origin"),
	addrPlus(Zero, 3),
	addrPlus(Zero, -3),
}

// addrPlus returns a + d mod 2^160 for a small signed d.
func addrPlus(a Addr, d int) Addr {
	var off Addr
	if d >= 0 {
		off[AddrBytes-1] = byte(d)
		return addModRing(a, off)
	}
	off[AddrBytes-1] = byte(-d)
	return subModRing(a, off)
}

// applyEdgeChurn is applyChurn over a universe that straddles both Zero
// and the node's own address (the two seams of address order against
// clockwise order), with tunnel edges mixed in so the relay-candidate
// query sees links it must skip.
func applyEdgeChurn(origin Addr, seed int64, ops []uint32) *Node {
	n := ringTestNode(seed)
	n.addr = origin
	n.ring.reset(origin)
	universe := []Addr{Zero, addrPlus(Zero, 1), addrPlus(Zero, -1),
		addrPlus(origin, 1), addrPlus(origin, 2), addrPlus(origin, -1), addrPlus(origin, -2)}
	for i := 0; i < 13; i++ {
		universe = append(universe, RandomAddr(rand.New(rand.NewSource(seed+int64(i)))))
	}
	roles := []ConnType{StructuredNear, StructuredNear, StructuredFar, Shortcut, Leaf, Relay}
	ep := phys.Endpoint{IP: 1, Port: 1}
	for _, op := range ops {
		peer := universe[int(op>>8)%len(universe)]
		if peer == origin {
			continue // a node never links to itself
		}
		typ := roles[int(op>>16)%len(roles)]
		switch op % 5 {
		case 0, 1:
			n.addConnection(peer, ep, nil, nil, typ)
		case 2:
			n.addTunnelConnection(peer, []Addr{universe[int(op>>24)%len(universe)]}, nil, typ)
		case 3:
			if c, ok := n.conns[peer]; ok && c.Has(typ) {
				n.dropConnRole(c, typ, "test")
			}
		case 4:
			if c, ok := n.conns[peer]; ok {
				n.dropConnection(c, false, "test")
			}
		}
	}
	return n
}

// relayCandidatesSorted is the original relay-candidate selection — the
// first TunnelMaxRelays direct links of the address-sorted table — kept as
// the oracle for the bounded-insertion version.
func (n *Node) relayCandidatesSorted() []NeighborInfo {
	max := n.cfg.TunnelMaxRelays
	if max <= 0 || len(n.conns) == 0 {
		return nil
	}
	out := make([]NeighborInfo, 0, max)
	for _, c := range n.Connections() {
		if c.Tunneled() || c.closed {
			continue
		}
		out = append(out, NeighborInfo{Addr: c.Peer, URIs: c.URIs, Load: c.peerLoad})
		if len(out) >= max {
			break
		}
	}
	return out
}

// Property: under churn around both address-order seams, countOfType
// counts what the sort-based connsOfType oracle lists for every role,
// nearByAddr returns the oracle's near links in the same (address) order,
// and relayCandidates picks the oracle's candidates for every cap.
func TestQuickRoleQueriesMatchOracle(t *testing.T) {
	f := func(ops []uint32, originSel uint8) bool {
		origin := edgeOrigins[int(originSel)%len(edgeOrigins)]
		n := applyEdgeChurn(origin, 41, ops)
		for typ := Leaf; typ <= Relay; typ++ {
			if n.countOfType(typ) != len(n.connsOfType(typ)) {
				return false
			}
		}
		want := n.connsOfType(StructuredNear)
		got := n.nearByAddr(nil)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		for max := 1; max <= 10; max++ {
			n.cfg.TunnelMaxRelays = max
			got, want := n.relayCandidates(), n.relayCandidatesSorted()
			if len(got) != len(want) {
				return false
			}
			for i := range got {
				if got[i].Addr != want[i].Addr {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(43))}); err != nil {
		t.Fatal(err)
	}
}

// Property: trim drops exactly the near links outside the k nearest per
// side — the set the original keep-map version computed from the
// sort-based side oracle — and keeps every other role intact.
func TestQuickTrimMatchesOracle(t *testing.T) {
	f := func(ops []uint32, originSel, kSel uint8) bool {
		origin := edgeOrigins[int(originSel)%len(edgeOrigins)]
		n := applyEdgeChurn(origin, 47, ops)
		k := 1 + int(kSel)%3
		n.cfg.NearPerSide = k
		keep := make(map[Addr]bool)
		for _, right := range []bool{true, false} {
			side := n.neighborsOnSideLinear(right)
			for i := 0; i < k && i < len(side); i++ {
				keep[side[i].Peer] = true
			}
		}
		before := n.connsOfType(StructuredNear)
		(&nearOverlord{node: n}).trim()
		for _, c := range before {
			if c.Has(StructuredNear) != keep[c.Peer] {
				return false
			}
		}
		return n.countOfType(StructuredNear) == len(keep)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(53))}); err != nil {
		t.Fatal(err)
	}
}

// TestAllocFreeRoleQueries pins the maintenance plane's connection
// queries at zero allocations: role counts, the address-ordered near walk
// into a stack buffer, and the side walk behind wanted.
func TestAllocFreeRoleQueries(t *testing.T) {
	ops := make([]uint32, 400)
	rng := rand.New(rand.NewSource(59))
	for i := range ops {
		ops[i] = rng.Uint32()
	}
	n := applyEdgeChurn(edgeOrigins[0], 61, ops)
	if n.countOfType(StructuredNear) == 0 {
		t.Fatal("churn left no near links; measurement would be vacuous")
	}
	sink := 0
	avg := testing.AllocsPerRun(200, func() {
		sink += n.countOfType(StructuredNear) + n.countOfType(StructuredFar) + n.countOfType(Leaf)
		var buf [nearBufLen]*Connection
		sink += len(n.nearByAddr(buf[:0]))
		if n.nthOnSide(true, 2) != nil && n.nthOnSide(false, 2) != nil {
			sink++
		}
	})
	if raceEnabled {
		t.Logf("allocs per role-query round under -race: %.2f (not asserted)", avg)
		return
	}
	if avg != 0 {
		t.Errorf("allocs per role-query round = %.2f, want 0", avg)
	}
}

// TestAllocFreeSchedulePing pins the keepalive re-arm at zero allocations:
// the timer passes the connection through AtArg to the node's prebuilt
// callback instead of capturing it in a closure.
func TestAllocFreeSchedulePing(t *testing.T) {
	_, nodes := buildZeroLatencyRing(t, 13, 6)
	n := nodes[3]
	c := n.Connections()[0]
	rearm := func() {
		c.pingTimer.Cancel()
		n.schedulePing(c)
	}
	for i := 0; i < 16; i++ {
		rearm()
	}
	avg := testing.AllocsPerRun(200, rearm)
	if !c.pingTimer.Active() {
		t.Fatal("ping timer not armed after re-arm")
	}
	if raceEnabled {
		t.Logf("allocs per ping re-arm under -race: %.2f (not asserted)", avg)
		return
	}
	if avg != 0 {
		t.Errorf("allocs per ping re-arm = %.2f, want 0", avg)
	}
}

// BenchmarkMaintenanceTick measures one node's maintenance plane in a
// converged 64-node ring on a zero-latency fabric: per iteration, the
// near overlord's pass (join check, status gossip, trim), the far
// overlord's pass, and a full keepalive round on every connection, with
// each ping answered and every message drained at the frozen clock. The
// link is aged past half a PingInterval before its tick, so every
// keepalive sends a real ping instead of taking the fresh-traffic skip.
func BenchmarkMaintenanceTick(b *testing.B) {
	s, nodes := buildZeroLatencyRing(b, 5, 64)
	n := nodes[17]
	conns := n.Connections()
	tick := func() {
		n.near.maintain()
		n.far.maintain()
		for _, c := range conns {
			if c.closed {
				continue
			}
			c.pingTimer.Cancel()
			c.lastHeard = s.Now().Add(-n.cfg.PingInterval)
			n.pingTick(c)
		}
		s.RunUntil(s.Now())
	}
	for i := 0; i < 16; i++ {
		tick()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tick()
	}
	b.StopTimer()
	b.ReportMetric(float64(len(conns)), "conns")
}
