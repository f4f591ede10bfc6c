package phys

import (
	"reflect"
	"sync"
	"testing"

	"wow/internal/sim"
	"wow/internal/trace"
)

// buildShardedPair stands up a two-shard network with one host per shard
// and a reply-on-receive protocol: host a fires `count` datagrams at b,
// b answers each, and both sides log (now, size) on delivery.
func runShardedPingPong(t *testing.T, workers, count int) (logA, logB []sim.Time, stats string, events uint64) {
	t.Helper()
	eng := sim.NewSharded(42, 2, workers)
	defer eng.Close()
	net := NewShardedNetwork(eng, UniformLatency(
		PathModel{OneWay: sim.Millisecond},
		PathModel{OneWay: 20 * sim.Millisecond, Jitter: 5 * sim.Millisecond},
	))
	siteA := net.AddSite("a") // shard 0
	siteB := net.AddSite("b") // shard 1
	if siteA.Shard() == siteB.Shard() {
		t.Fatal("sites landed on one shard")
	}
	floor, ok := net.CrossShardFloor()
	if !ok {
		t.Fatal("no cross-shard site pairs")
	}
	if want := 15 * sim.Millisecond; floor != want {
		t.Fatalf("CrossShardFloor = %v, want %v", floor, want)
	}
	eng.SetLookahead(floor)

	a := net.AddHost("a0", siteA, net.Root(), HostConfig{})
	b := net.AddHost("b0", siteB, net.Root(), HostConfig{})
	if a.Shard() != 0 || b.Shard() != 1 {
		t.Fatalf("host shards = %d,%d", a.Shard(), b.Shard())
	}
	as, err := a.Listen(100)
	if err != nil {
		t.Fatal(err)
	}
	bs, err := b.Listen(100)
	if err != nil {
		t.Fatal(err)
	}
	bs.OnRecv = func(p *Packet) {
		logB = append(logB, b.Sim().Now())
		bs.Send(p.Src, 16, "pong")
	}
	as.OnRecv = func(p *Packet) { logA = append(logA, a.Sim().Now()) }
	for i := 0; i < count; i++ {
		at := sim.Time(i) * sim.Time(3*sim.Millisecond)
		eng.Shard(0).At(at, func() { as.Send(Endpoint{IP: b.IP(), Port: 100}, 32, "ping") })
	}
	eng.RunUntil(sim.Time(2 * sim.Second))
	total := net.TotalStats()
	return logA, logB, total.String(), eng.Processed()
}

// TestShardedNetworkDeliversAcrossShards checks end-to-end cross-shard
// delivery and that the trace is identical no matter how many workers
// execute it.
func TestShardedNetworkDeliversAcrossShards(t *testing.T) {
	const count = 40
	a1, b1, s1, e1 := runShardedPingPong(t, 1, count)
	if len(b1) != count || len(a1) != count {
		t.Fatalf("delivered %d pings / %d pongs, want %d each; stats: %s", len(b1), len(a1), count, s1)
	}
	a2, b2, s2, e2 := runShardedPingPong(t, 2, count)
	if !reflect.DeepEqual(a1, a2) || !reflect.DeepEqual(b1, b2) {
		t.Fatal("delivery trace depends on worker count")
	}
	if s1 != s2 || e1 != e2 {
		t.Fatalf("stats/event totals depend on worker count: %q/%d vs %q/%d", s1, e1, s2, e2)
	}
}

// TestShardedRealmPinning: private realms are shard-affine. A chain is
// unpinned until its first host, the first AddHost anywhere in the chain
// pins the whole chain (top realm and nested realms both ways), realms
// added to a pinned chain inherit the pin, and a host at a different site
// is rejected.
func TestShardedRealmPinning(t *testing.T) {
	eng := sim.NewSharded(1, 2, 1)
	defer eng.Close()
	net := NewShardedNetwork(eng, UniformLatency(PathModel{}, PathModel{OneWay: sim.Millisecond}))
	s0 := net.AddSite("s0") // shard 0
	s1 := net.AddSite("s1") // shard 1

	nat := &fakeNAT{public: net.Root().NextIP()}
	lan := net.AddRealm("lan", net.Root(), nat, MustParseIP("10.0.0.1"))
	inner := net.AddRealm("inner", lan, &fakeNAT{public: MustParseIP("10.0.0.200")}, MustParseIP("192.168.0.1"))
	if lan.Site() != nil || inner.Site() != nil {
		t.Fatal("realms pinned before any host")
	}
	// First host lands in the NESTED realm: the pin must climb to the chain
	// top and cover every realm of the chain.
	net.AddHost("deep", s1, inner, HostConfig{})
	if lan.Site() != s1 || inner.Site() != s1 {
		t.Fatalf("chain not pinned to s1: lan=%v inner=%v", lan.Site(), inner.Site())
	}
	if lan.Shard() != s1.Shard() || inner.Shard() != s1.Shard() {
		t.Fatalf("chain shards = %d,%d, want %d", lan.Shard(), inner.Shard(), s1.Shard())
	}
	// A realm attached to a pinned chain inherits the pin immediately.
	late := net.AddRealm("late", lan, &fakeNAT{public: MustParseIP("10.0.0.201")}, MustParseIP("172.16.0.1"))
	if late.Site() != s1 {
		t.Fatalf("late realm did not inherit pin: %v", late.Site())
	}
	// Same-site hosts are fine anywhere in the chain.
	net.AddHost("peer", s1, lan, HostConfig{})
	// A host at another site must panic: one middlebox fronts one location.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("AddHost at a different site than the chain pin must panic")
			}
		}()
		net.AddHost("stray", s0, lan, HostConfig{})
	}()
	// The root realm never pins.
	net.AddHost("pub", s0, net.Root(), HostConfig{})
	if net.Root().Site() != nil || net.Root().Shard() != 0 {
		t.Fatal("root realm must stay unpinned")
	}
}

// runShardedNATExchange drives a NATed host (shard 1) pinging a public
// host (shard 0) and back: outbound translation happens on the sender's
// shard, the replies are boundary-deferred to the realm's owning shard.
func runShardedNATExchange(t *testing.T, workers, count int) (logIn, logOut []sim.Time, stats string, events uint64) {
	t.Helper()
	eng := sim.NewSharded(7, 2, workers)
	defer eng.Close()
	net := NewShardedNetwork(eng, UniformLatency(
		PathModel{OneWay: sim.Millisecond},
		PathModel{OneWay: 20 * sim.Millisecond, Jitter: 5 * sim.Millisecond},
	))
	pubSite := net.AddSite("pub") // shard 0
	lanSite := net.AddSite("lan") // shard 1
	floor, ok := net.CrossShardFloor()
	if !ok {
		t.Fatal("no cross-shard site pairs")
	}
	eng.SetLookahead(floor)

	pub := net.AddHost("pub", pubSite, net.Root(), HostConfig{})
	nat := &fakeNAT{public: net.Root().NextIP()}
	lan := net.AddRealm("lan", net.Root(), nat, MustParseIP("10.0.0.1"))
	inside := net.AddHost("inside", lanSite, lan, HostConfig{})
	if lan.Shard() != 1 {
		t.Fatalf("lan realm on shard %d, want 1", lan.Shard())
	}

	ps, err := pub.Listen(200)
	if err != nil {
		t.Fatal(err)
	}
	is, err := inside.Listen(100)
	if err != nil {
		t.Fatal(err)
	}
	ps.OnRecv = func(p *Packet) {
		if p.Src.IP != nat.public {
			t.Errorf("public host saw untranslated source %v", p.Src)
		}
		logOut = append(logOut, pub.Sim().Now())
		ps.Send(p.Src, 16, "pong")
	}
	is.OnRecv = func(p *Packet) {
		if p.Dst.IP != inside.IP() {
			t.Errorf("inbound translation missed: dst %v", p.Dst)
		}
		logIn = append(logIn, inside.Sim().Now())
	}
	for i := 0; i < count; i++ {
		at := sim.Time(i) * sim.Time(3*sim.Millisecond)
		eng.Shard(1).At(at, func() { is.Send(Endpoint{IP: pub.IP(), Port: 200}, 32, "ping") })
	}
	eng.RunUntil(sim.Time(2 * sim.Second))
	total := net.TotalStats()
	if got := total.Get("boundary.out"); got != int64(count) {
		t.Fatalf("boundary.out = %d, want %d", got, count)
	}
	if got := total.Get("boundary.in"); got != int64(count) {
		t.Fatalf("boundary.in = %d, want %d", got, count)
	}
	return logIn, logOut, total.String(), eng.Processed()
}

// TestShardedNATBoundaryDelivery: a NAT behind the parallel engine
// translates in both directions across shards, counts translations on the
// owning shard, and the whole trace is worker-invariant.
func TestShardedNATBoundaryDelivery(t *testing.T) {
	const count = 40
	in1, out1, s1, e1 := runShardedNATExchange(t, 1, count)
	if len(out1) != count || len(in1) != count {
		t.Fatalf("delivered %d pings / %d pongs, want %d each; stats: %s", len(out1), len(in1), count, s1)
	}
	in2, out2, s2, e2 := runShardedNATExchange(t, 2, count)
	if !reflect.DeepEqual(in1, in2) || !reflect.DeepEqual(out1, out2) {
		t.Fatal("NAT delivery trace depends on worker count")
	}
	if s1 != s2 || e1 != e2 {
		t.Fatalf("stats/event totals depend on worker count: %q/%d vs %q/%d", s1, e1, s2, e2)
	}
}

// TestShardedUnpinnedRealmUnroutable: an address claimed by a boundary
// with no hosts behind it has no owning shard and no possible receiver —
// the packet drops as lost.noroute instead of crashing the engine.
func TestShardedUnpinnedRealmUnroutable(t *testing.T) {
	eng := sim.NewSharded(3, 2, 1)
	defer eng.Close()
	net := NewShardedNetwork(eng, UniformLatency(
		PathModel{OneWay: sim.Millisecond},
		PathModel{OneWay: 10 * sim.Millisecond},
	))
	pubSite := net.AddSite("pub")
	net.AddSite("other")
	floor, _ := net.CrossShardFloor()
	eng.SetLookahead(floor)
	pub := net.AddHost("pub", pubSite, net.Root(), HostConfig{})
	nat := &fakeNAT{public: net.Root().NextIP()}
	net.AddRealm("empty", net.Root(), nat, MustParseIP("10.0.0.1"))

	s, _ := pub.Listen(0)
	eng.Shard(0).At(0, func() { s.Send(Endpoint{IP: nat.public, Port: 77}, 8, "x") })
	eng.RunUntil(sim.Time(sim.Second))
	total := net.TotalStats()
	if got := total.Get("lost.noroute"); got != 1 {
		t.Fatalf("lost.noroute = %d, want 1", got)
	}
}

// TestShardedConnIDsUniqueAcrossRealms: hosts in different private realms
// reuse the same RFC1918 addresses, and the listener side demultiplexes
// streams by connection ID alone — so IDs derived from the dialer's IP
// would collide and hijack each other's streams. The sharded allocator
// derives IDs from the network-wide host uid instead.
func TestShardedConnIDsUniqueAcrossRealms(t *testing.T) {
	eng := sim.NewSharded(11, 2, 2)
	defer eng.Close()
	net := NewShardedNetwork(eng, UniformLatency(
		PathModel{OneWay: sim.Millisecond},
		PathModel{OneWay: 20 * sim.Millisecond, Jitter: 5 * sim.Millisecond},
	))
	pubSite := net.AddSite("pub") // shard 0
	lanSite1 := net.AddSite("l1") // shard 1
	lanSite2 := net.AddSite("l2") // shard 0
	floor, _ := net.CrossShardFloor()
	eng.SetLookahead(floor)

	pub := net.AddHost("pub", pubSite, net.Root(), HostConfig{})
	natA := &fakeNAT{public: net.Root().NextIP()}
	natB := &fakeNAT{public: net.Root().NextIP()}
	lanA := net.AddRealm("lanA", net.Root(), natA, MustParseIP("10.0.0.1"))
	lanB := net.AddRealm("lanB", net.Root(), natB, MustParseIP("10.0.0.1"))
	a := net.AddHost("a", lanSite1, lanA, HostConfig{})
	b := net.AddHost("b", lanSite2, lanB, HostConfig{})
	if a.IP() != b.IP() {
		t.Fatalf("want colliding private IPs, got %v vs %v", a.IP(), b.IP())
	}

	var ids []uint64
	msgs := 0
	pub.ListenStream(7000, func(st *Stream) {
		ids = append(ids, st.connID)
		st.OnMessage(func(size int, payload any) { msgs++ })
	})
	eng.Shard(a.Shard()).At(0, func() {
		a.DialStream(Endpoint{IP: pub.IP(), Port: 7000}).SendMsg(64, "from-a")
	})
	eng.Shard(b.Shard()).At(0, func() {
		b.DialStream(Endpoint{IP: pub.IP(), Port: 7000}).SendMsg(64, "from-b")
	})
	eng.RunUntil(sim.Time(10 * sim.Second))
	if len(ids) != 2 || msgs != 2 {
		t.Fatalf("accepted %d streams, delivered %d messages, want 2/2", len(ids), msgs)
	}
	if ids[0] == ids[1] {
		t.Fatalf("conn IDs collide across realms: %#x", ids[0])
	}
}

// TestNewNetworkIsOneShard: NewNetwork wraps the caller's Simulator as a
// one-shard engine — the Simulator drives every event directly — and its
// counters read through TotalStats like any sharded network's.
func TestNewNetworkIsOneShard(t *testing.T) {
	s := sim.New(1)
	net := NewNetwork(s, UniformLatency(PathModel{}, PathModel{}))
	if net.Engine().Shards() != 1 || net.Engine().Shard(0) != s || net.Sim != s {
		t.Fatalf("NewNetwork engine: %d shards, shard 0 is the caller's simulator: %v",
			net.Engine().Shards(), net.Engine().Shard(0) == s)
	}
	site := net.AddSite("x")
	a := net.AddHost("a", site, net.Root(), HostConfig{})
	b := net.AddHost("b", site, net.Root(), HostConfig{})
	bs, _ := b.Listen(7)
	got := 0
	bs.OnRecv = func(p *Packet) { got++ }
	as, _ := a.Listen(0)
	as.Send(Endpoint{IP: b.IP(), Port: 7}, 8, "x")
	s.Run()
	if got != 1 {
		t.Fatal("not delivered")
	}
	total := net.TotalStats()
	if total.Get("delivered") != 1 {
		t.Fatalf("TotalStats.delivered = %d", total.Get("delivered"))
	}
}

// TestTotalStatsConcurrentShardWrites: the per-shard stats counters obey
// the same ownership rule as the engine — each shard's goroutine bumps
// only its own Counter (map Incs and the pre-resolved delivered handle) —
// and TotalStats merges them exactly. Run under -race this also proves
// the hot-path counters introduce no cross-shard write sharing.
func TestTotalStatsConcurrentShardWrites(t *testing.T) {
	const shards, perShard = 4, 5000
	eng := sim.NewSharded(7, shards, 1)
	defer eng.Close()
	net := NewShardedNetwork(eng, UniformLatency(PathModel{}, PathModel{}))
	var wg sync.WaitGroup
	for i := 0; i < shards; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perShard; j++ {
				net.deliveredSh[i].Inc(1)
				net.stats.Shard(i).Inc("lost.wire", 1)
			}
		}()
	}
	wg.Wait()
	total := net.TotalStats()
	if got := total.Get("delivered"); got != shards*perShard {
		t.Errorf("delivered = %d, want %d", got, shards*perShard)
	}
	if got := total.Get("lost.wire"); got != shards*perShard {
		t.Errorf("lost.wire = %d, want %d", got, shards*perShard)
	}
}

// tracedMsg is a stream payload carrying a flight-recorder context, the
// way an overlay packet does.
type tracedMsg struct{ id uint64 }

func (m *tracedMsg) TraceContext() (uint64, sim.Time) { return m.id, 0 }
func (m *tracedMsg) ClearTrace()                      { m.id = 0 }

// TestStreamAbortLeavesSentPayloads crosses a burst of traced messages
// from a (shard 0) with b's FIN (shard 1). Both arrive in the same engine
// window: b's shard delivers the messages while a, torn down by the FIN,
// still holds them unacked. The abort must emit its stream_abort
// terminals from its own copy of each message's trace context and never
// touch the payloads, which b's shard is reading concurrently — under
// -race a write to them trips the detector, and without it b may read a
// consumed context.
func TestStreamAbortLeavesSentPayloads(t *testing.T) {
	eng := sim.NewSharded(7, 2, 2)
	defer eng.Close()
	net := NewShardedNetwork(eng, UniformLatency(
		PathModel{OneWay: sim.Millisecond}, PathModel{OneWay: 20 * sim.Millisecond}))
	siteA, siteB := net.AddSite("a"), net.AddSite("b")
	eng.SetLookahead(20 * sim.Millisecond)
	net.FlightRecorder = trace.New(trace.Options{}, eng.Shard(0), eng.Shard(1))
	a := net.AddHost("a0", siteA, net.Root(), HostConfig{})
	b := net.AddHost("b0", siteB, net.Root(), HostConfig{})

	const msgs = 8
	var accepted *Stream
	var seen []uint64
	if _, err := b.ListenStream(9, func(s *Stream) {
		accepted = s
		s.OnMessage(func(_ int, payload any) { seen = append(seen, payload.(*tracedMsg).id) })
	}); err != nil {
		t.Fatal(err)
	}
	st := a.DialStream(Endpoint{IP: b.IP(), Port: 9})
	eng.RunUntil(sim.Time(sim.Second))
	if accepted == nil {
		t.Fatal("handshake did not complete")
	}
	cross := sim.Time(sim.Second).Add(sim.Millisecond)
	eng.Shard(0).At(cross, func() {
		for i := 1; i <= msgs; i++ {
			st.SendMsg(8, &tracedMsg{id: uint64(i)})
		}
	})
	eng.Shard(1).At(cross, func() { accepted.Close() })
	eng.RunUntil(cross.Add(sim.Second))

	for i, id := range seen {
		if id != uint64(i+1) {
			t.Fatalf("b delivered trace ids %v, want 1..%d intact", seen, msgs)
		}
	}
	if len(seen) != msgs {
		t.Fatalf("b delivered %d messages, want %d", len(seen), msgs)
	}
	aborted := 0
	for _, r := range net.FlightRecorder.Drain() {
		if r.Outcome == trace.OutcomeStreamAbort {
			aborted++
		}
	}
	if aborted != msgs {
		t.Fatalf("%d stream_abort terminals, want one per message unacked at the abort (%d)", aborted, msgs)
	}
}
