package dht

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"wow/internal/brunet"
	"wow/internal/phys"
	"wow/internal/sim"
)

type rig struct {
	s     *sim.Simulator
	net   *phys.Network
	nodes []*brunet.Node
	dhts  []*DHT
}

func newRig(t *testing.T, seed int64, n int) *rig {
	t.Helper()
	s := sim.New(seed)
	net := phys.NewNetwork(s, phys.UniformLatency(
		phys.PathModel{OneWay: sim.Millisecond},
		phys.PathModel{OneWay: 10 * sim.Millisecond},
	))
	r := &rig{s: s, net: net}
	cfg := brunet.FastTestConfig()
	site := net.AddSite("net")
	for i := 0; i < n; i++ {
		h := net.AddHost(fmt.Sprintf("h%02d", i), site, net.Root(), phys.HostConfig{})
		bn := brunet.NewNode(h, brunet.AddrFromString(fmt.Sprintf("dht-node-%02d", i)), cfg)
		var boot []brunet.URI
		if i > 0 {
			boot = []brunet.URI{r.nodes[0].BootstrapURI()}
		}
		if err := bn.Start(boot); err != nil {
			t.Fatal(err)
		}
		r.nodes = append(r.nodes, bn)
		r.dhts = append(r.dhts, New(bn, Config{}))
		s.RunFor(2 * sim.Second)
	}
	s.RunFor(60 * sim.Second)
	return r
}

func TestPutGetRoundTrip(t *testing.T) {
	r := newRig(t, 1, 12)
	var got []string
	found := false
	r.dhts[0].Append("jobs/queue", "alpha", 0, func(ok bool) {
		if !ok {
			t.Error("append not acked")
		}
	})
	r.s.RunFor(5 * sim.Second)
	// Read from a different node entirely.
	r.dhts[7].Get("jobs/queue", func(members []string, ok bool) { got, found = members, ok })
	r.s.RunFor(5 * sim.Second)
	if !found || len(got) != 1 || got[0] != "alpha" {
		t.Fatalf("get = %v found=%v", got, found)
	}
}

func TestSetSemantics(t *testing.T) {
	r := newRig(t, 2, 10)
	for i, v := range []string{"a", "b", "c", "b"} { // duplicate "b"
		r.dhts[i%len(r.dhts)].Append("set", v, 0, nil)
	}
	r.s.RunFor(5 * sim.Second)
	var got []string
	r.dhts[9].Get("set", func(members []string, ok bool) { got = members })
	r.s.RunFor(5 * sim.Second)
	if len(got) != 3 {
		t.Fatalf("set = %v, want 3 distinct members", got)
	}
}

func TestMissingKey(t *testing.T) {
	r := newRig(t, 3, 8)
	called := false
	r.dhts[0].Get("no/such/key", func(members []string, ok bool) {
		called = true
		if ok || len(members) != 0 {
			t.Errorf("missing key returned %v ok=%v", members, ok)
		}
	})
	r.s.RunFor(15 * sim.Second)
	if !called {
		t.Fatal("callback never fired")
	}
}

func TestTTLExpiry(t *testing.T) {
	r := newRig(t, 4, 8)
	r.dhts[0].Append("ephemeral", "x", 30*sim.Second, nil)
	r.s.RunFor(5 * sim.Second)
	var live bool
	r.dhts[1].Get("ephemeral", func(m []string, ok bool) { live = ok })
	r.s.RunFor(5 * sim.Second)
	if !live {
		t.Fatal("member not visible before TTL")
	}
	r.s.RunFor(sim.Minute)
	r.dhts[1].Get("ephemeral", func(m []string, ok bool) { live = ok })
	r.s.RunFor(5 * sim.Second)
	if live {
		t.Fatal("member visible after TTL expiry")
	}
}

func TestReplicaServesAfterOwnerCrash(t *testing.T) {
	r := newRig(t, 5, 14)
	r.dhts[0].Append("durable", "payload", sim.Hour, nil)
	r.s.RunFor(5 * sim.Second)

	// Find and kill the owner (the node nearest the key).
	keyAddr := KeyAddr("durable")
	owner := 0
	for i, n := range r.nodes {
		if n.Addr().RingDist(keyAddr).Cmp(r.nodes[owner].Addr().RingDist(keyAddr)) < 0 {
			owner = i
		}
	}
	if r.dhts[owner].Entries() == 0 {
		t.Fatal("computed owner holds nothing; ownership mapping broken")
	}
	r.nodes[owner].Stop()
	// Let the ring repair (fast config: dead links detected in seconds).
	r.s.RunFor(2 * sim.Minute)

	reader := (owner + 3) % len(r.nodes)
	var got []string
	found := false
	r.dhts[reader].Get("durable", func(members []string, ok bool) { got, found = members, ok })
	r.s.RunFor(10 * sim.Second)
	if !found || len(got) != 1 {
		t.Fatalf("replica did not serve after owner crash: %v found=%v", got, found)
	}
}

func TestDiscoveryAdvertiseAndList(t *testing.T) {
	r := newRig(t, 6, 12)
	for i, d := range r.dhts[:6] {
		disc := NewDiscovery(d, "pool/compute")
		disc.Advertise(Advert{Name: fmt.Sprintf("node%02d", i), Speed: 1 + float64(i)/10}, sim.Minute)
	}
	r.s.RunFor(10 * sim.Second)

	lister := NewDiscovery(r.dhts[9], "pool/compute")
	var ads []Advert
	lister.List(func(a []Advert, ok bool) { ads = a })
	r.s.RunFor(5 * sim.Second)
	if len(ads) != 6 {
		t.Fatalf("discovered %d of 6 machines: %v", len(ads), ads)
	}
	if ads[0].Name != "node00" || ads[0].Speed != 1.0 {
		t.Fatalf("advert decode: %+v", ads[0])
	}
}

func TestDiscoveryCrashAgesOut(t *testing.T) {
	r := newRig(t, 7, 12)
	var discs []*Discovery
	for i, d := range r.dhts[:4] {
		disc := NewDiscovery(d, "pool/x")
		disc.Advertise(Advert{Name: fmt.Sprintf("m%d", i), Speed: 1}, 30*sim.Second)
		discs = append(discs, disc)
	}
	r.s.RunFor(10 * sim.Second)

	// m0 stops refreshing (crash); after ~2 intervals it ages out.
	discs[0].StopAdvertising()
	r.s.RunFor(3 * sim.Minute)

	lister := NewDiscovery(r.dhts[8], "pool/x")
	var ads []Advert
	lister.List(func(a []Advert, ok bool) { ads = a })
	r.s.RunFor(5 * sim.Second)
	if len(ads) != 3 {
		t.Fatalf("pool = %v, want m0 aged out", ads)
	}
	for _, a := range ads {
		if a.Name == "m0" {
			t.Fatal("crashed member still advertised")
		}
	}
}

func TestAdvertCodec(t *testing.T) {
	ad := Advert{Name: "node002", Speed: 1.33}
	rt, err := decodeAdvert(ad.encode())
	if err != nil || rt != ad {
		t.Fatalf("roundtrip %v -> %v (%v)", ad, rt, err)
	}
	for _, bad := range []string{"", "noequals", "x=notafloat"} {
		if _, err := decodeAdvert(bad); err == nil {
			t.Errorf("decode(%q) accepted", bad)
		}
	}
}

func TestDHTString(t *testing.T) {
	r := newRig(t, 8, 4)
	if r.dhts[0].String() == "" {
		t.Fatal("String empty")
	}
}

// Property: the replica order is the one materialized ring distances give,
// with ties (peers mirrored around the key) to the lower address, whatever
// order the connections arrive in.
func TestQuickSortByRingDistMatchesMaterialized(t *testing.T) {
	f := func(key string, raw [][brunet.AddrBytes]byte, mirror uint8, shuffle int64) bool {
		ka := KeyAddr(key)
		seen := map[brunet.Addr]bool{}
		var conns []*brunet.Connection
		add := func(a brunet.Addr) {
			if !seen[a] {
				seen[a] = true
				conns = append(conns, &brunet.Connection{Peer: a})
			}
		}
		for i, r := range raw {
			a := brunet.Addr(r)
			add(a)
			if i%int(mirror%4+1) == 0 {
				// ka − (a − ka): the same ring distance to ka as a.
				add(ka.Offset(a.Clockwise(ka)))
			}
		}
		want := slices.Clone(conns)
		slices.SortFunc(want, func(a, b *brunet.Connection) int {
			if c := a.Peer.RingDist(ka).Cmp(b.Peer.RingDist(ka)); c != 0 {
				return c
			}
			return a.Peer.Cmp(b.Peer)
		})
		rand.New(rand.NewSource(shuffle)).Shuffle(len(conns), func(i, j int) { conns[i], conns[j] = conns[j], conns[i] })
		sortByRingDist(conns, ka)
		return slices.Equal(conns, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(53))}); err != nil {
		t.Fatal(err)
	}
}
