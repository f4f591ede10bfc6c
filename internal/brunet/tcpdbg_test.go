package brunet

import (
	"fmt"
	"testing"

	"wow/internal/phys"
	"wow/internal/sim"
)

func TestDebugTCPRing(t *testing.T) {
	r := newOverlayRig(30)
	cfg := FastTestConfig()
	cfg.Transport = "tcp"
	for i := 0; i < 10; i++ {
		h := r.net.AddHost(fmt.Sprintf("t%02d", i), r.site, r.net.Root(), phys.HostConfig{})
		n := NewNode(h, AddrFromString(fmt.Sprintf("t%02d", i)), cfg)
		var boot []URI
		if len(r.nodes) > 0 {
			boot = []URI{tcpBootURI(r.nodes[0])}
		}
		if err := n.Start(boot); err != nil {
			t.Fatal(err)
		}
		r.nodes = append(r.nodes, n)
		r.s.RunFor(2 * sim.Second)
	}
	r.s.RunFor(60 * sim.Second)
	order := r.ringOrder()
	for i, n := range order {
		succ := order[(i+1)%len(order)]
		c := n.ConnectionTo(succ.Addr())
		if c == nil || !c.Has(StructuredNear) {
			fmt.Printf("MISSING %s -> %s\n", n.Addr(), succ.Addr())
			fmt.Printf("  %s conns:", n.Addr())
			for _, cc := range n.Connections() {
				fmt.Printf(" %v", cc)
			}
			fmt.Printf("\n  stats: %s\n", n.Stats.String())
			fmt.Printf("  succ %s conns:", succ.Addr())
			for _, cc := range succ.Connections() {
				fmt.Printf(" %v", cc)
			}
			fmt.Printf("\n  succ stats: %s\n", succ.Stats.String())
		}
	}
	st := r.net.TotalStats()
	fmt.Printf("net: %s\n", st.String())
}
