package experiments

import (
	"fmt"
	"strings"
	"testing"
)

// The golden-seed tests pin complete experiment summaries, byte for byte.
// Experiment outputs are pure functions of the seed, so any drift here
// means a routing or scheduling decision changed. The expected values live
// inline (not in a golden file) so a diff shows exactly which protocol
// outcome moved. Re-captured with the tunnel-edge subsystem: CTMs now
// carry relay-candidate lists (larger wire size shifts event timing), and
// partition heal converges much faster — nodes that exhaust a partition
// peer's stale URIs fall back to tunnel edges through already-healed
// neighbors instead of waiting out further relink rounds, and a direct
// dial from a tunneled peer wins linking races outright (recovery 88 s
// versus 396 s before tunnels).
//
// Fig. 8 and partition heal were re-captured once more when the serial
// network became the one-shard case of the sharded packet pipeline: a
// packet into a NATed or firewalled host is now translated when it
// arrives at the middlebox, not when it is sent, so a hole-punch probe
// crossing the peer's own outbound probe in flight is admitted as a real
// NAT would admit it. Over seeds 1-8 Fig. 8 throughput moved from median
// 47.9 (range 43.3-49.3) to 46.0 (44.5-49.3) jobs/minute, and partition
// heal kept its 4 fast / 4 slow recovery split with every cut confirmed
// and healed.

const goldenFig8Seed5 = "Figure 8 / §V-D1: 120 PBS/MEME jobs, shortcuts enabled\n" +
	"  wall-clock time: 162 s; throughput 44.5 jobs/minute\n" +
	"  job wall time: mean 25.9 s, std 6.4 s (failed: 0)\n" +
	"  execution-time histogram:\n" +
	"       8 s:   0.8% #\n" +
	"      24 s:  94.2% ###########################################################################\n" +
	"      40 s:   2.5% ##\n" +
	"      56 s:   2.5% ##\n" +
	"      72 s:   0.0% \n" +
	"      88 s:   0.0% \n" +
	"  job share by node: node032=2.5% node033=5.0% node034=2.5%\n"

const goldenPartitionHealSeed5 = "Partition repair: 180 s site cut (NWU + half of PlanetLab vs rest)\n" +
	"  cut confirmed mid-window: true\n" +
	"  all probe pairs recovered: true\n" +
	"partition-heal           recovery: 108.0s\n" +
	"  ping.dead              370\n" +
	"  ping.stale             1\n" +
	"  ping.fast_probe        0\n" +
	"  close.forwarded        2692\n" +
	"  handoff.sent           0\n" +
	"  handoff.received       0\n" +
	"  handoff.linked         0\n" +
	"  relink.attempts        1092\n" +
	"  relink.success         205\n" +
	"  relink.giveup          0\n" +
	"  link.giveup            34\n" +
	"  fault timeline:\n" +
	"    t=429.000s partition begin\n" +
	"    t=609.000s partition end\n"

const goldenSymRingSeed5 = "All-symmetric-NAT ring: 20 NATed + 3 public routers, seed 5\n" +
	"  routable: 100.0%; ring: 0 missing near links (6 direct, 19 tunneled)\n" +
	"  tunnels: 157 established, 18 upgraded; relays: 52 lost, 4 reselected\n" +
	"  vip ping (sym ws <-> sym ws): 4/4\n" +
	"  migration to public host: vip outage 26.4 s\n"

// diffLine locates the first line where got and want diverge, for a
// readable failure message.
func diffLine(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n  got:  %s\n  want: %s", i+1, g[i], w[i])
		}
	}
	return "outputs differ in length"
}

func TestGoldenSeedFig8(t *testing.T) {
	res, err := RunFig8(Fig8Opts{Seed: 5, Jobs: 120, Routers: 40, PlanetLabHosts: 8, Shortcuts: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.String(); got != goldenFig8Seed5 {
		t.Errorf("fig8 seed-5 summary drifted from pre-refactor baseline; %s\nfull output:\n%s",
			diffLine(got, goldenFig8Seed5), got)
	}
}

func TestGoldenSeedPartitionHeal(t *testing.T) {
	res, err := RunPartitionHeal(PartitionHealOpts{Seed: 5, Routers: 30, PlanetLabHosts: 6})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.String(); got != goldenPartitionHealSeed5 {
		t.Errorf("partition-heal seed-5 summary drifted from pre-refactor baseline; %s\nfull output:\n%s",
			diffLine(got, goldenPartitionHealSeed5), got)
	}
}

// TestGoldenSeedSymRing pins the all-symmetric-NAT ring summary: tunnel
// establishment, relay churn, in-place upgrades and the migration outage
// are all pure functions of the seed, so drift here means the tunnel
// subsystem's decisions moved.
func TestGoldenSeedSymRing(t *testing.T) {
	res, err := RunSymmetricRing(SymRingOpts{Seed: 5, Routers: 3, Nodes: 20, Pings: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.String(); got != goldenSymRingSeed5 {
		t.Errorf("symmetric-ring seed-5 summary drifted; %s\nfull output:\n%s",
			diffLine(got, goldenSymRingSeed5), got)
	}
}

// TestRunScale exercises the scale harness end to end at a size small
// enough for the unit-test budget: the overlay must fully converge and
// deliver every measured packet.
func TestRunScale(t *testing.T) {
	res, err := RunScale(ScaleOpts{Seed: 3, Nodes: 300, Packets: 300, Sites: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.RoutableFrac != 1 {
		t.Errorf("routable fraction = %.3f, want 1.0", res.RoutableFrac)
	}
	if res.Delivered != res.PacketsSent {
		t.Errorf("delivered %d of %d packets", res.Delivered, res.PacketsSent)
	}
	if res.AvgHops <= 1 {
		t.Errorf("avg hops = %.2f, want multi-hop routes", res.AvgHops)
	}
	if !strings.Contains(res.String(), "300-node overlay") {
		t.Errorf("summary missing node count:\n%s", res)
	}
}
