package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"wow/internal/brunet"
	"wow/internal/phys"
	"wow/internal/sim"
)

// ScaleOpts parameterizes the scale harness: how many routers to stand up,
// how many end-to-end packets to route through the converged overlay, and
// the join pacing. Zero fields take the defaults below.
//
// Two build modes exist. The classic serial mode (Shards<=1, BatchJoin=0)
// joins one node at a time through a small bootstrap pool on a
// zero-latency fabric — its traces are pinned by golden tests and stay
// byte-identical. The parallel mode (Shards>1 and/or BatchJoin>0) targets
// the 10k–20k rungs: batched bootstrap fans each batch's joins across
// every already-joined node, keepalives run on a coarse schedule during
// the build, and with Shards>1 the whole simulation executes on the
// site-sharded parallel engine with the WAN latency floor as conservative
// lookahead. Parallel results are deterministic in (Seed, Shards) and
// independent of Workers.
type ScaleOpts struct {
	Seed int64
	// Nodes is the overlay size; the serial harness targets the 1,000–
	// 5,000 range, the sharded harness 5,000–20,000.
	Nodes int
	// Packets is how many end-to-end packets the measurement phase routes
	// between random node pairs.
	Packets int
	// Sites spreads hosts round-robin over this many network sites.
	Sites int
	// JoinSpacing staggers node starts (serial mode).
	JoinSpacing sim.Duration
	// Settle is the convergence time granted after the last join.
	Settle sim.Duration

	// Shards runs the simulation on a sim.Sharded engine with this many
	// shards (sites round-robin onto shards). 0 or 1 keeps a single event
	// queue.
	Shards int
	// Workers bounds the goroutines executing shard windows; 0 means
	// min(Shards, GOMAXPROCS). Results never depend on it.
	Workers int
	// BatchJoin enables batched bootstrap: joins start in batches that
	// ramp up to this size, each joiner bootstrapping off three nodes
	// spread deterministically across everything already joined. 0 in
	// serial mode; defaults to 256 when Shards>1.
	BatchJoin int
	// BatchInterval is the virtual time between batch starts.
	BatchInterval sim.Duration
	// WANLatency is the one-way inter-site delay of the parallel fabric.
	// Its floor (minus jitter, zero here) is the engine's lookahead, so it
	// must be positive when Shards>1.
	WANLatency sim.Duration
	// OnProgress, when set, observes every build time-series sample.
	OnProgress func(ScalePoint)
}

func (o *ScaleOpts) parallel() bool { return o.Shards > 1 || o.BatchJoin > 0 }

// SettleSeconds converts a settle time given in (possibly fractional)
// seconds to a sim.Duration; 0 keeps the harness default.
func SettleSeconds(s float64) sim.Duration {
	return sim.Duration(s * float64(sim.Second))
}

// Milliseconds converts a latency given in (possibly fractional)
// milliseconds to a sim.Duration; 0 keeps the harness default.
func Milliseconds(ms float64) sim.Duration {
	return sim.Duration(ms * float64(sim.Millisecond))
}

func (o *ScaleOpts) fillDefaults() {
	if o.Nodes == 0 {
		o.Nodes = 2000
	}
	if o.Packets == 0 {
		o.Packets = 2000
	}
	if o.Sites == 0 {
		o.Sites = 32
	}
	if o.JoinSpacing == 0 {
		o.JoinSpacing = 100 * sim.Millisecond
	}
	if o.Settle == 0 {
		o.Settle = 2 * sim.Minute
	}
	if o.Shards > 1 && o.BatchJoin == 0 {
		o.BatchJoin = 256
	}
	if o.parallel() {
		if o.BatchInterval == 0 {
			o.BatchInterval = 5 * sim.Second
		}
		if o.WANLatency == 0 {
			o.WANLatency = 10 * sim.Millisecond
		}
		if o.Workers == 0 {
			o.Workers = runtime.GOMAXPROCS(0)
		}
		if o.Shards > 0 && o.Workers > o.Shards {
			o.Workers = o.Shards
		}
	}
}

// coarseKeepaliveConfig is the build-phase protocol schedule of the
// parallel harness: paper-default topology constants but liveness pings
// 4x coarser — keepalives are pure background load on a fabric with no
// failures, and dominate the per-node event budget of multi-thousand-node
// builds. The topology-maintenance ticks stay at their defaults on
// purpose: the near overlord's status tick (15s) is also the ring-repair
// cadence that concurrent batch joiners depend on to find their true
// ring neighbors, and the far overlord's tick (30s) must fire enough
// rounds within the settle window to fill the far tables (coarsening
// either leaves successor gaps or >MaxHops paths at 5k+ nodes).
// Shortcuts stay disabled as in the serial harness.
func coarseKeepaliveConfig() brunet.Config {
	return brunet.Config{
		PingInterval: 60 * sim.Second,
	}
}

// ScalePoint is one sample of the build time series: how much wall clock
// and virtual time had elapsed when the sample was taken, how many nodes
// had joined, and the cumulative join throughput.
type ScalePoint struct {
	WallSec     float64
	VirtualSec  float64
	Joined      int
	JoinsPerSec float64
	Events      uint64
}

// ScaleOverlay is a converged large overlay ready for routing
// measurements. In serial mode the physical fabric is zero-latency on
// purpose: with no propagation delay a packet's whole multi-hop route
// executes within RunUntil(Now()) — the clock never advances, no keepalive
// or gossip timer can interleave, and the measurement isolates the CPU
// cost of the routing hot path itself. The parallel fabric has real WAN
// latency (the lookahead bound), so its measurement phase instead spaces
// timed sends and reads per-node counters.
type ScaleOverlay struct {
	Sim   *sim.Simulator
	Net   *phys.Network
	Nodes []*brunet.Node
	// Engine drives the build: one shard in serial mode (Sim is that
	// shard), Shards shards in parallel mode.
	Engine *sim.Sharded
	// Series is the build time series of a parallel build.
	Series []ScalePoint
	// Delivered counts end-to-end "scale" payloads received by any node
	// (serial mode only; the parallel harness reads per-node counters).
	Delivered int
}

// BuildScaleOverlay stands up opts.Nodes bare Brunet routers (no IPOP/VM
// layers — this harness weighs the overlay, not the guests) and lets the
// ring converge, using the serial or parallel build depending on opts.
func BuildScaleOverlay(opts ScaleOpts) (*ScaleOverlay, error) {
	opts.fillDefaults()
	if opts.parallel() {
		return buildScaleParallel(opts)
	}
	return buildScaleSerial(opts)
}

// buildScaleSerial joins one node at a time, bootstrapping off a pool of
// the 16 earliest nodes so leaf-connection load spreads instead of piling
// onto one founder. Its event trace is golden-pinned; do not perturb.
func buildScaleSerial(opts ScaleOpts) (*ScaleOverlay, error) {
	s := sim.New(opts.Seed)
	net := phys.NewNetwork(s, phys.UniformLatency(phys.PathModel{}, phys.PathModel{}))
	sites := make([]*phys.Site, opts.Sites)
	for i := range sites {
		sites[i] = net.AddSite(fmt.Sprintf("site%02d", i))
	}
	ov := &ScaleOverlay{Sim: s, Net: net, Engine: net.Engine()}

	// Paper-default protocol constants, shortcuts disabled: the harness
	// measures pure ring routing (near + far connections), not the
	// traffic-adaptive topology.
	cfg := brunet.Config{}
	var pool []brunet.URI
	for i := 0; i < opts.Nodes; i++ {
		name := fmt.Sprintf("scale%05d", i)
		h := net.AddHost(name, sites[i%len(sites)], net.Root(), phys.HostConfig{})
		n := brunet.NewNode(h, brunet.AddrFromString(name), cfg)
		var boot []brunet.URI
		if p := len(pool); p > 0 {
			boot = []brunet.URI{pool[i%p], pool[(i+7)%p], pool[(i+13)%p]}
		}
		if err := n.Start(boot); err != nil {
			return nil, fmt.Errorf("scale: start %s: %w", name, err)
		}
		n.RegisterProto("scale", func(src brunet.Addr, d brunet.AppData) { ov.Delivered++ })
		if len(pool) < 16 {
			pool = append(pool, n.BootstrapURI())
		}
		ov.Nodes = append(ov.Nodes, n)
		s.RunFor(opts.JoinSpacing)
	}
	s.RunFor(opts.Settle)
	return ov, nil
}

// buildScaleParallel is the batched, optionally sharded build. All hosts
// and nodes are created up front; Start events are scheduled per batch on
// each node's own shard. A joiner bootstraps off three deterministic picks
// from every node of earlier batches — the whole joined overlay is the
// bootstrap pool, so leaf load fans out and batch members join
// concurrently in virtual time. Batch sizes ramp geometrically (1, 1, 2,
// 4, …) up to opts.BatchJoin so the infant ring is never stampeded.
func buildScaleParallel(opts ScaleOpts) (*ScaleOverlay, error) {
	k := opts.Shards
	if k < 1 {
		k = 1
	}
	eng := sim.NewSharded(opts.Seed, k, opts.Workers)
	net := phys.NewShardedNetwork(eng, phys.UniformLatency(
		phys.PathModel{}, phys.PathModel{OneWay: opts.WANLatency}))
	sites := make([]*phys.Site, opts.Sites)
	for i := range sites {
		sites[i] = net.AddSite(fmt.Sprintf("site%02d", i))
	}
	if k > 1 {
		floor, ok := net.CrossShardFloor()
		if !ok {
			return nil, fmt.Errorf("scale: %d shards but no cross-shard site pair (need Sites >= Shards)", k)
		}
		if floor <= 0 {
			return nil, fmt.Errorf("scale: cross-shard latency floor %v must be positive (WANLatency too small)", floor)
		}
		eng.SetLookahead(floor)
	}
	ov := &ScaleOverlay{Sim: net.Sim, Net: net, Engine: eng}

	cfg := coarseKeepaliveConfig()
	nodes := make([]*brunet.Node, opts.Nodes)
	for i := range nodes {
		name := fmt.Sprintf("scale%05d", i)
		h := net.AddHost(name, sites[i%len(sites)], net.Root(), phys.HostConfig{})
		nodes[i] = brunet.NewNode(h, brunet.AddrFromString(name), cfg)
		nodes[i].RegisterProto("scale", func(brunet.Addr, brunet.AppData) {})
	}
	ov.Nodes = nodes

	// Schedule the batched joins. Within a batch, starts stagger across
	// the first half of the batch interval; the second half lets the CTM
	// and linking traffic drain before the next wave.
	type batchMark struct {
		end    sim.Time
		joined int
	}
	var marks []batchMark
	var t sim.Time
	started := 0
	for started < opts.Nodes {
		size := started
		if size < 1 {
			size = 1
		}
		if size > opts.BatchJoin {
			size = opts.BatchJoin
		}
		if size > opts.Nodes-started {
			size = opts.Nodes - started
		}
		step := opts.BatchInterval / 2 / sim.Duration(size)
		if step < sim.Microsecond {
			step = sim.Microsecond
		}
		prev := started // boot pool: everything from earlier batches
		for j := 0; j < size; j++ {
			i := started + j
			n := nodes[i]
			at := t.Add(sim.Duration(j) * step)
			// The boot URIs are resolved when the event fires: the pool
			// nodes started in earlier windows, and BootstrapURI reads
			// write-once state, so the cross-shard read is ordered by the
			// engine's barrier.
			n.Host().Sim().At(at, func() {
				var boot []brunet.URI
				if prev > 0 {
					boot = []brunet.URI{
						nodes[i%prev].BootstrapURI(),
						nodes[(i+7)%prev].BootstrapURI(),
						nodes[(i+13)%prev].BootstrapURI(),
					}
				}
				if err := n.Start(boot); err != nil {
					panic(fmt.Sprintf("scale: start %s: %v", n.Addr(), err))
				}
			})
		}
		started += size
		t = t.Add(opts.BatchInterval)
		marks = append(marks, batchMark{end: t, joined: started})
	}

	t0 := time.Now()
	record := func(virtual sim.Time, joined int) {
		wall := time.Since(t0).Seconds()
		p := ScalePoint{
			WallSec:    wall,
			VirtualSec: virtual.Seconds(),
			Joined:     joined,
			Events:     eng.Processed(),
		}
		if wall > 0 {
			p.JoinsPerSec = float64(joined) / wall
		}
		ov.Series = append(ov.Series, p)
		if opts.OnProgress != nil {
			opts.OnProgress(p)
		}
	}
	for _, m := range marks {
		eng.RunUntil(m.end)
		record(m.end, m.joined)
	}
	end := t.Add(opts.Settle)
	eng.RunUntil(end)
	record(end, opts.Nodes)
	return ov, nil
}

// Pair returns a deterministic pseudo-random (src, dst) node pair for
// measurement iteration i.
func (ov *ScaleOverlay) Pair(i int) (src, dst *brunet.Node) {
	n := len(ov.Nodes)
	a := int(uint32(i) * 2654435761 % uint32(n))
	b := int((uint32(i)*40503 + 2654435769) % uint32(n))
	if a == b {
		b = (b + 1) % n
	}
	return ov.Nodes[a], ov.Nodes[b]
}

// RouteOne routes one end-to-end packet from src toward dst's address and
// drains every event at the frozen simulation instant, so the full
// multi-hop route (and nothing else) executes before it returns. Serial
// harness only — the parallel fabric has real latency.
func (ov *ScaleOverlay) RouteOne(src, dst *brunet.Node) {
	src.SendTo(dst.Addr(), brunet.DeliverExact, brunet.AppData{Proto: "scale", Size: 64})
	ov.Sim.RunUntil(ov.Sim.Now())
}

// RoutableFrac reports the fraction of nodes that are fully routable.
func (ov *ScaleOverlay) RoutableFrac() float64 {
	routable := 0
	for _, n := range ov.Nodes {
		if n.IsRoutable() {
			routable++
		}
	}
	return float64(routable) / float64(len(ov.Nodes))
}

// ForwardedTotal sums route.forwarded over the fleet.
func (ov *ScaleOverlay) ForwardedTotal() int64 {
	var total int64
	for _, n := range ov.Nodes {
		total += n.Stats.Get("route.forwarded")
	}
	return total
}

// DeliveredTotal sums route.delivered over the fleet; the parallel
// measurement phase counts deliveries through it (a shared closure
// counter would race across shards).
func (ov *ScaleOverlay) DeliveredTotal() int64 {
	var total int64
	for _, n := range ov.Nodes {
		total += n.Stats.Get("route.delivered")
	}
	return total
}

// ScaleResult summarizes one scale-harness run. Protocol outcomes
// (delivered counts, hops, routability) are seed-deterministic; the
// wall-clock and allocation figures measure this machine's execution of
// the run.
type ScaleResult struct {
	Seed          int64
	Nodes, Sites  int
	RoutableFrac  float64
	BuildWallSec  float64
	JoinsPerSec   float64
	PacketsSent   int
	Delivered     int
	AvgHops       float64
	RouteWallSec  float64
	RoutedPerSec  float64
	NsPerPacket   float64
	AllocsPerOp   float64
	EventsTotal   uint64
	SettleSeconds float64

	// Parallel-mode fields (zero in serial runs).
	Shards       int          `json:",omitempty"`
	Workers      int          `json:",omitempty"`
	BatchJoin    int          `json:",omitempty"`
	WANLatencyMs float64      `json:",omitempty"`
	MaxProcs     int          `json:",omitempty"`
	Series       []ScalePoint `json:",omitempty"`
}

// String renders the harness summary.
func (r *ScaleResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Scale harness: %d-node overlay over %d sites, seed %d\n", r.Nodes, r.Sites, r.Seed)
	if r.Shards > 0 || r.BatchJoin > 0 {
		fmt.Fprintf(&b, "  parallel: %d shards x %d workers (GOMAXPROCS %d), join batches of %d, wan %.0f ms\n",
			r.Shards, r.Workers, r.MaxProcs, r.BatchJoin, r.WANLatencyMs)
	}
	fmt.Fprintf(&b, "  build: %.1f s wall (%.0f joins/s), routable %.1f%%\n",
		r.BuildWallSec, r.JoinsPerSec, r.RoutableFrac*100)
	fmt.Fprintf(&b, "  routing: %d/%d packets delivered, avg %.1f hops\n",
		r.Delivered, r.PacketsSent, r.AvgHops)
	fmt.Fprintf(&b, "  hot path: %.0f ns/packet, %.1f allocs/packet, %.0f packets/s wall\n",
		r.NsPerPacket, r.AllocsPerOp, r.RoutedPerSec)
	fmt.Fprintf(&b, "  events processed: %d\n", r.EventsTotal)
	return b.String()
}

// RunScale builds a large overlay and measures the routing hot path:
// joins/sec during the build, then per-packet cost for end-to-end routed
// packets. Serial runs freeze the clock per packet and so isolate the pure
// routing cost; parallel runs space timed sends over the latent fabric, so
// their per-packet figures include the background keepalive load — honest
// for throughput, not comparable to the serial ns/packet.
func RunScale(opts ScaleOpts) (*ScaleResult, error) {
	opts.fillDefaults()
	if opts.parallel() {
		return runScaleParallel(opts)
	}
	t0 := time.Now()
	ov, err := BuildScaleOverlay(opts)
	if err != nil {
		return nil, err
	}
	buildWall := time.Since(t0).Seconds()

	res := &ScaleResult{
		Seed:          opts.Seed,
		Nodes:         opts.Nodes,
		Sites:         opts.Sites,
		RoutableFrac:  ov.RoutableFrac(),
		BuildWallSec:  buildWall,
		JoinsPerSec:   float64(opts.Nodes) / buildWall,
		PacketsSent:   opts.Packets,
		SettleSeconds: opts.Settle.Seconds(),
	}

	fwd0 := ov.ForwardedTotal()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t1 := time.Now()
	for i := 0; i < opts.Packets; i++ {
		src, dst := ov.Pair(i)
		ov.RouteOne(src, dst)
	}
	routeWall := time.Since(t1).Seconds()
	runtime.ReadMemStats(&m1)

	res.Delivered = ov.Delivered
	res.RouteWallSec = routeWall
	if routeWall > 0 {
		res.RoutedPerSec = float64(opts.Packets) / routeWall
	}
	res.NsPerPacket = routeWall * 1e9 / float64(opts.Packets)
	res.AllocsPerOp = float64(m1.Mallocs-m0.Mallocs) / float64(opts.Packets)
	if res.Delivered > 0 {
		res.AvgHops = float64(ov.ForwardedTotal()-fwd0) / float64(res.Delivered)
	}
	res.EventsTotal = ov.Sim.Processed
	return res, nil
}

// runScaleParallel is the batched/sharded variant of RunScale. The
// measurement phase schedules Packets sends spaced 2ms apart (each on the
// source node's shard), runs the engine to a drain horizon, and reads the
// per-node counters for deliveries and hops.
func runScaleParallel(opts ScaleOpts) (*ScaleResult, error) {
	t0 := time.Now()
	ov, err := BuildScaleOverlay(opts)
	if err != nil {
		return nil, err
	}
	buildWall := time.Since(t0).Seconds()
	eng := ov.Engine

	res := &ScaleResult{
		Seed:          opts.Seed,
		Nodes:         opts.Nodes,
		Sites:         opts.Sites,
		RoutableFrac:  ov.RoutableFrac(),
		BuildWallSec:  buildWall,
		JoinsPerSec:   float64(opts.Nodes) / buildWall,
		PacketsSent:   opts.Packets,
		SettleSeconds: opts.Settle.Seconds(),
		Shards:        eng.Shards(),
		Workers:       eng.Workers(),
		BatchJoin:     opts.BatchJoin,
		WANLatencyMs:  float64(opts.WANLatency) / float64(sim.Millisecond),
		MaxProcs:      runtime.GOMAXPROCS(0),
		Series:        ov.Series,
	}

	const spacing = 2 * sim.Millisecond
	m0 := eng.Now()
	for i := 0; i < opts.Packets; i++ {
		src, dst := ov.Pair(i)
		at := m0.Add(sim.Duration(i) * spacing)
		dstAddr := dst.Addr()
		src.Host().Sim().At(at, func() {
			src.SendTo(dstAddr, brunet.DeliverExact, brunet.AppData{Proto: "scale", Size: 64})
		})
	}
	fwd0, del0 := ov.ForwardedTotal(), ov.DeliveredTotal()
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t1 := time.Now()
	horizon := m0.Add(sim.Duration(opts.Packets)*spacing + 5*sim.Second)
	eng.RunUntil(horizon)
	routeWall := time.Since(t1).Seconds()
	runtime.ReadMemStats(&ms1)

	res.Delivered = int(ov.DeliveredTotal() - del0)
	res.RouteWallSec = routeWall
	if routeWall > 0 {
		res.RoutedPerSec = float64(opts.Packets) / routeWall
	}
	res.NsPerPacket = routeWall * 1e9 / float64(opts.Packets)
	res.AllocsPerOp = float64(ms1.Mallocs-ms0.Mallocs) / float64(opts.Packets)
	if res.Delivered > 0 {
		res.AvgHops = float64(ov.ForwardedTotal()-fwd0) / float64(res.Delivered)
	}
	res.EventsTotal = eng.Processed()
	eng.Close()
	return res, nil
}
