package main

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"wow/internal/brunet"
	"wow/internal/experiments"
	"wow/internal/sim"
	"wow/internal/trace"
)

// sizes holds every workload's scale. fullSizes is the benchmark;
// tinySizes lets the self-tests run each workload in about a second.
type sizes struct {
	serialNodes, serialPackets   int
	shardedNodes, shardedPackets int
	natNodes, grayNodes          int
}

var (
	fullSizes = sizes{
		serialNodes: 1000, serialPackets: 100000,
		shardedNodes: 2000, shardedPackets: 5000,
		natNodes: 200, grayNodes: 256,
	}
	tinySizes = sizes{
		serialNodes: 64, serialPackets: 500,
		shardedNodes: 96, shardedPackets: 200,
		natNodes: 24, grayNodes: 40,
	}
)

// Fixed workload shape (see README.md for why each was chosen).
const (
	serialSites   = 32
	shardedShards = 8
	shardedSites  = 32
	shardedBatch  = 256
	shardedWANms  = 10
	natShards     = 4
	natBatch      = 64
	grayShards    = 4
	graySample    = 16
	grayHealth    = 60 * sim.Second
	// sendSpacing paces the sharded traffic window's sends, and
	// drainHorizon lets the last of them finish before counting.
	sendSpacing  = 2 * sim.Millisecond
	drainHorizon = 5 * sim.Second
	// serialBatch is how many packets route-serial times as one window,
	// and one traced packet in spanSample keeps its spans.
	serialBatch = 5000
	spanSample  = 16
)

// config is what one episode of a workload needs.
type config struct {
	seed  int64
	size  sizes
	spans *spanLog // the traced run's spans; nil in the untraced run
	ref   *hostRef // the host-speed reference (host.go)
	// recorder arms the flight recorder on gray-traced (always in the
	// untraced mode; alternated in the traced mode to price it).
	recorder bool
}

// episode is one complete repetition of a workload: its wall times, the
// simulated work they bought, its per-layer metrics, and its deterministic
// simulated outputs.
type episode struct {
	// tl holds the reference timings taken between the episode's phases;
	// setup and win are in reference seconds (host.go), and refS is the
	// median reference chunk's wall seconds.
	tl    timeline
	refS  float64
	setup float64 // time to reach the start state
	// win is the measured phase's time split at the workload's natural
	// boundaries (progress samples, engine steps, packet batches). Repeats
	// of one seed have the same windows, so a run can take each window's
	// median over episodes.
	win []float64
	// win[:buildWin] is the build, over which joiners joined, and
	// win[:clockWin] advanced the virtual clock by virtual seconds; 0 means
	// the set-up did.
	buildWin, clockWin int
	joiners, virtual   float64
	events             float64 // events executed in the measured phase

	m    map[string]float64 // per-layer and outcome metrics
	sig  sig
	core sig // outcomes that must match across every episode of a run
	// stream summarises the flight recorder's output. It is compared
	// across repeats and a difference is reported, but does not fail the
	// run: with more than one worker the recorder's stream is not yet
	// repeatable (see README.md, "Known defects").
	stream   sig
	recorder bool
	// problems lists violated output invariants (empty when correct).
	problems []string
}

func newEpisode(c *config) *episode {
	return &episode{m: map[string]float64{}, tl: timeline{ref: c.ref}}
}

// setTimes sets the set-up and window times from the raw wall seconds of
// the phases (set-up first), converted to reference seconds.
func (e *episode) setTimes(raw []float64) error {
	s, err := e.tl.scale(raw)
	if err != nil {
		return err
	}
	e.setup, e.win, e.refS = s[0], s[1:], e.tl.medianSec()
	return nil
}

func (e *episode) check(ok bool, format string, args ...any) {
	if !ok {
		e.problems = append(e.problems, fmt.Sprintf(format, args...))
	}
}

// workload is one named benchmark input.
type workload struct {
	name   string
	shards int // 0 = serial engine
	run    func(c *config) (*episode, error)
}

var workloads = []workload{
	{name: "route-serial", run: routeSerial},
	{name: "build-sharded", shards: shardedShards, run: buildSharded},
	{name: "nat-ring", shards: natShards, run: natRing},
	{name: "gray-traced", shards: grayShards, run: grayTraced},
}

// workersFor is the worker count of a sharded engine: one per shard, at
// most one per CPU.
func workersFor(shards int) int { return max(1, min(shards, runtime.NumCPU())) }

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// harnessCall times one experiments harness call through its OnProgress
// samples. The call is one span and each interval between samples is a
// child span with a group of its own. Each sample carries the harness's
// own wall clock, started after it built its fleet; the difference to the
// sample's arrival is the harness's set-up time. A reference chunk runs at
// each sample, and its time is taken out of the harness's clock.
type harnessCall struct {
	log    *spanLog
	tl     *timeline
	call   openSpan
	window openSpan
	tCall  time.Time
	tFirst time.Time
	walls  []float64 // harness-reported wall seconds of each sample, net of reference chunks
	spent  float64   // wall seconds of the reference chunks run so far
	total  float64
}

// startHarness times a reference chunk, then starts timing the call.
func startHarness(log *spanLog, tl *timeline, name string) *harnessCall {
	tl.calibrate(0)
	h := &harnessCall{log: log, tl: tl, tCall: time.Now()}
	h.call = log.start(name, 0, log.newGroup())
	h.window = log.start("experiments.window", h.call.id, log.newGroup())
	return h
}

// sample records one progress sample taken wall seconds into the harness.
func (h *harnessCall) sample(wall float64) {
	if len(h.walls) == 0 {
		h.tFirst = time.Now()
	}
	h.walls = append(h.walls, wall-h.spent)
	h.log.finish(h.window)
	// The first sample ends the set-up and the first window.
	ref := h.log.start("bench.reference", h.call.id, 0)
	h.spent += h.tl.calibrate(len(h.walls) + 1)
	h.log.finish(ref)
	h.window = h.log.start("experiments.window", h.call.id, h.log.newGroup())
}

// done closes the spans when the harness returns and times the closing
// reference chunk.
func (h *harnessCall) done() {
	h.total = time.Since(h.tCall).Seconds() - h.spent
	h.log.finish(h.window)
	h.log.finish(h.call)
	h.tl.calibrate(len(h.walls) + 2)
}

// timing splits the call into its set-up and the windows between samples,
// the last window running from the final sample to the return, in raw
// wall seconds (set-up first).
func (h *harnessCall) timing() ([]float64, error) {
	if len(h.walls) == 0 {
		return nil, fmt.Errorf("harness reported no progress samples")
	}
	setup := h.tFirst.Sub(h.tCall).Seconds() - h.walls[0]
	raw := []float64{setup}
	prev := 0.0
	for _, w := range h.walls {
		raw = append(raw, w-prev)
		prev = w
	}
	return append(raw, h.total-setup-prev), nil
}

// routeSerial: serial engine, zero-latency fabric. Set-up is the serial
// build; the measured phase routes a closed loop of packets with the clock
// frozen, so it times greedy routing, serial phys delivery and the serial
// event heap only.
func routeSerial(c *config) (*episode, error) {
	e := newEpisode(c)
	var hp heapPeak
	runtime.GC()
	e.tl.calibrate(0)
	build := c.spans.start("experiments.BuildScaleOverlay", 0, c.spans.newGroup())
	t0 := time.Now()
	ov, err := experiments.BuildScaleOverlay(experiments.ScaleOpts{
		Seed: c.seed, Nodes: c.size.serialNodes, Sites: serialSites,
	})
	if err != nil {
		return nil, err
	}
	raw := []float64{time.Since(t0).Seconds()}
	c.spans.finish(build)
	e.tl.calibrate(1)
	e.joiners = float64(len(ov.Nodes))
	e.virtual = ov.Sim.Now().Seconds()
	buildEvents := ov.Sim.Processed
	pendingPeak := ov.Sim.Pending()
	hp.exact()

	packets := c.size.serialPackets
	off := pairOffset(c.seed)
	f0 := readFleet(ov.Nodes)
	del0 := ov.Delivered
	ph0 := readPhys(ov.Net.TotalStats())
	ev0 := ov.Sim.Processed
	runtime.GC()
	r0 := readRuntime()
	traced := c.spans != nil
	var lat []float64
	if traced {
		lat = make([]float64, 0, packets)
	}
	for b := 0; b < packets; b += serialBatch {
		tb := time.Now()
		for i := b; i < min(b+serialBatch, packets); i++ {
			src, dst := ov.Pair(off + i)
			if !traced {
				ov.RouteOne(src, dst)
				continue
			}
			// RouteOne is SendTo followed by RunUntil(Now); calling the
			// two directly gives each layer its own span. Every packet is
			// timed; one in spanSample keeps its spans, which stand for
			// spanSample packets each.
			log := c.spans
			if i%spanSample != 0 {
				log = nil
			}
			g := log.newGroup()
			ts := time.Now()
			pkt := log.startSampled("bench.packet", 0, g, spanSample)
			send := log.startSampled("brunet.SendTo", pkt.id, g, spanSample)
			src.SendTo(dst.Addr(), brunet.DeliverExact, brunet.AppData{Proto: "scale", Size: 64})
			log.finish(send)
			step := log.startSampled("sim.RunUntil", pkt.id, g, spanSample)
			ov.Sim.RunUntil(ov.Sim.Now())
			log.finish(step)
			log.finish(pkt)
			lat = append(lat, float64(time.Since(ts).Nanoseconds())/1e3)
		}
		raw = append(raw, time.Since(tb).Seconds())
		e.tl.maybeCalibrate(len(raw))
	}
	r1 := readRuntime()
	e.tl.closeAt(len(raw))
	if err := e.setTimes(raw); err != nil {
		return nil, err
	}
	run := sum(e.win)
	e.events = float64(ov.Sim.Processed - ev0)
	if p := ov.Sim.Pending(); p > pendingPeak {
		pendingPeak = p
	}
	f := readFleet(ov.Nodes).sub(f0)
	delivered := ov.Delivered - del0
	ph1 := readPhys(ov.Net.TotalStats())
	hp.exact()
	routable := ov.RoutableFrac()
	missing := missingNear(ov.Nodes)
	links := readFleet(ov.Nodes)

	m := e.m
	m["peak_heap_mb"] = hp.mb()
	m["delivered_frac"] = float64(delivered) / float64(packets)
	m["routable_frac"] = routable
	m["sim.events"] = e.events
	m["sim.ns_per_event"] = run * 1e9 / e.events
	m["sim.allocs_per_event"] = float64(r1.mallocs-r0.mallocs) / e.events
	m["sim.run_calls"] = float64(packets)
	m["sim.events_per_run_call"] = e.events / float64(packets)
	m["sim.pending_peak"] = float64(pendingPeak)
	physMetrics(m, ph0, ph1)
	m["phys.packets_per_routed_packet"] = m["phys.delivered"] / float64(packets)
	m["brunet.route_ns_per_hop"] = ratio(run*1e9, float64(f.forwarded))
	if len(lat) > 0 {
		m["brunet.route_us_p50"] = percentile(lat, 50)
		m["brunet.route_us_p99"] = percentile(lat, 99)
		m["brunet.route_samples"] = float64(len(lat))
	}
	m["brunet.route_allocs_per_packet"] = float64(r1.mallocs-r0.mallocs) / float64(packets)
	m["brunet.routed_pkts_per_s"] = float64(packets) / run
	m["brunet.avg_hops"] = ratio(float64(f.forwarded), float64(delivered))
	m["brunet.link_success_frac"] = ratio(float64(links.linkSuccess), float64(links.linkAttempts))
	m["brunet.dead_letters"] = float64(f.deadLetter)
	m["brunet.missing_near"] = float64(missing)
	m["runtime.gc_cpu_frac"] = gcFrac(r0, r1)
	m["runtime.mallocs"] = float64(r1.mallocs - r0.mallocs)

	e.sig.add("build_events", buildEvents)
	e.sig.add("route_events", ov.Sim.Processed-ev0)
	e.sig.add("delivered", delivered)
	e.sig.add("forwarded", f.forwarded)
	e.sig.add("dead_letters", f.deadLetter)
	e.sig.add("routable", routable)
	e.sig.add("missing_near", missing)
	e.sig.add("phys_delivered", ph1.delivered)

	// On a frozen zero-latency clock every packet ends inside its own
	// RouteOne: delivered, dead-lettered or out of hops.
	ended := int64(delivered) + f.deadLetter + f.hopsExceeded
	e.check(ended == int64(packets), "route-serial: %d of %d packets accounted for", ended, packets)
	e.check(delivered > 0, "route-serial: nothing delivered")
	return e, nil
}

// buildSharded: batched 8-shard build, then an idle control window and a
// traffic window of the same virtual length. The control window prices the
// maintenance plane alone; subtracting it from the traffic window gives the
// routed-packet cost without the keepalive load.
func buildSharded(c *config) (*episode, error) {
	e := newEpisode(c)
	var hp heapPeak
	runtime.GC()
	r0 := readRuntime()
	h := startHarness(c.spans, &e.tl, "experiments.BuildScaleOverlay")
	ov, err := experiments.BuildScaleOverlay(experiments.ScaleOpts{
		Seed: c.seed, Nodes: c.size.shardedNodes, Sites: shardedSites,
		Shards: shardedShards, Workers: workersFor(shardedShards),
		BatchJoin: shardedBatch, WANLatency: experiments.Milliseconds(shardedWANms),
		OnProgress: func(p experiments.ScalePoint) {
			hp.sample()
			h.sample(p.WallSec)
		},
	})
	if err != nil {
		return nil, err
	}
	eng := ov.Engine
	defer eng.Close()
	h.done()
	raw, err := h.timing()
	if err != nil {
		return nil, err
	}
	e.buildWin = len(raw) - 1
	routable := ov.RoutableFrac()
	pendingPeak := eng.Pending()
	buildEvents := eng.Processed()

	nodes := ov.Nodes
	n := float64(len(nodes))
	packets := c.size.shardedPackets
	window := sim.Duration(packets)*sendSpacing + drainHorizon
	var curStep atomic.Uint64 // span id of the RunUntil step in flight
	// runWindow advances the engine through one window in one-second
	// steps, each a timing window of its own.
	runWindow := func() {
		g := c.spans.newGroup()
		end := eng.Now().Add(window)
		for at := eng.Now().Add(sim.Second); ; at = at.Add(sim.Second) {
			at = min(at, end)
			st := c.spans.start("sim.RunUntil", 0, g)
			curStep.Store(st.id)
			t := time.Now()
			eng.RunUntil(at)
			raw = append(raw, time.Since(t).Seconds())
			c.spans.finish(st)
			e.tl.maybeCalibrate(len(raw))
			if at == end {
				break
			}
		}
		pendingPeak = max(pendingPeak, eng.Pending())
		hp.sample()
	}

	// Control window: no traffic, maintenance only.
	fc0, pc0, ec0, rc0 := readFleet(nodes), readPhys(ov.Net.TotalStats()), eng.Processed(), readRuntime()
	runWindow()
	ctlEnd := len(raw) - 1
	fc1, pc1, ec1, rc1 := readFleet(nodes), readPhys(ov.Net.TotalStats()), eng.Processed(), readRuntime()

	// Traffic window: sends every sendSpacing on the source's own shard,
	// then the drain horizon, so late sends are counted, not lost.
	off := pairOffset(c.seed)
	base := eng.Now()
	for i := 0; i < packets; i++ {
		src, dst := ov.Pair(off + i)
		dstAddr := dst.Addr()
		log := c.spans
		src.Host().Sim().At(base.Add(sim.Duration(i)*sendSpacing), func() {
			sp := log.start("brunet.SendTo", curStep.Load(), 0)
			src.SendTo(dstAddr, brunet.DeliverExact, brunet.AppData{Proto: "scale", Size: 64})
			log.finish(sp)
		})
	}
	runWindow()
	ft1, pt1, et1, rt1 := readFleet(nodes), readPhys(ov.Net.TotalStats()), eng.Processed(), readRuntime()
	e.tl.closeAt(len(raw))
	if err := e.setTimes(raw); err != nil {
		return nil, err
	}
	buildWall := sum(e.win[:e.buildWin])
	ctlWall := sum(e.win[e.buildWin:ctlEnd])
	trafWall := sum(e.win[ctlEnd:])
	hp.exact()
	missing := missingNear(nodes)

	e.joiners = n
	e.virtual = eng.Now().Seconds()
	e.clockWin = len(e.win)
	e.events = float64(et1)
	run := buildWall + ctlWall + trafWall
	ctl, traf := fc1.sub(fc0), ft1.sub(fc1)
	ctlEvents, trafEvents := float64(ec1-ec0), float64(et1-ec1)
	ctlAllocs, trafAllocs := float64(rc1.mallocs-rc0.mallocs), float64(rt1.mallocs-rc1.mallocs)
	nodeSec := n * window.Seconds()

	m := e.m
	m["peak_heap_mb"] = hp.mb()
	m["delivered_frac"] = float64(traf.delivered) / float64(packets)
	m["routable_frac"] = routable
	m["sim.events"] = e.events
	m["sim.ns_per_event"] = run * 1e9 / e.events
	m["sim.allocs_per_event"] = float64(rt1.mallocs-r0.mallocs) / e.events
	runCalls := float64(len(e.win) - 1) // every window but the build's tail
	m["sim.run_calls"] = runCalls
	m["sim.events_per_run_call"] = e.events / runCalls
	m["sim.pending_peak"] = float64(pendingPeak)
	// phys over the traffic window; per routed packet net of control.
	physMetrics(m, pc1, pt1)
	m["phys.packets_per_routed_packet"] = float64((pt1.delivered-pc1.delivered)-(pc1.delivered-pc0.delivered)) / float64(packets)
	m["brunet.routed_pkts_per_s"] = float64(packets) / trafWall
	m["brunet.avg_hops"] = ratio(float64(traf.forwarded-ctl.forwarded), float64(traf.delivered))
	m["brunet.maint_ns_per_node_s"] = ctlWall * 1e9 / nodeSec
	m["brunet.maint_allocs_per_node_s"] = ctlAllocs / nodeSec
	m["brunet.maint_events_per_node_s"] = ctlEvents / nodeSec
	m["brunet.ping_sent_per_node_s"] = float64(ctl.ping) / nodeSec
	m["brunet.status_sent_per_node_s"] = float64(ctl.status) / nodeSec
	m["brunet.ctm_sent_per_node_s"] = float64(ctl.ctm) / nodeSec
	m["brunet.routed_ns_per_packet_net"] = (trafWall - ctlWall) * 1e9 / float64(packets)
	m["brunet.routed_allocs_per_packet_net"] = (trafAllocs - ctlAllocs) / float64(packets)
	m["brunet.routed_events_per_packet_net"] = (trafEvents - ctlEvents) / float64(packets)
	m["brunet.link_success_frac"] = ratio(float64(ft1.linkSuccess), float64(ft1.linkAttempts))
	m["brunet.dead_letters"] = float64(traf.deadLetter)
	m["brunet.missing_near"] = float64(missing)
	m["runtime.gc_cpu_frac"] = gcFrac(r0, rt1)
	m["runtime.mallocs"] = float64(rt1.mallocs - r0.mallocs)

	e.sig.add("windows", len(e.win))
	e.sig.add("build_events", buildEvents)
	e.sig.add("control_events", ec1-ec0)
	e.sig.add("traffic_events", et1-ec1)
	e.sig.add("delivered", traf.delivered)
	e.sig.add("forwarded_control", ctl.forwarded)
	e.sig.add("forwarded_traffic", traf.forwarded)
	e.sig.add("maint_sent", fmt.Sprint(ctl.ping, "/", ctl.status, "/", ctl.ctm))
	e.sig.add("routable", routable)
	e.sig.add("missing_near", missing)

	e.check(ctl.delivered == 0, "build-sharded: %d application deliveries in the idle window", ctl.delivered)
	e.check(traf.delivered > 0 && traf.delivered <= int64(packets),
		"build-sharded: %d deliveries for %d sends", traf.delivered, packets)
	return e, nil
}

// natRing: the all-symmetric-NAT ring on the parallel engine. Every packet
// crosses a NAT boundary and the ring holds through tunnel edges and
// relays. The harness owns its network, so only its result and progress
// samples are visible.
func natRing(c *config) (*episode, error) {
	e := newEpisode(c)
	var hp heapPeak
	runtime.GC()
	r0 := readRuntime()
	var pts []experiments.NATPoint
	h := startHarness(c.spans, &e.tl, "experiments.RunSymmetricRing")
	res, err := experiments.RunSymmetricRing(experiments.SymRingOpts{
		Seed: c.seed, Nodes: c.size.natNodes, Shards: natShards,
		Workers: workersFor(natShards), BatchJoin: natBatch,
		OnProgress: func(p experiments.NATPoint) {
			pts = append(pts, p)
			hp.sample()
			h.sample(p.WallSec)
		},
	})
	if err != nil {
		return nil, err
	}
	h.done()
	r1 := readRuntime()
	hp.sample()
	raw, err := h.timing()
	if err != nil {
		return nil, err
	}
	if err := e.setTimes(raw); err != nil {
		return nil, err
	}
	run := sum(e.win)
	// The samples cover the build and its settle; the probe phase follows
	// the last one.
	e.buildWin, e.clockWin = len(pts), len(pts)
	e.joiners = float64(res.Routers + res.Nodes)
	e.virtual = pts[len(pts)-1].VirtualSec
	e.events = float64(res.EventsTotal)

	m := e.m
	m["peak_heap_mb"] = hp.mb()
	m["delivered_frac"] = float64(res.ProbesDelivered) / float64(res.ProbesSent)
	m["routable_frac"] = res.RoutableFrac
	m["sim.events"] = e.events
	m["sim.ns_per_event"] = run * 1e9 / e.events
	m["sim.allocs_per_event"] = float64(r1.mallocs-r0.mallocs) / e.events
	m["sim.run_calls"] = float64(len(pts))
	m["sim.events_per_run_call"] = e.events / float64(len(pts))
	m["brunet.missing_near"] = float64(res.MissingNear)
	m["brunet.tunnels_established"] = float64(res.TunnelsEstablished)
	m["brunet.tunnels_upgraded"] = float64(res.TunnelsUpgraded)
	m["brunet.relays_lost"] = float64(res.RelaysLost)
	m["brunet.relays_reselected"] = float64(res.RelaysReselected)
	m["runtime.gc_cpu_frac"] = gcFrac(r0, r1)
	m["runtime.mallocs"] = float64(r1.mallocs - r0.mallocs)

	e.sig.add("events", res.EventsTotal)
	e.sig.add("probes", fmt.Sprint(res.ProbesDelivered, "/", res.ProbesSent))
	e.sig.add("near", fmt.Sprint(res.DirectNear, "/", res.TunnelNear, "/", res.MissingNear))
	e.sig.add("tunnels", fmt.Sprint(res.TunnelsEstablished, "/", res.TunnelsUpgraded, "/", res.UpgradeProbes))
	e.sig.add("relays", fmt.Sprint(res.RelaysLost, "/", res.RelaysReselected))
	e.sig.add("routable", res.RoutableFrac)
	for _, p := range pts {
		e.sig.add("sample", fmt.Sprint(p.Events, "/", p.Tunnels, "/", p.RoutableFrac))
	}

	e.check(res.ProbesDelivered <= res.ProbesSent, "nat-ring: %d of %d probes delivered", res.ProbesDelivered, res.ProbesSent)
	e.check(res.RoutableFrac > 0, "nat-ring: no routable node")
	return e, nil
}

// grayTraced: the gray-failure harness with the adaptive detector and the
// flight recorder armed. It is the workload that runs the faults layer's
// per-packet hook, the liveness path and the trace recorder.
func grayTraced(c *config) (*episode, error) {
	e := newEpisode(c)
	e.recorder = c.recorder
	var hp heapPeak
	runtime.GC()
	r0 := readRuntime()
	opts := experiments.GrayOpts{
		Seed: c.seed, Nodes: c.size.grayNodes, Adaptive: true,
		Shards: grayShards, Workers: workersFor(grayShards),
	}
	if c.recorder {
		opts.TraceSample, opts.TraceHealth = graySample, grayHealth
	}
	var pts []experiments.GrayPoint
	var h *harnessCall
	opts.OnProgress = func(p experiments.GrayPoint) {
		pts = append(pts, p)
		hp.sample()
		h.sample(p.WallSec)
	}
	h = startHarness(c.spans, &e.tl, "experiments.RunGrayFailures")
	res, err := experiments.RunGrayFailures(opts)
	if err != nil {
		return nil, err
	}
	h.done()
	r1 := readRuntime()
	hp.sample()
	raw, err := h.timing()
	if err != nil {
		return nil, err
	}
	if err := e.setTimes(raw); err != nil {
		return nil, err
	}
	run := sum(e.win)
	// The first sample closes the join, the settle and fault window 0;
	// the samples cover the fault phase, and the cool-down follows.
	e.buildWin, e.clockWin = 1, len(pts)
	e.joiners = float64(res.Nodes)
	e.virtual = pts[len(pts)-1].VirtualSec
	e.events = float64(res.EventsTotal)

	// Route outcomes of the sampled originations.
	var routes, delivered, hops int
	for _, r := range res.Trace {
		if r.Stream != trace.StreamRoute {
			continue
		}
		routes++
		if r.Outcome == trace.OutcomeDelivered || r.Outcome == trace.OutcomeNearest {
			delivered++
			hops += r.Hops
		}
	}

	m := e.m
	m["peak_heap_mb"] = hp.mb()
	if c.recorder {
		m["delivered_frac"] = ratio(float64(delivered), float64(routes))
	}
	m["routable_frac"] = res.FinalRoutable
	m["sim.events"] = e.events
	m["sim.ns_per_event"] = run * 1e9 / e.events
	m["sim.allocs_per_event"] = float64(r1.mallocs-r0.mallocs) / e.events
	m["sim.run_calls"] = float64(len(pts))
	m["sim.events_per_run_call"] = e.events / float64(len(pts))
	m["brunet.avg_hops"] = ratio(float64(hops), float64(delivered))
	m["brunet.deaths"] = float64(res.Deaths)
	m["brunet.confirmed"] = float64(res.Confirmed)
	m["brunet.detect_s"] = res.MeanDetectSec
	m["brunet.false_suspicions"] = float64(res.FalseSuspects)
	m["trace.records"] = float64(len(res.Trace))
	m["trace.records_per_s"] = float64(len(res.Trace)) / run
	m["runtime.gc_cpu_frac"] = gcFrac(r0, r1)
	m["runtime.mallocs"] = float64(r1.mallocs - r0.mallocs)

	// The recorder must not change protocol outcomes: core is compared
	// across recorder-on and recorder-off episodes, sig within each.
	e.core.add("false_suspicions", res.FalseSuspects)
	e.core.add("confirmed", res.Confirmed)
	e.core.add("deaths", res.Deaths)
	e.core.add("detect_s", res.MeanDetectSec)
	e.core.add("routable", res.FinalRoutable)
	e.sig = append(e.sig, e.core...)
	e.sig.add("events", res.EventsTotal)
	e.sig.add("windows", len(e.win))
	if c.recorder {
		e.stream.add("trace_records", len(res.Trace))
		e.stream.add("routes", fmt.Sprint(delivered, "/", routes))
	}

	e.check(len(res.Kills) > 0, "gray-traced: no crashes scheduled")
	e.check(!c.recorder || routes > 0, "gray-traced: recorder armed but no route terminals")
	return e, nil
}
