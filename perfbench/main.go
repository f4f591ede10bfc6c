// Command perfbench is the repository benchmark: the host (wall) time cost
// of the overlay simulator on four workloads, end to end and layer by
// layer. It only calls the exported functions of the simulator's packages
// and reads their exported counters.
//
//	perfbench --workload route-serial --seed 1 --seconds 30 --trace 0
//
// One run repeats the workload's episode (set-up plus measured phases, all
// with the same seed) until --seconds of wall time have passed and at least
// three episodes ran, then reduces the episodes with medians. Times are
// wall seconds scaled by a host-speed reference timed between the
// episode's phases (host.go), so host drift cancels out. Every
// episode's deterministic simulated outputs must match the first's, or the
// run fails. With --trace 0 the last stdout line carries the end-to-end
// metrics; with --trace 1 it carries the per-layer metrics, computed from
// spans recorded around each call into a layer (written to --spans-out).
// Earlier stdout lines are one JSON row per episode, each with the run
// stamp. See README.md for every metric's definition.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// heldOutSeed is kept out of every tuning run (tuning used seeds 1-10), so
// a claimed gain can be re-checked on a seed it was not fitted to.
const heldOutSeed = 104729

// minEpisodes is the least number of episodes per run: the set-up time is
// a median of them, and the determinism gate needs repeats to compare.
const minEpisodes = 3

type metricDef struct{ name, unit string }

// endToEnd are the --trace 0 metrics, in BENCHMARK.json order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"events_per_s", "1/s"},
	{"virt_s_per_wall_s", "ratio"},
	{"joins_per_s", "1/s"},
	{"peak_heap_mb", "MB"},
	{"delivered_frac", "ratio"},
	{"routable_frac", "ratio"},
}

// perLayer are the --trace 1 metrics. A metric that does not apply to a
// workload (no control window on route-serial, no reachable network on
// nat-ring, ...) reads 0.
var perLayer = []metricDef{
	{"sim.events", "count"},
	{"sim.ns_per_event", "ns"},
	{"sim.allocs_per_event", "count"},
	{"sim.run_calls", "count"},
	{"sim.events_per_run_call", "count"},
	{"sim.pending_peak", "count"},
	{"phys.delivered", "count"},
	{"phys.lost", "count"},
	{"phys.lost_frac", "ratio"},
	{"phys.lost_frac.wire", "ratio"},
	{"phys.lost_frac.noroute", "ratio"},
	{"phys.lost_frac.hostdown", "ratio"},
	{"phys.lost_frac.fault", "ratio"},
	{"phys.lost_frac.boundary", "ratio"},
	{"phys.lost_frac.overload", "ratio"},
	{"phys.lost_frac.noport", "ratio"},
	{"phys.packets_per_routed_packet", "count"},
	{"phys.boundary_in", "count"},
	{"phys.boundary_out", "count"},
	{"brunet.route_ns_per_hop", "ns"},
	{"brunet.route_us_p50", "us"},
	{"brunet.route_us_p99", "us"},
	{"brunet.route_samples", "count"},
	{"brunet.route_allocs_per_packet", "count"},
	{"brunet.routed_pkts_per_s", "1/s"},
	{"brunet.avg_hops", "hops"},
	{"brunet.maint_ns_per_node_s", "ns"},
	{"brunet.maint_allocs_per_node_s", "count"},
	{"brunet.maint_events_per_node_s", "count"},
	{"brunet.ping_sent_per_node_s", "count"},
	{"brunet.status_sent_per_node_s", "count"},
	{"brunet.ctm_sent_per_node_s", "count"},
	{"brunet.routed_ns_per_packet_net", "ns"},
	{"brunet.routed_allocs_per_packet_net", "count"},
	{"brunet.routed_events_per_packet_net", "count"},
	{"brunet.link_success_frac", "ratio"},
	{"brunet.dead_letters", "count"},
	{"brunet.missing_near", "count"},
	{"brunet.tunnels_established", "count"},
	{"brunet.tunnels_upgraded", "count"},
	{"brunet.relays_lost", "count"},
	{"brunet.relays_reselected", "count"},
	{"brunet.deaths", "count"},
	{"brunet.confirmed", "count"},
	{"brunet.detect_s", "s"},
	{"brunet.false_suspicions", "count"},
	{"trace.records", "count"},
	{"trace.records_per_s", "1/s"},
	{"trace.overhead_frac", "ratio"},
	{"trace.stream_mismatches", "count"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.mallocs", "count"},
	{"span.experiments_self_s", "s"},
	{"span.sim_self_s", "s"},
	{"span.brunet_self_s", "s"},
	{"span.bench_self_s", "s"},
	{"span.count", "count"},
}

type options struct {
	workload string
	seed     int64
	heldOut  bool
	seconds  float64
	trace    bool
	spansOut string
	size     sizes
	// injectMismatch perturbs the second episode's outputs, so tests can
	// show the determinism gate trips.
	injectMismatch bool
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last stdout line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// stamp identifies the run on every output row.
type stamp struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	HeldOut    bool   `json:"held_out"`
	Trace      bool   `json:"trace"`
	Shards     int    `json:"shards"`
	Workers    int    `json:"workers"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

type episodeRow struct {
	Row      string             `json:"row"`
	Stamp    stamp              `json:"stamp"`
	Episode  int                `json:"episode"`
	Recorder bool               `json:"recorder"`
	WallS    float64            `json:"wall_s"`
	Metrics  map[string]float64 `json:"metrics"`
	Setup    float64            `json:"setup_s"`
	Windows  []float64          `json:"windows_s"`
	RefS     float64            `json:"ref_chunk_s"`
	Sig      string             `json:"sig"`
	Stream   string             `json:"stream,omitempty"`
	Problems []string           `json:"problems,omitempty"`
}

type spansRow struct {
	Row   string             `json:"row"`
	Stamp stamp              `json:"stamp"`
	File  string             `json:"file,omitempty"`
	Spans int                `json:"spans"`
	SelfS map[string]float64 `json:"self_s"`
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "+dirty"
			}
			return rev
		}
	}
	return "unknown"
}

// run executes one benchmark run and writes its rows and result to out.
// It returns the result so callers (and tests) can inspect it.
func run(o options, out io.Writer) (*result, error) {
	w, ok := lookupWorkload(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.heldOut {
		o.seed = heldOutSeed
	}
	st := stamp{
		Workload: w.name, Seed: o.seed, HeldOut: o.heldOut, Trace: o.trace,
		Shards: w.shards, Workers: workersFor(w.shards), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc: runtime.NumCPU(), Go: runtime.Version(), Commit: commit(),
	}
	var spans *spanLog
	if o.trace {
		spans = newSpanLog()
	}
	ref, err := newHostRef()
	if err != nil {
		return nil, err
	}
	defer ref.close()
	enc := json.NewEncoder(out)
	// In the traced run gray-traced alternates recorder-on and -off
	// episodes to price the flight recorder; it needs two of each.
	pricing := o.trace && w.name == "gray-traced"
	least := minEpisodes
	if pricing {
		least = 4
	}
	start := time.Now()
	var eps []*episode
	// Start another episode while it would end, on average, no later than
	// half an episode past the deadline.
	more := func(i int) bool {
		if i < least {
			return true
		}
		elapsed := time.Since(start).Seconds()
		return elapsed+0.5*elapsed/float64(i) < o.seconds
	}
	for i := 0; more(i); i++ {
		c := &config{seed: o.seed, size: o.size, spans: spans, ref: ref, recorder: !pricing || i%2 == 0}
		t := time.Now()
		ep, err := w.run(c)
		if err != nil {
			return nil, fmt.Errorf("%s episode %d: %w", w.name, i, err)
		}
		if o.injectMismatch && i == 1 {
			ep.sig.add("injected", "mismatch")
		}
		eps = append(eps, ep)
		rowMetrics := endToEndOf([]*episode{ep})
		for k, v := range ep.m {
			rowMetrics[k] = v
		}
		row := episodeRow{Row: "episode", Stamp: st, Episode: i, Recorder: c.recorder,
			WallS: time.Since(t).Seconds(), Metrics: rowMetrics, Setup: ep.setup, Windows: ep.win, RefS: ep.refS,
			Sig: ep.sig.String(), Stream: ep.stream.String(), Problems: ep.problems}
		if err := enc.Encode(row); err != nil {
			return nil, err
		}
	}

	failed, streamDiffs := gate(eps)
	res := &result{Correct: failed == 0, Attempted: len(eps), Failed: failed, Metrics: map[string]value{}}
	if !o.trace {
		e2e := endToEndOf(eps)
		for _, d := range endToEnd {
			v := e2e[d.name]
			res.Metrics[d.name] = value{v, d.unit}
			if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				res.Correct = false
				fmt.Fprintf(os.Stderr, "perfbench: end-to-end metric %s is %v\n", d.name, v)
			}
		}
	} else {
		// Recorder-off episodes only price the recorder; the per-layer
		// figures describe the workload as it normally runs.
		normal := func(e *episode) bool { return e.recorder || !pricing }
		for _, d := range perLayer {
			res.Metrics[d.name] = value{medianOf(eps, d.name, normal), d.unit}
		}
		if pricing {
			var on, off []*episode
			for _, e := range eps {
				if e.recorder {
					on = append(on, e)
				} else {
					off = append(off, e)
				}
			}
			frac := endToEndOf(on)["run_s"]/endToEndOf(off)["run_s"] - 1
			res.Metrics["trace.overhead_frac"] = value{frac, "ratio"}
		}
		self := selfTimes(spans.spans)
		n := float64(len(eps))
		for _, layer := range []string{"experiments", "sim", "brunet", "bench"} {
			res.Metrics["span."+layer+"_self_s"] = value{self[layer] / n, "s"}
		}
		res.Metrics["span.count"] = value{float64(len(spans.spans)), "count"}
		res.Metrics["trace.stream_mismatches"] = value{float64(streamDiffs), "count"}
		row := spansRow{Row: "spans", Stamp: st, File: o.spansOut, Spans: len(spans.spans), SelfS: self}
		if o.spansOut != "" {
			if err := spans.write(o.spansOut); err != nil {
				return nil, err
			}
		}
		if err := enc.Encode(row); err != nil {
			return nil, err
		}
	}
	if err := enc.Encode(res); err != nil {
		return nil, err
	}
	return res, nil
}

// gate is the correctness check: it returns how many episodes violated an
// output invariant or produced simulated outputs that differ from the
// first episode of the run with the same recorder setting. It also counts,
// without failing them, the episodes whose flight-recorder stream differs
// from the first recorder-on episode.
func gate(eps []*episode) (failed, streamDiffs int) {
	ref := map[bool]*episode{}
	for i, e := range eps {
		bad := len(e.problems) > 0
		for _, p := range e.problems {
			fmt.Fprintf(os.Stderr, "perfbench: episode %d: %s\n", i, p)
		}
		if r, ok := ref[e.recorder]; !ok {
			ref[e.recorder] = e
		} else if r.sig.String() != e.sig.String() {
			fmt.Fprintf(os.Stderr, "perfbench: episode %d outputs differ from a repeat of the same seed:\n  %s\n  %s\n",
				i, r.sig, e.sig)
			bad = true
		}
		if eps[0].core.String() != e.core.String() {
			fmt.Fprintf(os.Stderr, "perfbench: episode %d outcomes differ with the recorder toggled:\n  %s\n  %s\n",
				i, eps[0].core, e.core)
			bad = true
		}
		if r := ref[true]; e.recorder && r.stream.String() != e.stream.String() {
			fmt.Fprintf(os.Stderr, "perfbench: episode %d flight-recorder stream differs from a repeat (known defect):\n  %s\n  %s\n",
				i, r.stream, e.stream)
			streamDiffs++
		}
		if bad {
			failed++
		}
	}
	return failed, streamDiffs
}

// endToEndOf reduces episodes of one seed to the end-to-end metrics. The
// set-up time is the median over episodes. The measured phase is the sum
// over its windows of each window's median over episodes, so a burst of
// host noise inside one episode's window does not move the total; the
// rates divide the (identical) simulated work by these robust times.
func endToEndOf(eps []*episode) map[string]float64 {
	ref := eps[0]
	win := make([]float64, len(ref.win))
	for i := range win {
		var xs []float64
		for _, e := range eps {
			if i < len(e.win) {
				xs = append(xs, e.win[i])
			}
		}
		win[i] = median(xs)
	}
	var setups []float64
	for _, e := range eps {
		setups = append(setups, e.setup)
	}
	setup, run := median(setups), sum(win)
	build, clock := setup, setup
	if ref.buildWin > 0 {
		build = sum(win[:ref.buildWin])
	}
	if ref.clockWin > 0 {
		clock = sum(win[:ref.clockWin])
	}
	all := func(*episode) bool { return true }
	return map[string]float64{
		"setup_s":           setup,
		"run_s":             run,
		"events_per_s":      ref.events / run,
		"virt_s_per_wall_s": ref.virtual / clock,
		"joins_per_s":       ref.joiners / build,
		"peak_heap_mb":      medianOf(eps, "peak_heap_mb", all),
		"delivered_frac":    medianOf(eps, "delivered_frac", all),
		"routable_frac":     medianOf(eps, "routable_frac", all),
	}
}

// medianOf is the median of metric name over the episodes keep selects;
// episodes that lack the metric count as 0 (it does not apply).
func medianOf(eps []*episode, name string, keep func(*episode) bool) float64 {
	var xs []float64
	for _, e := range eps {
		if keep(e) {
			xs = append(xs, e.m[name])
		}
	}
	return median(xs)
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload: route-serial, build-sharded, nat-ring or gray-traced")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the workload's inputs")
	flag.BoolVar(&o.heldOut, "held-out", false, fmt.Sprintf("use the held-out seed %d instead of --seed", heldOutSeed))
	flag.Float64Var(&o.seconds, "seconds", 30, "wall seconds to keep repeating episodes (at least 3 run)")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run: per-layer metrics from spans; 0 = end-to-end metrics")
	flag.StringVar(&o.spansOut, "spans-out", "", "traced run: write the spans here as JSON lines")
	flag.Parse()
	o.trace = traceFlag == 1
	o.size = fullSizes
	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if !res.Correct {
		os.Exit(1)
	}
}
