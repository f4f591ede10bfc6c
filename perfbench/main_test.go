package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
)

// metricSpec and benchmarkJSON are the parts of BENCHMARK.json the tests
// check against.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// tinyRun runs one workload at toy size and returns its parsed last line.
func tinyRun(t *testing.T, o options) (map[string]any, *result) {
	t.Helper()
	o.size = tinySizes
	if o.seed == 0 {
		o.seed = 3
	}
	var out bytes.Buffer
	res, err := run(o, &out)
	if err != nil {
		t.Fatalf("%s: %v", o.workload, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("%s: last line is not JSON: %v", o.workload, err)
	}
	for _, l := range lines[:len(lines)-1] {
		var row struct {
			Stamp *stamp `json:"stamp"`
		}
		if err := json.Unmarshal([]byte(l), &row); err != nil || row.Stamp == nil || row.Stamp.Workload != o.workload {
			t.Errorf("%s: row without a run stamp: %.120s", o.workload, l)
		}
	}
	return last, res
}

func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var want []string
	for _, w := range b.Workloads {
		want = append(want, w.Name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, BENCHMARK.json has %v", names, want)
	}
	check := func(kind string, got []metricDef, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, BENCHMARK.json has %d", kind, len(got), len(want))
		}
		for i := 0; i < len(got) && i < len(want); i++ {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: %s (%s), BENCHMARK.json has %s (%s)", kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, b.EndToEnd)
	check("per_layer", perLayer, b.PerLayer)
}

// TestEveryMetricEmitted runs every workload at toy size in both modes and
// checks the last line: exactly the contract's keys, and every metric of
// BENCHMARK.json by name with its unit (end-to-end ones never 0).
func TestEveryMetricEmitted(t *testing.T) {
	b := readBenchmarkJSON(t)
	for _, w := range b.Workloads {
		for _, traced := range []bool{false, true} {
			last, res := tinyRun(t, options{workload: w.Name, trace: traced, seconds: 0})
			if len(last) != 4 || last["correct"] != true || res.Attempted < minEpisodes || res.Failed != 0 {
				t.Errorf("%s traced=%v: last line %v", w.Name, traced, last)
			}
			want := b.EndToEnd
			if traced {
				want = b.PerLayer
			}
			metrics := last["metrics"].(map[string]any)
			if len(metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.Name, traced, len(metrics), len(want))
			}
			for _, m := range want {
				v, ok := metrics[m.Name].(map[string]any)
				if !ok {
					t.Errorf("%s traced=%v: metric %s missing", w.Name, traced, m.Name)
					continue
				}
				if v["unit"] != m.Unit {
					t.Errorf("%s: metric %s unit %v, want %s", w.Name, m.Name, v["unit"], m.Unit)
				}
				if x, _ := v["value"].(float64); !traced && x <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v", w.Name, m.Name, x)
				}
			}
		}
	}
}

func TestGateTripsOnInjectedMismatch(t *testing.T) {
	last, res := tinyRun(t, options{workload: "route-serial", injectMismatch: true})
	if res.Correct || res.Failed != 1 || last["correct"] != false {
		t.Fatalf("injected mismatch not caught: correct=%v failed=%d", res.Correct, res.Failed)
	}
}

func TestHeldOutSeedReplacesSeed(t *testing.T) {
	var out bytes.Buffer
	if _, err := run(options{workload: "route-serial", seed: 1, heldOut: true, size: tinySizes}, &out); err != nil {
		t.Fatal(err)
	}
	var row struct{ Stamp stamp }
	if err := json.Unmarshal([]byte(strings.SplitN(out.String(), "\n", 2)[0]), &row); err != nil {
		t.Fatal(err)
	}
	if row.Stamp.Seed != heldOutSeed || !row.Stamp.HeldOut {
		t.Errorf("stamp %+v, want the held-out seed %d", row.Stamp, heldOutSeed)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "experiments.run", Start: 0, End: 100, Weight: 1},
		// Two overlapping children (sends on two workers) cover 10..40.
		{ID: 2, Parent: 1, Name: "sim.RunUntil", Start: 10, End: 30, Weight: 1},
		{ID: 3, Parent: 1, Name: "sim.RunUntil", Start: 20, End: 40, Weight: 1},
		// A sampled span stands for four.
		{ID: 4, Parent: 2, Name: "brunet.SendTo", Start: 12, End: 14, Weight: 4},
	}
	got := selfTimes(spans)
	want := map[string]float64{"experiments": 70e-9, "sim": (18 + 20) * 1e-9, "brunet": 8e-9}
	for k, v := range want {
		if d := got[k] - v; d > 1e-15 || d < -1e-15 {
			t.Errorf("self time of %s = %g, want %g", k, got[k], v)
		}
	}
}

func TestEndToEndTakesWindowMedians(t *testing.T) {
	eps := []*episode{
		{setup: 1, win: []float64{1, 9}, buildWin: 1, joiners: 10, events: 100, virtual: 5},
		{setup: 3, win: []float64{5, 1}, buildWin: 1, joiners: 10, events: 100, virtual: 5},
		{setup: 2, win: []float64{2, 2}, buildWin: 1, joiners: 10, events: 100, virtual: 5},
	}
	m := endToEndOf(eps)
	// Window medians are 2 and 2: a slow window in one episode is ignored.
	if m["run_s"] != 4 || m["setup_s"] != 2 || m["joins_per_s"] != 5 || m["events_per_s"] != 25 || m["virt_s_per_wall_s"] != 2.5 {
		t.Errorf("endToEndOf = %v", m)
	}
}

func TestTimelineScalesByBracketingReference(t *testing.T) {
	// Phases 0 and 1 lie between the chunks timed at 10 ms and 20 ms, phase
	// 2 between 20 ms and 5 ms.
	tl := timeline{cal: []calPoint{{0, 0.010}, {2, 0.020}, {3, 0.005}}}
	got, err := tl.scale([]float64{3, 6, 5})
	if err != nil {
		t.Fatal(err)
	}
	f := 2 * refNominal / 0.030
	want := []float64{3 * f, 6 * f, 5 * 2 * refNominal / 0.025}
	for i := range want {
		if d := got[i] - want[i]; d > 1e-12 || d < -1e-12 {
			t.Errorf("phase %d: %g reference seconds, want %g", i, got[i], want[i])
		}
	}
	if _, err := tl.scale([]float64{1, 1, 1, 1}); err == nil {
		t.Error("a phase after the last reference timing was scaled")
	}
}

func TestHostRefDoesNotAllocate(t *testing.T) {
	ref, err := newHostRef()
	if err != nil {
		t.Fatal(err)
	}
	defer ref.close()
	var sec float64
	if a := testing.AllocsPerRun(3, func() { sec = ref.chunk() }); a != 0 {
		t.Errorf("reference chunk allocates %v times", a)
	}
	if sec <= 0 {
		t.Errorf("reference chunk took %v s", sec)
	}
}
