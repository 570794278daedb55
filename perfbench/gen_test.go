package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// inputs lists what a workload feeds the program for one seed, in order.
func inputs(name string, seed int64) []string {
	var out []string
	switch name {
	case "serve-mix":
		g := newServeGen(seed)
		for i := 0; i < 3000; i++ {
			r, _ := g.next()
			out = append(out, r.path+" "+string(r.body))
		}
		for _, r := range warmBodies() {
			out = append(out, "warm "+string(r.body))
		}
		for _, pt := range serveProbePoints(seed) {
			out = append(out, fmt.Sprintf("probe %+v %v", pt.p, pt.cfg))
		}
	case "sweep-exact":
		w := newSweepExact(seed)
		for _, j := range append(w.jobs, w.probe...) {
			out = append(out, fmt.Sprintf("%v %s %v", j.cfg, j.knob.name, j.xs))
		}
	case "plan-search":
		for _, j := range newPlanSearch(seed).jobs {
			out = append(out, fmt.Sprintf("%v %+v", j.deep, j.cons))
		}
	case "fleet-decade":
		w := newFleetDecade(seed)
		out = append(out, fmt.Sprintf("%+v %v %d %d %d", w.p, w.cfg, fleetBricks, fleetYears, w.seed))
	}
	return out
}

func TestGeneratorsDeterministic(t *testing.T) {
	for _, name := range []string{"serve-mix", "sweep-exact", "plan-search", "fleet-decade"} {
		a, b, c := inputs(name, 7), inputs(name, 7), inputs(name, 8)
		if len(a) == 0 {
			t.Fatalf("%s: no inputs", name)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave two different input sequences", name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same input sequence", name)
		}
	}
}

// TestServeHotSetStaysCached checks the property the hit/miss split rests
// on: between two sends of a hot body fewer than 256 other distinct
// bodies pass, so the server's default LRU never evicts it.
func TestServeHotSetStaysCached(t *testing.T) {
	g := newServeGen(3)
	// keys[i] identifies body i: the hot index, or -(i+1) for a
	// first-seen body (each is unique).
	var keys []int
	last := map[int]int{}
	for i := 0; i < 20000; i++ {
		r, _ := g.next()
		k := r.hot
		if k < 0 {
			k = -(i + 1)
		}
		keys = append(keys, k)
		if k < 0 {
			continue
		}
		if prev, ok := last[k]; ok {
			between := map[int]bool{}
			for _, o := range keys[prev+1 : i] {
				between[o] = true
			}
			if len(between) >= 256 {
				t.Fatalf("hot body %d: %d distinct bodies between two sends", k, len(between))
			}
		}
		last[k] = i
	}
	if len(last) != len(g.hot) {
		t.Errorf("sent %d of %d hot bodies", len(last), len(g.hot))
	}
}

// fakeWorkload exercises measure without running the program.
type fakeWorkload struct{}

func (fakeWorkload) setup() error { return nil }
func (fakeWorkload) teardown()    {}
func (fakeWorkload) phase(ctx context.Context, d time.Duration, tr *tracing) (*phaseResult, error) {
	res := &phaseResult{Attempted: 4, Failed: 1, Wrong: 1}
	for i := 0; i < 3; i++ {
		res.Windows = append(res.Windows, window{Work: 10, Seconds: 0.5, LatMS: []float64{1, 2, 3}})
	}
	if tr != nil {
		ctx2, sp := tr.tracer.Start(ctx, "core.sweep")
		_, c := tr.tracer.Start(ctx2, "markov.batch")
		c.End()
		sp.End()
	}
	return res, nil
}
func (fakeWorkload) check(*phaseResult) []string  { return nil }
func (fakeWorkload) detail(*phaseResult) []metric { return nil }
func (fakeWorkload) layers(*phaseResult, *tracing) []metric {
	return []metric{{Name: "markov.batch.self_us", Value: 1, Unit: "us"}}
}

// TestResultLine checks the final JSON object: its keys, and exactly the
// benchmark's end-to-end metrics untraced and per-layer metrics traced,
// each as declared in BENCHMARK.json.
func TestResultLine(t *testing.T) {
	spec := readSpec(t)
	for _, traced := range []bool{false, true} {
		var out bytes.Buffer
		res, err := measure(fakeWorkload{}, "fake", 1, time.Millisecond, traced, &out)
		if err != nil {
			t.Fatal(err)
		}
		line, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]json.RawMessage
		if err := json.Unmarshal(line, &m); err != nil {
			t.Fatal(err)
		}
		if len(m) != 4 || m["correct"] == nil || m["attempted"] == nil || m["failed"] == nil || m["metrics"] == nil {
			t.Fatalf("result keys: %s", line)
		}
		want := spec.EndToEnd
		if traced {
			want = spec.PerLayer
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("traced=%v: %d metrics, BENCHMARK.json declares %d", traced, len(res.Metrics), len(want))
		}
		for _, w := range want {
			got, ok := res.Metrics[w.Name]
			if !ok || got.Unit != w.Unit {
				t.Errorf("traced=%v: metric %s = %+v, want unit %s", traced, w.Name, got, w.Unit)
			}
		}
		if !traced && res.Metrics["ops_per_s"].Value != 20 {
			t.Errorf("ops_per_s = %v, want the median window rate 20", res.Metrics["ops_per_s"].Value)
		}
		if !traced && res.Metrics["exact_frac"].Value != 0.5 {
			t.Errorf("exact_frac = %v, want (4-1-1)/4", res.Metrics["exact_frac"].Value)
		}
	}
}

type specMetric struct {
	Name, Unit, Better string
}

type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestCatalogMatchesSpec keeps the per-layer catalog and BENCHMARK.json in
// step, name for name and in order.
func TestCatalogMatchesSpec(t *testing.T) {
	s := readSpec(t)
	if len(s.PerLayer) != len(layerCatalog) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the catalog %d", len(s.PerLayer), len(layerCatalog))
	}
	for i, c := range layerCatalog {
		if s.PerLayer[i].Name != c.name || s.PerLayer[i].Unit != c.unit || s.PerLayer[i].Better != c.better {
			t.Errorf("per_layer[%d] = %+v, catalog has %+v", i, s.PerLayer[i], c)
		}
	}
}

// TestParseProfile decodes a real CPU profile of a busy loop.
func TestParseProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiling unavailable:", err)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	x := 1.0
	for time.Now().Before(deadline) {
		for i := 0; i < 1000; i++ {
			x = x*1.0000001 + 1e-9
		}
	}
	pprof.StopCPUProfile()
	directSink += x
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Fatal("no samples decoded")
	}
	found := false
	for _, s := range samples {
		for _, fn := range s.stack {
			if strings.Contains(fn, "TestParseProfile") {
				found = true
			}
		}
		if s.value <= 0 {
			t.Errorf("sample value %v", s.value)
		}
	}
	if !found {
		t.Error("no sample names the test function")
	}
}
