// Command perfbench is the repository's benchmark: four seeded workloads
// that drive the reliability engine end to end through its public entry
// points, and a traced mode that breaks each workload down by layer.
//
//	perfbench --workload serve-mix --seed 1 --seconds 10 --trace 0
//
// Workloads (WORKLOADS.md records why each was chosen and which layers it
// loads or bypasses):
//
//	serve-mix     nsr-serve over loopback, closed loop, 2 clients
//	sweep-exact   core.SweepCtx exact-chain sweeps, 1024 points each
//	plan-search   plan.SearchCtx over stock and deep-ft design spaces
//	fleet-decade  sim.EstimateFleetCtx, 10⁶ bricks × 10 years
//
// With --trace 0 the run measures the end-to-end metrics with every
// instrument off. With --trace 1 it measures the same phase untraced and
// then traced, prints a stage table per workload and reports the
// per-layer metrics plus the tracing overhead. The last line of standard
// output is always one JSON object: correct, attempted, failed, metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
)

// workers is the worker ceiling every workload runs under: the host the
// benchmark was designed on has two vCPUs.
const workers = 2

// workload is one benchmark workload. A run calls setup several times
// (the last instance stays up), then one or two timed phases, then
// check; layers runs only in traced mode.
type workload interface {
	// setup builds the program state the timed phase needs: servers,
	// listeners, warmed caches and pools. It is timed; the benchmark's
	// own reference computations are not part of it.
	setup() error
	// teardown releases what setup built.
	teardown()
	// phase runs the workload for at least d and returns what it saw.
	// A traced phase gets a context carrying the benchmark's root span.
	phase(ctx context.Context, d time.Duration, tr *tracing) (*phaseResult, error)
	// check verifies the program's outputs from every phase run so far;
	// it appends a description of each failed check.
	check(res *phaseResult) []string
	// detail returns the workload's own end-to-end metrics (the names in
	// WORKLOADS.md) for one phase.
	detail(res *phaseResult) []metric
	// layers returns the per-layer metrics of a traced phase.
	layers(res *phaseResult, tr *tracing) []metric
}

// metric is one named measurement.
type metric struct {
	Name  string
	Value float64
	Unit  string
	// N is the sample count behind a percentile (0 for other metrics).
	N int
}

// phaseResult is what one timed phase observed, in the workload's own
// operation units (a request, a sweep cell, a search, a fleet run).
type phaseResult struct {
	Attempted int
	Failed    int // operations that returned an error or a non-200
	// Wrong counts operations whose exact values lie more than 1e-6 from
	// the reference; an operation returning several values (a search's
	// frontier) counts the wrong share of them.
	Wrong     float64
	MaxRelErr float64
	// Probed and Refused count the cells of the workload's refusal probe
	// and those the program refused. The probe holds the exact-chain
	// inputs the timed phase leaves out because the chain refuses some of
	// them; it runs once, after the timed phase.
	Probed, Refused int
	// Windows split the phase into consecutive measurement windows; rates
	// and percentiles are medians over the quiet ones, so a burst of
	// interference on a shared host moves one window rather than the
	// result.
	Windows  []window
	PeakHeap float64 // MiB
	// private carries workload-specific observations.
	private any
	// finish, when set, runs the workload's own bookkeeping after the
	// heap sampler has stopped.
	finish func()
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: serve-mix, sweep-exact, plan-search or fleet-decade")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "length of one timed phase in seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	w, err := newWorkload(*name, *seed)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	core.SetMaxWorkers(workers)
	out, err := measure(w, *name, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "serve-mix":
		return newServeMix(seed), nil
	case "sweep-exact":
		return newSweepExact(seed), nil
	case "plan-search":
		return newPlanSearch(seed), nil
	case "fleet-decade":
		return newFleetDecade(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (valid: serve-mix, sweep-exact, plan-search, fleet-decade)", name)
}

// setupRepeats is how many times a run builds the workload's state; the
// median is reported as setup_s.
const setupRepeats = 15

// result is the final output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// measure runs one workload and returns the final result line.
func measure(w workload, name string, seed int64, d time.Duration, traced bool, stdout io.Writer) (*result, error) {
	setups := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			w.teardown()
		}
		runtime.GC() // every repeat starts from the same heap state
		start := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("%s setup: %w", name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer w.teardown()
	setup := median(setups)

	prov := provenance(name, seed, d, traced)
	fmt.Fprintf(stdout, "perfbench %s seed=%d seconds=%g trace=%v\n", name, seed, d.Seconds(), traced)

	plain, err := timedPhase(w, context.Background(), d, nil)
	if err != nil {
		return nil, err
	}
	var problems []string
	problems = append(problems, w.check(plain)...)
	e2e := endToEnd(setup, plain)
	printMetrics(stdout, name+" end to end (tracing off)", append([]metric{{Name: "setup_s", Value: setup, Unit: "s", N: len(setups)}}, w.detail(plain)...))
	printMetrics(stdout, "BENCHMARK.json end-to-end metrics", e2e)
	printWindows(stdout, plain)

	out := &result{Correct: true, Attempted: plain.Attempted, Failed: plain.Failed, Metrics: map[string]metricValue{}}
	if !traced {
		for _, m := range e2e {
			out.Metrics[m.Name] = metricValue{m.Value, m.Unit}
		}
	} else {
		tr := newTracing(name)
		tracedRes, err := tracedPhase(w, d, tr)
		if err != nil {
			return nil, err
		}
		problems = append(problems, w.check(tracedRes)...)
		layers := w.layers(tracedRes, tr)
		table := tr.stageTable()
		printStageTable(stdout, name, table)
		if r := table.sumOverRoot(); r < 0.95 || r > 1.05 {
			problems = append(problems, fmt.Sprintf("stage self times sum to %.4f of the root span, outside 5%%", r))
		}
		layers = append(layers, metric{Name: "stage.sum_over_root", Value: table.sumOverRoot(), Unit: "ratio"})
		tracedE2E := endToEnd(setup, tracedRes)
		for i, m := range e2e {
			if m.Name == "setup_s" {
				continue
			}
			layers = append(layers, metric{Name: "trace_overhead." + m.Name, Value: ratio(tracedE2E[i].Value, m.Value), Unit: "ratio"})
		}
		layers = append(layers, checkMetrics(plain)...)
		layers = fillLayers(layers)
		printMetrics(stdout, name+" per layer (traced)", layers)
		for _, m := range layers {
			out.Metrics[m.Name] = metricValue{m.Value, m.Unit}
		}
	}
	for _, p := range problems {
		fmt.Fprintln(stdout, "CHECK FAILED:", p)
	}
	out.Correct = len(problems) == 0
	samples := map[string]int{}
	for _, m := range append(e2e, w.detail(plain)...) {
		if m.N > 0 {
			samples[m.Name] = m.N
		}
	}
	prov["percentile_samples"] = samples
	provLine, err := json.Marshal(prov)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(stdout, "provenance", string(provLine))
	return out, nil
}

// timedPhase runs one phase with the heap sampler around it, after a
// collection so every phase starts from the same heap state.
func timedPhase(w workload, ctx context.Context, d time.Duration, tr *tracing) (*phaseResult, error) {
	runtime.GC()
	hs := startHeapSampler()
	res, err := w.phase(ctx, d, tr)
	peak := hs.stop()
	if err != nil {
		return nil, err
	}
	res.PeakHeap = peak
	if res.finish != nil {
		res.finish()
	}
	return res, nil
}

// tracedPhase runs the phase under the benchmark's root span.
func tracedPhase(w workload, d time.Duration, tr *tracing) (*phaseResult, error) {
	tr.begin()
	ctx, root := tr.tracer.Start(context.Background(), "bench."+tr.workload)
	res, err := timedPhase(w, ctx, d, tr)
	root.End()
	tr.end()
	return res, err
}

// endToEnd derives the end-to-end metrics BENCHMARK.json declares from
// one phase. The order is fixed; trace overheads pair entries by index.
func endToEnd(setup float64, res *phaseResult) []metric {
	p50, p99, n := res.percentiles(window.latencies)
	return []metric{
		{Name: "setup_s", Value: setup, Unit: "s"},
		{Name: "ops_per_s", Value: res.rate(), Unit: "op/s"},
		{Name: "p50_ms", Value: p50, Unit: "ms", N: n},
		{Name: "p99_ms", Value: p99, Unit: "ms", N: n},
		{Name: "peak_heap_mb", Value: res.PeakHeap, Unit: "MiB"},
		{Name: "exact_frac", Value: (float64(res.Attempted-res.Failed) - res.Wrong) / float64(res.Attempted), Unit: "ratio"},
	}
}

// checkMetrics reports the correctness counts of the untraced phase and
// the refusal probe: the seed baselines for the exact-chain accuracy
// work.
func checkMetrics(res *phaseResult) []metric {
	return []metric{
		{Name: "check.fail_frac", Value: float64(res.Failed) / float64(res.Attempted), Unit: "ratio"},
		{Name: "check.probe_refused_frac", Value: ratio(float64(res.Refused), float64(res.Probed)), Unit: "ratio"},
		{Name: "check.wrong_frac", Value: res.Wrong / float64(res.Attempted), Unit: "ratio"},
		{Name: "check.max_rel_err", Value: res.MaxRelErr, Unit: "ratio"},
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func printMetrics(w io.Writer, title string, ms []metric) {
	fmt.Fprintf(w, "== %s\n", title)
	for _, m := range ms {
		if m.N > 0 {
			fmt.Fprintf(w, "  %-36s %16.6g %-8s (n=%d)\n", m.Name, m.Value, m.Unit, m.N)
		} else {
			fmt.Fprintf(w, "  %-36s %16.6g %s\n", m.Name, m.Value, m.Unit)
		}
	}
}

// checkLog collects the output checks that failed, keeping the first 20.
type checkLog []string

func (l *checkLog) add(format string, args ...any) {
	if len(*l) < 20 {
		*l = append(*l, fmt.Sprintf(format, args...))
	}
}

// take returns the failures logged so far and empties the log.
func (l *checkLog) take() []string {
	out := *l
	*l = nil
	return out
}

// printWindows shows how the per-window rates and CPU shares spread
// within the phase, and the median rate of all windows next to that of
// the quiet ones the metrics use.
func printWindows(w io.Writer, res *phaseResult) {
	rates := make([]float64, 0, len(res.Windows))
	shares := make([]float64, 0, len(res.Windows))
	for _, win := range res.Windows {
		rates = append(rates, ratio(win.Work, win.Seconds))
		shares = append(shares, ratio(win.CPU, win.Seconds))
	}
	sort.Float64s(rates)
	sort.Float64s(shares)
	if len(rates) == 0 {
		return
	}
	fmt.Fprintf(w, "  windows %d, rate min %.6g q1 %.6g median %.6g q3 %.6g max %.6g; quiet %d, median %.6g\n", len(rates),
		rates[0], rank(rates, 0.25), median(rates), rank(rates, 0.75), rates[len(rates)-1], len(res.quiet()), res.rate())
	fmt.Fprintf(w, "  cpu per wall second min %.4g median %.4g max %.4g\n", shares[0], median(shares), shares[len(shares)-1])
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
