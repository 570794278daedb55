package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// window is one measurement window of a phase: a second of wall time,
// a pass over a job list, or one long operation.
type window struct {
	Work    float64 // units of the throughput metric completed
	Seconds float64 // wall time of the window
	CPU     float64 // CPU time the process used in it, seconds
	// LatMS holds one client-observed latency per operation, in ms.
	LatMS []float64
	// serve-mix instead splits its latencies by the client's hit/miss
	// label, stored compactly: a run records a few hundred thousand, and
	// the benchmark's own memory counts in peak_heap_mb.
	HitMS, MissMS []float32
}

// latencies returns every operation latency of the window.
func (w window) latencies() []float64 {
	if len(w.LatMS) > 0 {
		return w.LatMS
	}
	return append(widen(w.HitMS), widen(w.MissMS)...)
}

func widen(xs []float32) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

// cpuSeconds is the CPU time the process has used, user and system.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// quietShare is the least CPU share, relative to the phase's
// upper-quartile window, at which a window counts as quiet.
const quietShare = 0.95

// quiet returns the windows the host did not slow. On a shared host the
// hypervisor takes vCPUs away for seconds at a time (steal time); a
// stolen vCPU runs none of the process's threads, so the process's CPU
// time per wall second falls in exactly the windows the host slowed. The
// windows of a phase are alike in work, so a window whose CPU share is
// more than 5% below the upper-quartile window's lost time to the host.
// Without steal every window is quiet; at least a quarter always are.
func (res *phaseResult) quiet() []window {
	shares := make([]float64, len(res.Windows))
	for i, w := range res.Windows {
		shares[i] = ratio(w.CPU, w.Seconds)
	}
	sorted := append([]float64(nil), shares...)
	sort.Float64s(sorted)
	if len(sorted) == 0 {
		return nil
	}
	cut := quietShare * rank(sorted, 0.75)
	var out []window
	for i, w := range res.Windows {
		if shares[i] >= cut {
			out = append(out, w)
		}
	}
	return out
}

// rate is the median over the quiet windows of the work completed per
// second.
func (res *phaseResult) rate() float64 {
	var rates []float64
	for _, w := range res.quiet() {
		rates = append(rates, ratio(w.Work, w.Seconds))
	}
	return median(rates)
}

// percentiles returns the median over the quiet windows of each window's
// nearest-rank p50 and p99 of the latencies pick selects, and the number
// of samples behind them.
func (res *phaseResult) percentiles(pick func(window) []float64) (p50, p99 float64, n int) {
	var p50s, p99s []float64
	for _, w := range res.quiet() {
		xs := pick(w)
		if len(xs) == 0 {
			continue
		}
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		p50s = append(p50s, rank(s, 0.50))
		p99s = append(p99s, rank(s, 0.99))
		n += len(s)
	}
	return median(p50s), median(p99s), n
}

// rank is the nearest-rank percentile of a sorted slice.
func rank(sorted []float64, p float64) float64 {
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// heapSampler polls the in-use heap (bytes in live and not yet swept
// heap objects) and keeps its maximum.
type heapSampler struct {
	quit chan struct{}
	done chan float64
}

const heapSampleEvery = 2 * time.Millisecond

func startHeapSampler() *heapSampler {
	h := &heapSampler{quit: make(chan struct{}), done: make(chan float64, 1)}
	go func() {
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		var peak uint64
		read := func() {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > peak {
				peak = v
			}
		}
		tick := time.NewTicker(heapSampleEvery)
		defer tick.Stop()
		read()
		for {
			select {
			case <-h.quit:
				read()
				h.done <- float64(peak) / (1 << 20)
				return
			case <-tick.C:
				read()
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak in MiB.
func (h *heapSampler) stop() float64 {
	close(h.quit)
	return <-h.done
}

// provenance records what produced a result: host, toolchain, source
// and inputs.
func provenance(name string, seed int64, d time.Duration, traced bool) map[string]any {
	return map[string]any{
		"workload":      name,
		"seed":          seed,
		"seconds":       d.Seconds(),
		"trace":         traced,
		"cpu_model":     cpuModel(),
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"max_workers":   workers,
		"go_version":    runtime.Version(),
		"commit":        vcsRevision(),
		"source_sha256": sourceDigest(),
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// vcsRevision is the commit the binary was built from, when the build
// ran inside a git work tree ("unknown" in an exported source tree).
func vcsRevision() string {
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

// sourceDigest hashes the repository's Go sources and go.mod (relative
// paths and contents, in path order), identifying the measured program
// when no commit is available. The working directory is the repository
// root, so the module root is ".".
func sourceDigest() string {
	h := sha256.New()
	var paths []string
	_ = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if n := d.Name(); p != "." && (strings.HasPrefix(n, ".") || n == "perfbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") || p == "go.mod" {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		io.WriteString(h, p+"\x00")
		io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))
}
