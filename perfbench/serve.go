package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/params"
	"repro/internal/seedstream"
	"repro/internal/serve"
)

// serve-mix: nsr-serve in process behind a loopback listener, driven in a
// closed loop by 2 clients with one keep-alive connection each. Requests
// are mostly /v1/analyze across all three methods, internal schemes
// none/raid5/raid6, ft 1–7 and R ∈ {8,12,16,24,48}, with occasional
// buffered 64-cell exact-chain /v1/sweep bodies. About half repeat a body
// of a 64-body hot set; the rest carry a parameter value never sent
// before. Exact-chain bodies stay within chainMaxFT; the refusal probe
// measures the deeper ones.

const (
	serveClients = 2
	sweepCells   = 64
	// serveWindow is the length of one measurement window.
	serveWindow = time.Second
	// samplesPerSecond sizes each client's preallocated hit and miss
	// latency records, and half of it its exact answers: above the
	// rates one client reaches on 2 vCPUs (about 5000 of each a second).
	samplesPerSecond = 8192
	// sweepMissShare is the share of first-seen bodies that are sweeps.
	sweepMissShare = 0.01
)

var (
	serveMethods   = []core.Method{core.MethodClosedForm, core.MethodExactChain, core.MethodExactStable}
	serveInternals = []core.InternalRedundancy{core.InternalNone, core.InternalRAID5, core.InternalRAID6}
	serveStripes   = []int{8, 12, 16, 24, 48}
)

// chainMaxFT is the deepest fault tolerance at which the exact chain
// answers every input over the workload's parameter ranges. Beyond it
// the chain refuses a share of inputs (a negative MTTDL: float64
// exhausted; at ft 5 first at R=8) that flips with their last digits.
// Every timed operation must succeed, so deeper configurations reach the
// exact chain only through the refusal probe, outside the timed phase.
const chainMaxFT = 4

// serveReq is one generated request body with what the benchmark needs
// to check its answer.
type serveReq struct {
	path   string
	body   []byte
	hot    int // hot-set index; -1 for a first-seen body
	method core.Method
	pt     point     // the resolved parameters and configuration
	knob   *knob     // sweeps: the swept parameter
	xs     []float64 // sweeps: its values
}

// serveGen yields the deterministic request sequence of one seed. The
// sequence is made of blocks; each block holds the whole hot set once, in
// seeded order, interleaved with 32–96 first-seen bodies. Between two
// sends of one hot body there are therefore fewer than 256 other
// distinct bodies, so the hot set stays in the server's default LRU.
type serveGen struct {
	seed  int64
	hot   []*serveReq
	mu    sync.Mutex
	block uint64
	seq   int
	queue []*serveReq
}

// newServeGen builds the hot set: one analyze body for every (method,
// internal scheme, ft slot), and one sweep of a Section 7 configuration.
// An exact-chain slot beyond chainMaxFT wraps round to a shallower ft.
// The stripe width, the overridden parameter and its value rotate with
// the slot and are the same for every seed, so the hot set costs the same
// in every run. The seed orders the hot set, moves the hot sweep's range
// and draws every first-seen body.
func newServeGen(seed int64) *serveGen {
	rng := rand.New(rand.NewSource(seedstream.Derive(seed, 0x5eed0003)))
	g := &serveGen{seed: seed}
	for mi, m := range serveMethods {
		for ii, ir := range serveInternals {
			for slot := 1; slot <= 7; slot++ {
				c := slot + 2*ii + mi
				frac := float64((3*slot+5*ii+7*mi)%11) / 10
				ft := slot
				if m == core.MethodExactChain {
					ft = 1 + (slot-1)%chainMaxFT
				}
				g.hot = append(g.hot, genAnalyze(m, ir, ft, serveStripes[c%len(serveStripes)], &sweepKnobs[c%len(sweepKnobs)], frac))
			}
		}
	}
	g.hot = append(g.hot, genSweep(core.Config{Internal: core.InternalNone, NodeFaultTolerance: 3}, 8,
		&sweepKnobs[0], 0.1*(rng.Float64()-0.5), 0.1*(rng.Float64()-0.5)))
	for i, r := range g.hot {
		r.hot = i
	}
	return g
}

// genAnalyze builds one /v1/analyze body: the configuration and stripe
// width given, with knob k set at the log-fraction frac of its plotted
// range.
func genAnalyze(m core.Method, ir core.InternalRedundancy, ft, r int, k *knob, frac float64) *serveReq {
	v := k.lo * math.Pow(k.hi/k.lo, frac)
	p := params.Baseline()
	p.RedundancySetSize = r
	k.apply(&p, v)
	body, err := json.Marshal(serve.AnalyzeRequest{
		Params: patch(k, v, r),
		Config: serve.ConfigSpec{Internal: wireInternal(ir), FT: ft},
		Method: m.String(),
	})
	if err != nil {
		panic(err) // the request types always marshal
	}
	return &serveReq{path: "/v1/analyze", body: body, hot: -1, method: m,
		pt: point{p, core.Config{Internal: ir, NodeFaultTolerance: ft}}}
}

// genSweep builds one buffered 64-cell exact-chain /v1/sweep body over
// knob k's plotted range, its ends moved by the log-offsets dlo and dhi.
func genSweep(cfg core.Config, r int, k *knob, dlo, dhi float64) *serveReq {
	xs := logspace(k.lo*math.Exp(dlo), k.hi*math.Exp(dhi), sweepCells)
	p := params.Baseline()
	p.RedundancySetSize = r
	body, err := json.Marshal(serve.SweepRequest{
		Params:    &serve.ParamsPatch{RedundancySetSize: &r},
		Configs:   []serve.ConfigSpec{{Internal: wireInternal(cfg.Internal), FT: cfg.NodeFaultTolerance}},
		Method:    core.MethodExactChain.String(),
		Parameter: k.name,
		Values:    xs,
	})
	if err != nil {
		panic(err)
	}
	return &serveReq{path: "/v1/sweep", body: body, hot: -1, method: core.MethodExactChain,
		pt: point{p, cfg}, knob: k, xs: xs}
}

// genMiss builds one first-seen body: a uniformly drawn configuration,
// stripe width and knob, with the knob at a fresh value. Exact-chain
// bodies draw ft up to chainMaxFT.
func genMiss(rng *rand.Rand) *serveReq {
	ir := serveInternals[rng.Intn(len(serveInternals))]
	ft := 1 + rng.Intn(7)
	r := serveStripes[rng.Intn(len(serveStripes))]
	k := &sweepKnobs[rng.Intn(len(sweepKnobs))]
	sweep := rng.Float64() < sweepMissShare
	m := core.MethodExactChain
	if !sweep {
		m = serveMethods[rng.Intn(len(serveMethods))]
	}
	if m == core.MethodExactChain && ft > chainMaxFT {
		ft = 1 + rng.Intn(chainMaxFT)
	}
	if sweep {
		return genSweep(core.Config{Internal: ir, NodeFaultTolerance: ft}, r, k, 0.2*(rng.Float64()-0.5), 0.2*(rng.Float64()-0.5))
	}
	return genAnalyze(m, ir, ft, r, k, rng.Float64())
}

// warmBodies are the extra bodies setup sends to fill the solver pools
// and symbolic caches: one exact-chain analysis of every (internal
// scheme, ft) up to chainMaxFT. Like the hot set they are the same for
// every seed, so set-up does the same work in every run.
func warmBodies() []*serveReq {
	var out []*serveReq
	for ii, ir := range serveInternals {
		for ft := 1; ft <= chainMaxFT; ft++ {
			c := ft + ii
			frac := (float64((ft+3*ii)%7) + 0.5) / 7
			out = append(out, genAnalyze(core.MethodExactChain, ir, ft, serveStripes[c%len(serveStripes)], &sweepKnobs[c%len(sweepKnobs)], frac))
		}
	}
	return out
}

func patch(k *knob, v float64, r int) *serve.ParamsPatch {
	pp := &serve.ParamsPatch{RedundancySetSize: &r}
	switch k.name {
	case "drive_mttf_hours":
		pp.DriveMTTFHours = &v
	case "node_mttf_hours":
		pp.NodeMTTFHours = &v
	case "rebuild_command_bytes":
		pp.RebuildCommandBytes = &v
	case "link_speed_gbps":
		pp.LinkSpeedGbps = &v
	}
	return pp
}

func wireInternal(ir core.InternalRedundancy) string {
	switch ir {
	case core.InternalRAID5:
		return "raid5"
	case core.InternalRAID6:
		return "raid6"
	}
	return "none"
}

// next returns the next request of the sequence and its position in it.
func (g *serveGen) next() (*serveReq, int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.queue) == 0 {
		g.fill()
	}
	r := g.queue[0]
	g.queue = g.queue[1:]
	g.seq++
	return r, g.seq - 1
}

func (g *serveGen) fill() {
	rng := rand.New(rand.NewSource(seedstream.Derive(g.seed, 1<<32+g.block)))
	g.block++
	order := rng.Perm(len(g.hot))
	misses := len(g.hot)/2 + rng.Intn(len(g.hot)+1)
	marks := make([]bool, len(g.hot)+misses)
	for i := range order {
		marks[i] = true
	}
	rng.Shuffle(len(marks), func(i, j int) { marks[i], marks[j] = marks[j], marks[i] })
	h := 0
	for _, isHot := range marks {
		if isHot {
			g.queue = append(g.queue, g.hot[order[h]])
			h++
		} else {
			g.queue = append(g.queue, genMiss(rng))
		}
	}
}

// server is one running nsr-serve instance with its clients.
type server struct {
	srv     *serve.Server
	hs      *http.Server
	served  chan struct{}
	base    string
	clients []*http.Client
	// first holds each hot body's first response: status and bytes.
	first       [][]byte
	firstStatus []int
}

func startServer(opts serve.Options) (*server, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{srv: serve.New(opts), served: make(chan struct{}), base: "http://" + l.Addr().String()}
	s.hs = &http.Server{Handler: s.srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go func() {
		defer close(s.served)
		_ = s.hs.Serve(l) // returns ErrServerClosed on stop
	}()
	for i := 0; i < serveClients; i++ {
		s.clients = append(s.clients, &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		}})
	}
	return s, nil
}

func (s *server) stop() {
	_ = s.hs.Close() // closing a listener that is already closed is harmless
	<-s.served
	for _, c := range s.clients {
		c.CloseIdleConnections()
	}
}

// post sends one body and returns the status and response bytes.
func (s *server) post(c *http.Client, r *serveReq, id string, buf *bytes.Buffer) (int, error) {
	req, err := http.NewRequest(http.MethodPost, s.base+r.path, bytes.NewReader(r.body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if id != "" {
		req.Header.Set("X-Request-ID", id)
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, err
}

// warm sends every hot body once, recording the first responses, and
// the warm-up bodies, split over both clients.
func (s *server) warm(g *serveGen) error {
	s.first = make([][]byte, len(g.hot))
	s.firstStatus = make([]int, len(g.hot))
	extra := warmBodies()
	errs := make([]error, len(s.clients))
	var wg sync.WaitGroup
	for ci, c := range s.clients {
		wg.Add(1)
		go func(ci int, c *http.Client) {
			defer wg.Done()
			var buf bytes.Buffer
			for i := ci; i < len(g.hot); i += len(s.clients) {
				st, err := s.post(c, g.hot[i], "", &buf)
				if err != nil {
					errs[ci] = err
					return
				}
				s.first[i] = append([]byte(nil), buf.Bytes()...)
				s.firstStatus[i] = st
			}
			for i := ci; i < len(extra); i += len(s.clients) {
				if _, err := s.post(c, extra[i], "", &buf); err != nil {
					errs[ci] = err
					return
				}
			}
		}(ci, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("serve-mix warm-up: %w", err)
		}
	}
	return nil
}

// serveProbeSize is the number of points in serve-mix's refusal probe.
const serveProbeSize = 512

// serveProbePoints draws the refusal probe of a seed: exact-chain
// analyses drawn like first-seen bodies, but at the fault tolerances
// beyond chainMaxFT that the timed stream leaves out.
func serveProbePoints(seed int64) []point {
	rng := rand.New(rand.NewSource(seedstream.Derive(seed, 0x5eed0004)))
	pts := make([]point, serveProbeSize)
	for i := range pts {
		ir := serveInternals[rng.Intn(len(serveInternals))]
		ft := chainMaxFT + 1 + rng.Intn(7-chainMaxFT)
		r := serveStripes[rng.Intn(len(serveStripes))]
		k := &sweepKnobs[rng.Intn(len(sweepKnobs))]
		pts[i] = genAnalyze(core.MethodExactChain, ir, ft, r, k, rng.Float64()).pt
	}
	return pts
}

// serveProbe runs the refusal probe of a seed. It returns how many
// points the program refused and the largest relative error of the
// others against the exact-stable reference.
func serveProbe(seed int64) (refused int, maxErr float64) {
	for _, pt := range serveProbePoints(seed) {
		res, err := core.Analyze(pt.p, pt.cfg, core.MethodExactChain)
		if err != nil {
			refused++
			continue
		}
		maxErr = maxFinite(maxErr, relErr(res.MTTDLHours, exactStable(pt)))
	}
	return refused, maxErr
}

type serveMix struct {
	seed int64
	gen  *serveGen
	srv  *server
	// refused is the refusal probe's count, -1 until it has run, and
	// probeErr the largest error of its answers.
	refused  int
	probeErr float64
	// hotWrong marks hot bodies whose first response is an exact MTTDL
	// more than 1e-6 from the reference (set by check).
	hotWrong []bool
	hotMax   []float64
	checked  bool
	problems checkLog
	// regen replays the request sequence for the check; missPts keeps
	// the first checked first-seen bodies for the direct timings.
	regen   *replay
	missPts []point
}

// replay walks a second generator of the same seed forward, so the
// body at any later position can be recovered.
type replay struct {
	gen *serveGen
	pos int
	cur *serveReq
}

// at returns the body at sequence position seq; positions must not
// decrease between calls.
func (rp *replay) at(seq int) *serveReq {
	for rp.cur == nil || rp.pos < seq {
		rp.cur, rp.pos = rp.gen.next()
	}
	return rp.cur
}

// servePhase is what the clients of one phase saw.
type servePhase struct {
	hotSends  []int        // per hot body
	misses    []missAnswer // exact answers to first-seen bodies, by sequence position
	sweepVals map[int][]float64
	requests  []clientReq // traced phase only
	sink      *spanSink   // traced phase only
}

// missAnswer is the position of a first-seen body in the request
// sequence and the exact MTTDLs it returned. The body itself is
// regenerated for the check, keeping the clients' bookkeeping small.
type missAnswer struct {
	seq int32
	val float64 // an analysis's MTTDL; sweeps keep theirs in sweepVals
}

// clientReq is one request as its client saw it (traced phase).
type clientReq struct {
	id      string
	hit     bool
	status  int
	seconds float64
}

func newServeMix(seed int64) *serveMix {
	return &serveMix{seed: seed, gen: newServeGen(seed), regen: &replay{gen: newServeGen(seed)}, refused: -1}
}

func (w *serveMix) setup() error {
	s, err := startServer(serve.Options{Registry: obs.NewRegistry()})
	if err != nil {
		return err
	}
	w.srv = s
	return s.warm(w.gen)
}

func (w *serveMix) teardown() {
	if w.srv != nil {
		w.srv.stop()
		w.srv = nil
	}
}

// phase drives the closed loop until d has passed. A traced phase runs
// against a second server that exports its span trees to the benchmark.
func (w *serveMix) phase(ctx context.Context, d time.Duration, tr *tracing) (*phaseResult, error) {
	s := w.srv
	ph := &servePhase{hotSends: make([]int, len(w.gen.hot)), sweepVals: map[int][]float64{}}
	if tr != nil {
		tr.external = true
		ph.sink = newSpanSink(tr)
		ts, err := startServer(serve.Options{Registry: tr.reg, TraceWriter: ph.sink})
		if err != nil {
			return nil, err
		}
		defer ts.stop()
		if err := ts.warm(w.gen); err != nil {
			return nil, err
		}
		// The warm-up's span trees are not part of the phase.
		ph.sink.reset()
		tr.mark()
		s = ts
	}
	res := &phaseResult{private: ph}
	// Windows are serveWindow of wall time each (the whole phase when it
	// is shorter); a request belongs to the window it completed in, and
	// requests completing after the deadline to none.
	win := min(serveWindow, d)
	nwin := int(d / win)
	windowSamples := int(win.Seconds() * samplesPerSecond)
	outs := make([]serveClient, len(s.clients))
	start := time.Now()
	deadline := start.Add(d)
	// cpuAt[k] is the process's CPU time when window k began.
	cpuAt := make([]float64, nwin+1)
	cpuAt[0] = cpuSeconds()
	ticked := make(chan struct{})
	go func() {
		defer close(ticked)
		tick := time.NewTicker(win)
		defer tick.Stop()
		for k := 1; k <= nwin; k++ {
			<-tick.C
			cpuAt[k] = cpuSeconds()
		}
	}()
	var wg sync.WaitGroup
	for ci, c := range s.clients {
		wg.Add(1)
		go func(ci int, c *http.Client) {
			defer wg.Done()
			o := &outs[ci]
			o.hotSends = make([]int, len(w.gen.hot))
			o.sweepVals = map[int][]float64{}
			// Preallocated well above a client's rate, so the bookkeeping
			// is a constant share of peak_heap_mb rather than one that
			// grows with throughput.
			o.windows = make([]window, nwin)
			for k := range o.windows {
				o.windows[k].HitMS = make([]float32, 0, windowSamples)
				o.windows[k].MissMS = make([]float32, 0, windowSamples)
			}
			o.misses = make([]missAnswer, 0, nwin*windowSamples/2)
			var buf bytes.Buffer
			for n := 0; time.Now().Before(deadline); n++ {
				r, seq := w.gen.next()
				id := ""
				if tr != nil {
					id = "b" + strconv.Itoa(ci) + "-" + strconv.Itoa(n)
				}
				t0 := time.Now()
				status, err := s.post(c, r, id, &buf)
				done := time.Now()
				lat := done.Sub(t0)
				ms := float32(lat.Nanoseconds()) / 1e6
				var ww *window
				if k := int(done.Sub(start) / win); k < nwin {
					ww = &o.windows[k]
					if r.hot >= 0 {
						ww.HitMS = append(ww.HitMS, ms)
					} else {
						ww.MissMS = append(ww.MissMS, ms)
					}
				}
				if r.hot >= 0 {
					o.hotSends[r.hot]++
				}
				if tr != nil {
					o.requests = append(o.requests, clientReq{id: id, hit: r.hot >= 0, status: status, seconds: lat.Seconds()})
				}
				if err != nil || status != http.StatusOK {
					o.failed++
				} else {
					o.ok++
					if ww != nil {
						ww.Work++
					}
				}
				if err != nil {
					continue
				}
				if r.hot >= 0 {
					if !bytes.Equal(buf.Bytes(), s.first[r.hot]) {
						o.problems.add("serve-mix: repeated body %d returned different bytes than its first response", r.hot)
					}
					continue
				}
				if status == http.StatusOK && r.method != core.MethodClosedForm {
					a := missAnswer{seq: int32(seq), val: math.NaN()}
					if vals := mttdls(buf.Bytes()); r.knob != nil {
						o.sweepVals[seq] = vals
					} else if len(vals) == 1 {
						a.val = vals[0]
					}
					o.misses = append(o.misses, a)
				}
			}
		}(ci, c)
	}
	wg.Wait()
	<-ticked
	if ph.sink != nil {
		ph.sink.close()
	}
	// The first responses of the traced server must match the plain one's.
	if tr != nil {
		for h := range w.gen.hot {
			if !bytes.Equal(s.first[h], w.srv.first[h]) {
				w.problems.add("serve-mix: hot body %d answered differently by two servers", h)
			}
		}
	}
	res.finish = func() { w.merge(res, ph, outs, win, cpuAt) }
	return res, nil
}

// serveClient is what one client saw during a phase.
type serveClient struct {
	windows    []window
	hotSends   []int
	misses     []missAnswer
	sweepVals  map[int][]float64
	requests   []clientReq
	ok, failed int
	problems   checkLog
}

// merge folds the clients' observations into the phase result.
func (w *serveMix) merge(res *phaseResult, ph *servePhase, outs []serveClient, win time.Duration, cpuAt []float64) {
	res.Windows = make([]window, len(outs[0].windows))
	for k := range res.Windows {
		res.Windows[k].Seconds = win.Seconds()
		res.Windows[k].CPU = cpuAt[k+1] - cpuAt[k]
	}
	for i := range outs {
		o := &outs[i]
		for k, ow := range o.windows {
			rw := &res.Windows[k]
			rw.Work += ow.Work
			rw.HitMS = append(rw.HitMS, ow.HitMS...)
			rw.MissMS = append(rw.MissMS, ow.MissMS...)
		}
		for h, n := range o.hotSends {
			ph.hotSends[h] += n
		}
		ph.misses = append(ph.misses, o.misses...)
		for seq, v := range o.sweepVals {
			ph.sweepVals[seq] = v
		}
		ph.requests = append(ph.requests, o.requests...)
		res.Failed += o.failed
		res.Attempted += o.ok + o.failed
		for _, p := range o.problems {
			w.problems.add("%s", p)
		}
	}
}

// mttdls extracts every "mttdl_hours" value of a response body, in order.
func mttdls(body []byte) []float64 {
	const key = `"mttdl_hours":`
	var out []float64
	for {
		i := bytes.Index(body, []byte(key))
		if i < 0 {
			return out
		}
		body = body[i+len(key):]
		j := bytes.IndexAny(body, ",}")
		if j < 0 {
			return out
		}
		v, err := strconv.ParseFloat(string(body[:j]), 64)
		if err != nil {
			v = math.NaN()
		}
		out = append(out, v)
	}
}

// reference returns the exact-stable MTTDL of each cell a request asks
// for.
func (r *serveReq) reference() []float64 {
	if r.knob == nil {
		return []float64{exactStable(r.pt)}
	}
	out := make([]float64, len(r.xs))
	for i, x := range r.xs {
		pt := r.pt
		r.knob.apply(&pt.p, x)
		out[i] = exactStable(pt)
	}
	return out
}

func exactStable(pt point) float64 {
	res, err := core.Analyze(pt.p, pt.cfg, core.MethodExactStable)
	if err != nil {
		return math.NaN()
	}
	return res.MTTDLHours
}

// answerError is the largest relative error of an exact answer against
// its reference (+Inf when the answer is malformed).
func answerError(r *serveReq, vals []float64) float64 {
	refs := r.reference()
	if len(vals) != len(refs) {
		return inf
	}
	var e float64
	for i := range refs {
		e = max(e, relErr(vals[i], refs[i]))
	}
	return e
}

// check scores the hot set's first answers (once), then every exact
// answer to a first-seen body, against the exact-stable reference.
func (w *serveMix) check(res *phaseResult) []string {
	ph := res.private.(*servePhase)
	if w.refused < 0 {
		w.refused, w.probeErr = serveProbe(w.seed)
	}
	res.Probed, res.Refused = serveProbeSize, w.refused
	res.MaxRelErr = maxFinite(res.MaxRelErr, w.probeErr)
	if !w.checked {
		w.checked = true
		w.hotWrong = make([]bool, len(w.gen.hot))
		w.hotMax = make([]float64, len(w.gen.hot))
		for h, r := range w.gen.hot {
			if w.srv.firstStatus[h] != http.StatusOK || r.method == core.MethodClosedForm {
				continue
			}
			w.hotMax[h] = answerError(r, mttdls(w.srv.first[h]))
			w.hotWrong[h] = w.hotMax[h] > wrongTol
		}
	}
	for h, n := range ph.hotSends {
		if n == 0 {
			continue
		}
		if w.hotWrong[h] {
			res.Wrong += float64(n)
		}
		res.MaxRelErr = maxFinite(res.MaxRelErr, w.hotMax[h])
	}
	sort.Slice(ph.misses, func(a, b int) bool { return ph.misses[a].seq < ph.misses[b].seq })
	for _, m := range ph.misses {
		r := w.regen.at(int(m.seq))

		if len(w.missPts) < 1024 {
			w.missPts = append(w.missPts, r.pt)
		}
		vals := ph.sweepVals[int(m.seq)]
		if r.knob == nil {
			vals = []float64{m.val}
		}
		e := answerError(r, vals)
		if e > wrongTol {
			res.Wrong++
		}
		res.MaxRelErr = maxFinite(res.MaxRelErr, e)
	}
	return w.problems.take()
}

func (w *serveMix) detail(res *phaseResult) []metric {
	h50, h99, hn := res.percentiles(func(w window) []float64 { return widen(w.HitMS) })
	m50, m99, mn := res.percentiles(func(w window) []float64 { return widen(w.MissMS) })
	return []metric{
		{Name: "fail_frac", Value: float64(res.Failed) / float64(res.Attempted), Unit: "ratio"},
		{Name: "probe_refused_frac", Value: ratio(float64(res.Refused), float64(res.Probed)), Unit: "ratio"},
		{Name: "wrong_frac", Value: res.Wrong / float64(res.Attempted), Unit: "ratio"},
		{Name: "serve_req_per_s", Value: res.rate(), Unit: "req/s"},
		{Name: "serve_hit_p50_ms", Value: h50, Unit: "ms", N: hn},
		{Name: "serve_hit_p99_ms", Value: h99, Unit: "ms", N: hn},
		{Name: "serve_miss_p50_ms", Value: m50, Unit: "ms", N: mn},
		{Name: "serve_miss_p99_ms", Value: m99, Unit: "ms", N: mn},
		{Name: "peak_heap_mb", Value: res.PeakHeap, Unit: "MiB"},
	}
}

func (w *serveMix) layers(res *phaseResult, tr *tracing) []metric {
	ph := res.private.(*servePhase)
	sink := ph.sink
	var (
		overhead, cacheHit, queueMiss float64
		nOver, nHit, nMiss            int
		attrHits, misclassified       int
	)
	for _, cr := range ph.requests {
		sr, ok := sink.reqs[cr.id]
		if !ok {
			continue
		}
		overhead += cr.seconds - sr.root
		nOver++
		if sr.hit {
			attrHits++
			cacheHit += sr.cacheSelf
			nHit++
		} else if sr.cached {
			queueMiss += sr.cacheSelf
			nMiss++
		}
		// Errors are never cached, so only answered bodies can be hits.
		if cr.status == http.StatusOK && sr.hit != cr.hit {
			misclassified++
		}
	}
	hits, misses := tr.counter("serve.cache.hits"), tr.counter("serve.cache.misses")
	// The cache's own counters must agree with the span attributes.
	misclassified += int(math.Abs(hits - float64(attrHits)))
	reqs := float64(len(ph.requests))
	sweep, cell := tr.stage("core.sweep"), tr.stage("core.cell")
	ms := []metric{
		{Name: "serve.request.self_us", Value: tr.meanSelfUS("serve.request"), Unit: "us"},
		{Name: "serve.canonicalize.self_us", Value: tr.meanSelfUS("serve.canonicalize"), Unit: "us"},
		{Name: "serve.cache.self_us", Value: ratio(cacheHit, float64(nHit)) * 1e6, Unit: "us", N: nHit},
		{Name: "serve.queue_wait_us", Value: ratio(queueMiss, float64(nMiss)) * 1e6, Unit: "us", N: nMiss},
		{Name: "serve.compute.self_us", Value: tr.meanSelfUS("serve.compute"), Unit: "us"},
		{Name: "serve.http_overhead_us", Value: ratio(overhead, float64(nOver)) * 1e6, Unit: "us", N: nOver},
		{Name: "serve.cache.hit_ratio", Value: ratio(hits, hits+misses), Unit: "ratio"},
		{Name: "serve.solves_per_req", Value: ratio(tr.counter("serve.solves"), reqs), Unit: "count"},
		{Name: "serve.cache.misclassified", Value: float64(misclassified), Unit: "count"},
		{Name: "core.cell.self_us", Value: ratio(sweep.Self+cell.Self, float64(sweep.Count*sweepCells)) * 1e6, Unit: "us"},
		{Name: "core.sweep.self_ms", Value: ratio(sweep.Self, float64(sweep.Count)) * 1e3, Unit: "ms"},
	}
	ms = append(ms, solverLayers(tr)...)
	pts := make([]point, 0, len(w.gen.hot)+1024)
	for _, r := range w.gen.hot {
		pts = append(pts, r.pt)
	}
	pts = append(pts, w.missPts...)
	return append(ms, directTimings(pts)...)
}

// spanSink receives the traced server's span trees as JSONL (its
// TraceWriter). Lines are buffered on the request path and parsed on a
// goroutine of their own; each request's tree is folded into the stage
// tallies and summarized by request ID.
type spanSink struct {
	tr     *tracing
	mu     sync.Mutex
	buf    []byte
	chunks chan []byte
	done   chan struct{}
	// group is the tree being assembled; reqs the finished summaries.
	group []obs.SpanRecord
	reqs  map[string]serverReq
}

// serverReq summarizes one request's span tree.
type serverReq struct {
	root      float64 // serve.request duration, seconds
	cached    bool    // the request reached the result cache
	hit       bool    // serve.cache's hit attribute
	cacheSelf float64 // serve.cache self time, seconds
}

// sinkChunk is the buffered size handed to the parser at once.
const sinkChunk = 1 << 20

func newSpanSink(tr *tracing) *spanSink {
	s := &spanSink{tr: tr, chunks: make(chan []byte, 16), done: make(chan struct{}), reqs: map[string]serverReq{}}
	go s.parse()
	return s
}

func (s *spanSink) Write(p []byte) (int, error) {
	s.mu.Lock()
	s.buf = append(s.buf, p...)
	var full []byte
	if len(s.buf) >= sinkChunk {
		full, s.buf = s.buf, nil
	}
	s.mu.Unlock()
	if full != nil {
		s.chunks <- full
	}
	return len(p), nil
}

// reset discards every tree received so far (the warm-up's).
func (s *spanSink) reset() {
	s.mu.Lock()
	s.buf = append(s.buf[:0], "reset\n"...)
	full := s.buf
	s.buf = nil
	s.mu.Unlock()
	s.chunks <- full
}

// close flushes the buffer and waits for the parser to finish.
func (s *spanSink) close() {
	s.mu.Lock()
	full := s.buf
	s.buf = nil
	s.mu.Unlock()
	if len(full) > 0 {
		s.chunks <- full
	}
	close(s.chunks)
	<-s.done
}

func (s *spanSink) parse() {
	defer close(s.done)
	for chunk := range s.chunks {
		for len(chunk) > 0 {
			line := chunk
			if i := bytes.IndexByte(chunk, '\n'); i >= 0 {
				line, chunk = chunk[:i], chunk[i+1:]
			} else {
				chunk = nil
			}
			if string(line) == "reset" {
				s.group = s.group[:0]
				s.reqs = map[string]serverReq{}
				s.tr.reset()
				continue
			}
			var rec obs.SpanRecord
			if err := json.Unmarshal(line, &rec); err != nil {
				continue
			}
			if rec.Parent == 0 {
				s.flush()
			}
			s.group = append(s.group, rec)
		}
	}
	s.flush()
}

// flush folds the assembled tree.
func (s *spanSink) flush() {
	if len(s.group) == 0 {
		return
	}
	root, self := s.tr.addTree(s.group)
	sr := serverReq{root: root.Seconds}
	for _, r := range s.group {
		if r.Name == "serve.cache" {
			sr.cached = true
			sr.hit, _ = r.Attrs["hit"].(bool)
			sr.cacheSelf = self[r.ID]
		}
	}
	if id, ok := root.Attrs["id"].(string); ok {
		s.reqs[id] = sr
	}
	s.group = s.group[:0]
}
