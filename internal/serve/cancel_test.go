package serve

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// slowSweepBody builds an exact-chain sweep over n drive-MTTF values
// (200000, 200001, …) at wide redundancy sets (r=48) and ft=7. Exact
// sweeps run on the recurrences at about a microsecond per cell, so a
// test that needs the sweep to be still running holds it with a
// cellGate rather than relying on its size.
func slowSweepBody(n int) string {
	vals := make([]string, n)
	for i := range vals {
		vals[i] = fmt.Sprintf("%d", 200_000+i)
	}
	return `{"params":{"redundancy_set_size":48},
		"configs":[{"internal":"none","ft":7}],
		"method":"exact-chain",
		"parameter":"drive_mttf_hours",
		"values":[` + strings.Join(vals, ",") + `]}`
}

// cellGate is a Server.cellHook that holds the sweep cell at x == at
// until the gate is released or the solve's context is cancelled, and
// counts the cells that run after the cancellation — the measure of how
// promptly a cancelled sweep stops.
type cellGate struct {
	at       float64
	reached  chan struct{}
	release  chan struct{}
	once     sync.Once
	late     atomic.Int64
	released sync.Once
}

func newCellGate(at float64) *cellGate {
	return &cellGate{at: at, reached: make(chan struct{}), release: make(chan struct{})}
}

func (g *cellGate) hook(ctx context.Context, x float64) {
	if ctx.Err() != nil {
		g.late.Add(1)
	}
	if x != g.at {
		return
	}
	g.once.Do(func() { close(g.reached) })
	select {
	case <-ctx.Done():
	case <-g.release:
	}
}

func (g *cellGate) open() { g.released.Do(func() { close(g.release) }) }

// wait blocks until the gated cell is running.
func (g *cellGate) wait(t *testing.T) {
	t.Helper()
	select {
	case <-g.reached:
	case <-time.After(10 * time.Second):
		t.Fatal("sweep never reached the gated cell")
	}
}

// maxLateCells bounds the cells a cancelled sweep may still run: each
// worker stops within one context-poll interval of 16 cells.
func maxLateCells() int64 { return int64(16 * core.MaxWorkers()) }

// TestSweepCancellationFreesSlotAndCache is the acceptance-criteria
// cancellation test: a sweep held mid-grid whose client disconnects must
// stop promptly (worker slot freed, in-flight gauge back to zero) and
// must not poison the cache — the next request for the same key
// re-solves.
func TestSweepCancellationFreesSlotAndCache(t *testing.T) {
	s := New(Options{MaxGridCells: 65536})
	gate := newCellGate(200_000 + 16384)
	s.cellHook = gate.hook
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	defer gate.open()

	inflight := s.Registry().Gauge("serve.inflight")
	body := slowSweepBody(32768)

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/v1/sweep", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			err = fmt.Errorf("sweep completed with status %d, expected client-side cancellation", resp.StatusCode)
		}
		errc <- err
	}()

	// Wait until the solve is held mid-grid, then pull the plug.
	gate.wait(t)
	if g := inflight.Value(); g < 1 {
		t.Fatalf("inflight gauge = %v while the sweep is held, want >= 1", g)
	}
	start := time.Now()
	cancel()
	if err := <-errc; !strings.Contains(err.Error(), "context canceled") {
		t.Fatalf("client error = %v, want context canceled", err)
	}

	// The solver must notice within a poll interval per worker, not
	// after the remaining half of the grid.
	waitFor(t, 2*time.Second, func() bool { return inflight.Value() == 0 })
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("cancellation took %v end to end; the sweep likely ran to completion", elapsed)
	}
	if n := gate.late.Load(); n > maxLateCells() {
		t.Errorf("%d cells ran after cancellation, want at most %d", n, maxLateCells())
	}
	if n := s.CacheLen(); n != 0 {
		t.Errorf("cache holds %d entries after a cancelled solve, want 0", n)
	}

	// The server is healthy and the key is not poisoned: a short sweep
	// (same shape, tiny grid) solves fresh and succeeds.
	resp, err := http.Post(srv.URL+"/v1/sweep", "application/json", strings.NewReader(slowSweepBody(2)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-cancellation sweep: status %d", resp.StatusCode)
	}
}

// TestShutdownCancelsOrphanedSolve verifies the drain contract: once the
// drain deadline passes, Shutdown cancels the base context and a solve
// orphaned mid-grid stops instead of burning CPU to completion.
func TestShutdownCancelsOrphanedSolve(t *testing.T) {
	// httptest's server doesn't route request contexts through
	// serve.Server's base context, so run the real Serve/Shutdown pair
	// on an ephemeral listener.
	s := New(Options{MaxGridCells: 65536})
	gate := newCellGate(200_000 + 16384)
	s.cellHook = gate.hook
	defer gate.open()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l) //nolint:errcheck // exits via Shutdown

	inflight := s.Registry().Gauge("serve.inflight")
	url := "http://" + l.Addr().String() + "/v1/sweep"
	errc := make(chan error, 1)
	go func() {
		resp, err := http.Post(url, "application/json", strings.NewReader(slowSweepBody(32768)))
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	gate.wait(t)
	if g := inflight.Value(); g < 1 {
		t.Fatalf("inflight gauge = %v while the sweep is held, want >= 1", g)
	}

	// Drain window far shorter than the held sweep: Shutdown must time
	// out, cancel the base context, and the solve must wind down.
	sctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(sctx); err != context.DeadlineExceeded {
		t.Fatalf("Shutdown = %v, want DeadlineExceeded (drain shorter than sweep)", err)
	}
	waitFor(t, 2*time.Second, func() bool { return inflight.Value() == 0 })
	<-errc // client saw the 503 or a connection reset; either way it returned
	if n := gate.late.Load(); n > maxLateCells() {
		t.Errorf("%d cells ran after the base context was cancelled, want at most %d", n, maxLateCells())
	}
	if n := s.CacheLen(); n != 0 {
		t.Errorf("cache holds %d entries after shutdown-cancelled solve, want 0", n)
	}
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("condition not met within %v", timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
