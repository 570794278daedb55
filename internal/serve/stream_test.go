package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// streamRequest POSTs a sweep negotiated to NDJSON and returns the
// response; the caller reads lines from resp.Body as they arrive.
func streamRequest(t *testing.T, ctx context.Context, url, body string) *http.Response {
	t.Helper()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/sweep", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", "application/x-ndjson")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestSweepStreamE2E is the streaming acceptance test: a ≥10k-cell
// exact-chain sweep streams its first row while the grid is still
// solving (its last cell is held by a gate), delivers every point in
// ascending x order, and the streamed rows reassemble byte-for-byte into
// the buffered JSON body.
func TestSweepStreamE2E(t *testing.T) {
	const n = 10_000
	s := New(Options{MaxGridCells: 20000})
	gate := newCellGate(200_000 + n - 1)
	s.cellHook = gate.hook
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	defer gate.open()
	inflight := s.Registry().Gauge("serve.inflight")

	body := slowSweepBody(n)
	resp := streamRequest(t, context.Background(), srv.URL, body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q, want application/x-ndjson", ct)
	}

	br := bufio.NewReader(resp.Body)
	readLine := func() string {
		t.Helper()
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("stream read: %v", err)
		}
		return strings.TrimSuffix(line, "\n")
	}

	var hdr streamHeader
	if err := json.Unmarshal([]byte(readLine()), &hdr); err != nil {
		t.Fatalf("header line: %v", err)
	}
	if hdr.Parameter != "drive_mttf_hours" || hdr.Method != "exact-chain" || hdr.Points != n {
		t.Fatalf("header = %+v", hdr)
	}

	// First row must arrive while the remaining grid is still solving:
	// the solve slot is held and nothing is cached yet.
	first := readLine()
	if g := inflight.Value(); g < 1 {
		t.Errorf("inflight gauge = %v after first row, want >= 1 (grid finished before first row?)", g)
	}
	if c := s.CacheLen(); c != 0 {
		t.Errorf("cache holds %d entries mid-stream, want 0", c)
	}
	gate.open()

	rows := []string{first}
	lastX := -1.0
	for len(rows) < n {
		rows = append(rows, readLine())
	}
	for i, row := range rows {
		var pt SweepPointResponse
		if err := json.Unmarshal([]byte(row), &pt); err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		if pt.X <= lastX {
			t.Fatalf("row %d x=%v not ascending after %v", i, pt.X, lastX)
		}
		lastX = pt.X
	}
	var tail streamTrailer
	if err := json.Unmarshal([]byte(readLine()), &tail); err != nil {
		t.Fatalf("trailer: %v", err)
	}
	if !tail.Done || tail.Points != n {
		t.Fatalf("trailer = %+v, want done with %d points", tail, n)
	}
	if _, err := br.ReadString('\n'); err != io.EOF {
		t.Fatalf("stream continues past trailer: %v", err)
	}

	// A completed stream fills the cache with the buffered body...
	if c := s.CacheLen(); c != 1 {
		t.Fatalf("cache holds %d entries after stream, want 1", c)
	}
	bresp, err := http.Post(srv.URL+"/v1/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	buffered, err := io.ReadAll(bresp.Body)
	bresp.Body.Close()
	if err != nil || bresp.StatusCode != http.StatusOK {
		t.Fatalf("buffered sweep: status %d, err %v", bresp.StatusCode, err)
	}

	// ...and the streamed rows reassemble byte-for-byte into it.
	reassembled := fmt.Sprintf(`{"parameter":%q,"method":%q,"points":[%s]}`,
		hdr.Parameter, hdr.Method, strings.Join(rows, ","))
	if reassembled != string(buffered) {
		t.Error("reassembled stream differs from buffered body")
	}

	// Independent check against a fresh server (no shared cache): the
	// buffered body of a from-scratch solve matches too.
	s2 := New(Options{MaxGridCells: 20000})
	srv2 := httptest.NewServer(s2.Handler())
	defer srv2.Close()
	fresp, err := http.Post(srv2.URL+"/v1/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := io.ReadAll(fresp.Body)
	fresp.Body.Close()
	if err != nil || fresp.StatusCode != http.StatusOK {
		t.Fatalf("fresh buffered sweep: status %d, err %v", fresp.StatusCode, err)
	}
	if string(fresh) != reassembled {
		t.Error("reassembled stream differs from an independent buffered solve")
	}
}

// TestSweepStreamClientKillMidStream kills the client after the first
// row: the solve must stop promptly (slot freed, gauge back to zero)
// and the partial grid must not be cached.
func TestSweepStreamClientKillMidStream(t *testing.T) {
	s := New(Options{MaxGridCells: 65536})
	gate := newCellGate(200_000 + 16384)
	s.cellHook = gate.hook
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	defer gate.open()
	inflight := s.Registry().Gauge("serve.inflight")
	aborts := s.Registry().Counter("serve.stream.aborted")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	resp := streamRequest(t, ctx, srv.URL, slowSweepBody(32768))
	defer resp.Body.Close()

	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadString('\n'); err != nil { // header
		t.Fatalf("header: %v", err)
	}
	if _, err := br.ReadString('\n'); err != nil { // first row
		t.Fatalf("first row: %v", err)
	}
	gate.wait(t) // the grid is still running: its middle cell is held
	cancel()

	waitFor(t, 5*time.Second, func() bool { return inflight.Value() == 0 })
	if n := gate.late.Load(); n > maxLateCells() {
		t.Errorf("%d cells ran after the client left, want at most %d", n, maxLateCells())
	}
	if n := s.CacheLen(); n != 0 {
		t.Errorf("cache holds %d entries after killed stream, want 0", n)
	}
	waitFor(t, 2*time.Second, func() bool { return aborts.Value() >= 1 })

	// The key is not poisoned: a small sweep on the same server works.
	ok, err := http.Post(srv.URL+"/v1/sweep", "application/json", strings.NewReader(slowSweepBody(2)))
	if err != nil {
		t.Fatal(err)
	}
	ok.Body.Close()
	if ok.StatusCode != http.StatusOK {
		t.Fatalf("post-kill sweep status = %d", ok.StatusCode)
	}
}

// TestSweepStreamCachedReplay: a sweep buffered first is replayed to a
// streaming client from cache, row-for-row identical, without solving.
func TestSweepStreamCachedReplay(t *testing.T) {
	s := New(Options{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	solves := s.Registry().Counter("serve.solves")

	body := slowSweepBody(16)
	bresp, err := http.Post(srv.URL+"/v1/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	buffered, _ := io.ReadAll(bresp.Body)
	bresp.Body.Close()
	if bresp.StatusCode != http.StatusOK {
		t.Fatalf("buffered status %d", bresp.StatusCode)
	}
	solved := solves.Value()

	resp := streamRequest(t, context.Background(), srv.URL, body)
	defer resp.Body.Close()
	lines := strings.Split(strings.TrimSuffix(readAll(t, resp.Body), "\n"), "\n")
	if got := solves.Value(); got != solved {
		t.Errorf("cached replay ran %v extra solves", got-solved)
	}
	if len(lines) != 16+2 {
		t.Fatalf("replay emitted %d lines, want 18", len(lines))
	}
	var decoded SweepResponse
	if err := json.Unmarshal(buffered, &decoded); err != nil {
		t.Fatal(err)
	}
	reassembled := fmt.Sprintf(`{"parameter":%q,"method":%q,"points":[%s]}`,
		decoded.Parameter, decoded.Method, strings.Join(lines[1:len(lines)-1], ","))
	if reassembled != string(buffered) {
		t.Error("replayed rows differ from the buffered body")
	}
}

// TestSweepStreamErrorTrailer: a grid that fails mid-sweep ends the
// stream with a done:false trailer carrying the sweep error, and caches
// nothing.
func TestSweepStreamErrorTrailer(t *testing.T) {
	s := New(Options{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	body := `{"configs":[{"internal":"none","ft":2}],
		"method":"exact-chain",
		"parameter":"node_set_size",
		"values":[64, 2]}`
	resp := streamRequest(t, context.Background(), srv.URL, body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status = %d (errors after first byte are in-band)", resp.StatusCode)
	}
	lines := strings.Split(strings.TrimSuffix(readAll(t, resp.Body), "\n"), "\n")
	var tail streamTrailer
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &tail); err != nil {
		t.Fatalf("trailer: %v", err)
	}
	if tail.Done {
		t.Fatalf("trailer = %+v, want done:false", tail)
	}
	if !strings.Contains(tail.Error, "core: sweep at x=2") {
		t.Errorf("trailer error = %q, want the failing cell's core error", tail.Error)
	}
	if n := s.CacheLen(); n != 0 {
		t.Errorf("cache holds %d entries after failed stream, want 0", n)
	}
}

func readAll(t *testing.T, r io.Reader) string {
	t.Helper()
	b, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
