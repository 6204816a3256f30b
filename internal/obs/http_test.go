package obs

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestMetricsRoundTrip scrapes /metrics over a real HTTP round-trip and
// checks the Prometheus exposition carries the registry's state.
func TestMetricsRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("train_steps_total").Add(42)
	reg.Gauge("epoch_reward").Set(0.875)
	h := reg.Histogram("phase_ms", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(50)

	srv := httptest.NewServer(Handler(reg))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content-type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	for _, want := range []string{
		"# TYPE train_steps_total counter",
		"train_steps_total 42",
		"# TYPE epoch_reward gauge",
		"epoch_reward 0.875",
		"# TYPE phase_ms histogram",
		`phase_ms_bucket{le="1"} 1`,
		`phase_ms_bucket{le="+Inf"} 2`,
		"phase_ms_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, out)
		}
	}
}

// TestDebugVars checks /debug/vars serves expvar JSON including the
// registry snapshot under "obs".
func TestDebugVars(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("vars_probe_total").Add(7)

	srv := httptest.NewServer(Handler(reg))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var vars struct {
		Cmdline  []string `json:"cmdline"`
		Memstats any      `json:"memstats"`
		Obs      Snapshot `json:"obs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
	if vars.Memstats == nil {
		t.Fatal("expvar memstats missing")
	}
	found := false
	for _, c := range vars.Obs.Counters {
		if c.Name == "vars_probe_total" && c.Value == 7 {
			found = true
		}
	}
	if !found {
		t.Fatalf("registry snapshot missing from /debug/vars: %+v", vars.Obs)
	}
}

// TestServeLifecycle starts a live listener on :0, scrapes it, and shuts
// it down — the exact path `coarsenrl -listen :0` exercises.
func TestServeLifecycle(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("live_total").Inc()
	srv, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.Addr() == "" {
		t.Fatal("no bound address")
	}
	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "live_total 1") {
		t.Fatalf("live scrape missing counter:\n%s", body)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestShutdownDrainsInFlight pins graceful shutdown: a request already in
// the handler when Shutdown starts must complete with a full response
// rather than a dropped connection.
func TestShutdownDrainsInFlight(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("/slow", func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
		io.WriteString(w, "drained")
	})
	srv, err := ServeHandler("127.0.0.1:0", mux)
	if err != nil {
		t.Fatal(err)
	}

	type result struct {
		body string
		err  error
	}
	got := make(chan result, 1)
	go func() {
		resp, err := http.Get("http://" + srv.Addr() + "/slow")
		if err != nil {
			got <- result{err: err}
			return
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		got <- result{body: string(body), err: err}
	}()

	<-entered
	shutDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutDone <- srv.Shutdown(ctx)
	}()
	// Shutdown must be blocked on the in-flight request, not killing it.
	select {
	case err := <-shutDone:
		t.Fatalf("Shutdown returned (%v) while a request was in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-shutDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	r := <-got
	if r.err != nil || r.body != "drained" {
		t.Fatalf("in-flight request dropped: body=%q err=%v", r.body, r.err)
	}
	// Idempotent: a second shutdown returns the same (nil) outcome.
	if err := srv.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestShutdownDeadline pins the escape hatch: when the drain deadline
// expires with a request still in flight, Shutdown hard-closes and
// returns the deadline error instead of hanging.
func TestShutdownDeadline(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	entered := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("/stuck", func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		select {
		case <-release:
		case <-r.Context().Done():
		}
	})
	srv, err := ServeHandler("127.0.0.1:0", mux)
	if err != nil {
		t.Fatal(err)
	}
	go http.Get("http://" + srv.Addr() + "/stuck")
	<-entered
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); err == nil {
		t.Fatal("Shutdown should report the expired drain deadline")
	}
}

// TestServeErrSurfaced pins that a failed accept loop is observable: after
// the listener is yanked out from under the server, Err reports the
// failure instead of discarding it.
func TestServeErrSurfaced(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Err(); err != nil {
		t.Fatalf("healthy server reports error: %v", err)
	}
	srv.ln.Close() // simulate the accept loop dying
	deadline := time.After(2 * time.Second)
	for srv.Err() == nil {
		select {
		case <-deadline:
			t.Fatal("accept-loop failure never surfaced via Err")
		case <-time.After(5 * time.Millisecond):
		}
	}
	// Err stays sticky through Shutdown.
	if err := srv.Close(); err == nil {
		t.Fatal("Close should surface the serve error")
	}
}

// TestServeCutsOffStalledHeaders checks that a client stalling inside
// its request headers loses its connection once readHeaderTimeout
// passes, and that idle keep-alive connections are kept two minutes.
func TestServeCutsOffStalledHeaders(t *testing.T) {
	defer func(d time.Duration) { readHeaderTimeout = d }(readHeaderTimeout)
	readHeaderTimeout = 50 * time.Millisecond
	srv, err := ServeHandler("127.0.0.1:0", http.NotFoundHandler())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.srv.IdleTimeout < 2*time.Minute {
		t.Fatalf("IdleTimeout %v, want at least 2m", srv.srv.IdleTimeout)
	}
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	io.WriteString(conn, "GET /metrics HTTP/1.1\r\nHost: x\r\n")
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	_, err = conn.Read(make([]byte, 1))
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("a client stalled inside its headers kept its connection for 2s")
	}
	if err == nil {
		t.Fatal("the server answered headers that never ended")
	}
}
