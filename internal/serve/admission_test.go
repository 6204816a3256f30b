package serve

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/placer"
	"repro/internal/sim"
)

// TestInflightShed pins the hard backpressure valve: with MaxInflight=1
// and one request parked inside its forward pass, concurrent arrivals
// are shed with ErrOverloaded and counted, and a request after the load
// drops is served normally.
func TestInflightShed(t *testing.T) {
	s := gen.Small()
	graphs := s.Generate().Test[:3]
	reg := obs.NewRegistry()
	svc := newTestService(t, Options{
		Model:       core.New(core.DefaultConfig()),
		Registry:    reg,
		CacheSize:   -1,
		MaxInflight: 1,
	})

	// Park the first request inside the forward pass.
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	svc.beforeForward = func() {
		once.Do(func() {
			close(entered)
			<-release
		})
	}
	done := make(chan error, 1)
	go func() {
		_, err := svc.Allocate(graphs[0], s.Cluster)
		done <- err
	}()
	<-entered

	// The parked request holds serve_inflight at 1, so new forwards are
	// denied at admission.
	if _, err := svc.Allocate(graphs[1], s.Cluster); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("second request: %v, want ErrOverloaded", err)
	}
	if got := reg.Counter("serve_shed_total").Value(); got != 1 {
		t.Fatalf("serve_shed_total = %d, want 1", got)
	}
	// Sheds are not errors: the error counter stays untouched.
	if got := reg.Counter("serve_errors_total").Value(); got != 0 {
		t.Fatalf("serve_errors_total = %d, want 0", got)
	}

	close(release)
	if err := <-done; err != nil {
		t.Fatalf("parked request failed: %v", err)
	}
	if _, err := svc.Allocate(graphs[2], s.Cluster); err != nil {
		t.Fatalf("post-recovery request: %v", err)
	}
}

// TestSLOShedLatch steps the SLO controller deterministically: a p99
// breach latches shed mode on (breach counter, gauge), the latch holds
// through a single healthy check (hysteresis), and unlatches after the
// required streak once the window empties.
func TestSLOShedLatch(t *testing.T) {
	s := gen.Small()
	g := s.Generate().Test[0]
	reg := obs.NewRegistry()
	svc := newTestService(t, Options{
		Model:     core.New(core.DefaultConfig()),
		Registry:  reg,
		CacheSize: -1,
		SLOP99MS:  50,
		SLOWindow: 200 * time.Millisecond,
		sloEvery:  time.Hour, // background checker stays out of the way
	})

	// Feed the window latencies far past the objective and step the
	// controller.
	for i := 0; i < 20; i++ {
		svc.latQ.Observe(500)
	}
	svc.evalSLO()
	if !svc.ShedMode() {
		t.Fatal("p99 breach did not latch shed mode")
	}
	if got := reg.Counter("serve_slo_breach_total").Value(); got != 1 {
		t.Fatalf("serve_slo_breach_total = %d, want 1", got)
	}
	if got := reg.Gauge("serve_shed_mode").Value(); got != 1 {
		t.Fatalf("serve_shed_mode = %v, want 1", got)
	}

	// Shed mode denies forwards even though inflight is 0.
	if _, err := svc.Allocate(g, s.Cluster); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("Allocate under shed mode: %v, want ErrOverloaded", err)
	}

	// Let the slow samples rotate out of the window, then step the
	// controller: one healthy check must NOT unlatch (hysteresis), the
	// second must.
	time.Sleep(300 * time.Millisecond)
	svc.evalSLO()
	if !svc.ShedMode() {
		t.Fatal("latch released after a single healthy check")
	}
	svc.evalSLO()
	if svc.ShedMode() {
		t.Fatal("latch held past the recovery streak")
	}
	if got := reg.Gauge("serve_shed_mode").Value(); got != 0 {
		t.Fatalf("serve_shed_mode = %v after recovery, want 0", got)
	}
	if _, err := svc.Allocate(g, s.Cluster); err != nil {
		t.Fatalf("post-recovery Allocate: %v", err)
	}
}

// TestServeQuantilesObserved pins that the registry's windowed
// estimators see serving traffic: latency per request, queue wait per
// forward pass.
func TestServeQuantilesObserved(t *testing.T) {
	s := gen.Small()
	g := s.Generate().Test[0]
	reg := obs.NewRegistry()
	svc := newTestService(t, Options{Model: core.New(core.DefaultConfig()), Registry: reg})
	if _, err := svc.Allocate(g, s.Cluster); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Allocate(g, s.Cluster); err != nil { // cache hit
		t.Fatal(err)
	}
	if got := svc.LatencyQuantiles().Count; got != 2 {
		t.Fatalf("latency quantile saw %d samples, want 2 (cold + cached)", got)
	}
	if got := svc.QueueWaitQuantiles().Count; got != 1 {
		t.Fatalf("queue-wait quantile saw %d samples, want 1 (cold only)", got)
	}
	if p := svc.LatencyQuantiles().Values; len(p) != len(obs.DefaultObjectives) || p[len(p)-1] <= 0 {
		t.Fatalf("latency p99 = %v, want > 0", p)
	}
	snap := reg.Snapshot()
	if len(snap.Quantiles) != 2 {
		t.Fatalf("registry snapshot carries %d quantile estimators, want 2", len(snap.Quantiles))
	}
}

// TestTracedRequestSpans pins request-scoped tracing end to end at the
// service layer: a traced context yields cache-probe, queue-wait, and
// forward spans tagged with the request's trace id.
func TestTracedRequestSpans(t *testing.T) {
	s := gen.Small()
	g := s.Generate().Test[0]
	tr := obs.NewTracer()
	svc := newTestService(t, Options{Model: core.New(core.DefaultConfig()), Tracer: tr})

	const id = "deadbeefdeadbeefdeadbeef"
	if _, err := svc.AllocateCtx(WithTraceID(context.Background(), id), g, s.Cluster); err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"cache-probe": false, "queue-wait": false, "forward": false}
	for _, ev := range tr.Events() {
		if _, ok := want[ev.Name]; ok && ev.Args["trace_id"] == id {
			want[ev.Name] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Fatalf("span %q with trace_id %q missing from trace: %+v", name, id, tr.Events())
		}
	}
}

// TestInstrumentedServeBitIdentical pins the PR 5 invariant on the
// serving path: full instrumentation (tracer, quantiles, SLO checker,
// access-path trace ids) must not perturb the bit-identical inference —
// served placements and rewards equal the offline pipeline's.
func TestInstrumentedServeBitIdentical(t *testing.T) {
	s := gen.Small()
	model := core.New(core.DefaultConfig())
	pipe := &core.Pipeline{Model: model, Placer: placer.Metis{Seed: 1}}
	svc := newTestService(t, Options{
		Model:     model,
		Tracer:    obs.NewTracer(),
		Registry:  obs.NewRegistry(),
		SLOP99MS:  1e9, // checker runs but never sheds
		SLOWindow: time.Second,
	})
	for gi, g := range s.Generate().Test[:4] {
		offline := pipe.Allocate(g, s.Cluster)
		got, err := svc.AllocateCtx(WithTraceID(context.Background(), MintTraceID()), g, s.Cluster)
		if err != nil {
			t.Fatal(err)
		}
		samePlacement(t, "instrumented", offline.Placement.Assign, got.Assign)
		if math.Float64bits(got.Relative) != math.Float64bits(sim.Reward(g, offline.Placement, s.Cluster)) {
			t.Fatalf("graph %d: instrumented reward drifted", gi)
		}
	}
}
