// Package serve is the allocation-as-a-service layer: a long-running
// inference service answering "stream graph spec → placement" at high QPS
// over the trained coarsening model.
//
// Each request's features run through the model's one forward pass —
// the EdgeProbs tape that training records, on a pooled binder bound to
// the pinned parameter snapshot (core.Model.ProbsInto) — so a served
// placement equals the offline Pipeline.Allocate placement for the same
// parameters by construction; tests pin it end to end.
//
// Three mechanisms shape the service:
//
//   - One forward pass at a time: each cache miss builds its features
//     and runs its own pass on its own goroutine, under one mutex. The
//     lock keeps the daemon at one tape's arena buffers; measured
//     traffic gave a coalescing window nothing to stack (DESIGN.md §13).
//   - Caching: a bounded generic LRU (internal/cache) keyed by the
//     canonical request fingerprint returns repeat placements without
//     touching the model. The cache is cleared on model reload.
//   - Hot swap: the model is served through nn.Snapshot versions behind
//     an atomic pointer. Reload loads new parameters, captures a fresh
//     snapshot, and swaps the pointer; requests already in flight finish
//     on the snapshot they captured at arrival.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/gnn"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/placer"
	"repro/internal/sim"
	"repro/internal/stream"
)

// ErrClosed is returned by Allocate after Close.
var ErrClosed = errors.New("serve: service closed")

// Options configures a Service.
type Options struct {
	// Model is the coarsening model to serve (required). The service
	// captures a snapshot at construction; later parameter mutations are
	// invisible until Reload.
	Model *core.Model
	// Placer partitions the coarse graph (default placer.Metis{Seed: 1},
	// the paper's best configuration).
	Placer placer.Placer
	// CacheSize bounds the placement LRU (default 4096 entries; <0
	// disables caching).
	CacheSize int
	// Registry receives serve metrics (default obs.Default).
	Registry *obs.Registry
	// Tracer, when set, receives request-scoped child spans
	// (cache-probe, queue-wait, forward) tagged with each request's
	// trace id. Nil disables span emission entirely — the hot path then
	// takes no extra timestamps.
	Tracer *obs.Tracer
	// MaxInflight sheds cache-missing requests once more than this many
	// requests are in flight (0 = unbounded).
	MaxInflight int
	// SLOP99MS is the serve-latency p99 objective in milliseconds; when
	// the windowed p99 breaches it, shed mode latches on until the p99
	// recovers with hysteresis (0 = no SLO shedding).
	SLOP99MS float64
	// SLOWindow is the lookback of the latency/queue-wait quantile
	// estimators (default 30s).
	SLOWindow time.Duration

	// sloEvery overrides the SLO checker period (tests; default 250ms).
	sloEvery time.Duration
}

// Result is one served allocation.
type Result struct {
	// Assign maps each operator to a device.
	Assign []int
	// Devices is the cluster size the placement targets.
	Devices int
	// NumSuper is the coarse super-node count behind the placement.
	NumSuper int
	// Relative is the simulated relative throughput of the placement.
	Relative float64
	// Cached reports whether the placement came from the LRU.
	Cached bool
	// ModelVersion identifies the snapshot that computed the placement
	// (starts at 1, +1 per reload).
	ModelVersion uint64
	// Fingerprint is the canonical request identity (zero when caching
	// is disabled and no fingerprint was computed).
	Fingerprint Fingerprint
}

// modelVersion pins one immutable parameter snapshot.
type modelVersion struct {
	id   uint64
	snap *nn.Snapshot
}

// Service is a concurrent allocation server over one model.
type Service struct {
	model *core.Model
	pipe  *core.Pipeline

	version  atomic.Pointer[modelVersion]
	reloadMu sync.Mutex // serializes Reload; guards model.PS mutation

	cache *cache.LRU[Fingerprint, *Result]

	fwdMu  sync.Mutex // held across one forward pass
	closed atomic.Bool
	wg     sync.WaitGroup
	stopBG chan struct{} // closed on Close; stops the QPS sampler and SLO checker

	start  time.Time
	tracer *obs.Tracer

	// Admission control (admission.go). belowStreak is owned by the SLO
	// checker goroutine; sloShed is the latch the request path reads.
	maxInflight int
	sloP99      float64
	sloEvery    time.Duration
	sloShed     atomic.Bool
	belowStreak int

	// beforeForward, when set (tests), runs under the forward lock just
	// before each forward pass — the hook that lets the hot-swap test
	// hold an in-flight request across a Reload.
	beforeForward func()

	reqs      *obs.Counter
	errs      *obs.Counter
	reloads   *obs.Counter
	shedTotal *obs.Counter
	sloBreach *obs.Counter
	inflight  *obs.Gauge
	verG      *obs.Gauge
	qps       *obs.Gauge
	shedGauge *obs.Gauge
	latency   *obs.Histogram
	latQ      *obs.Quantile
	queueQ    *obs.Quantile
}

// New starts a service over opts.Model with a QPS sampler (and an SLO
// checker when SLOP99MS is set). Callers must Close it.
func New(opts Options) (*Service, error) {
	if opts.Model == nil {
		return nil, fmt.Errorf("serve: Options.Model is required")
	}
	if opts.Placer == nil {
		opts.Placer = placer.Metis{Seed: 1}
	}
	if opts.CacheSize == 0 {
		opts.CacheSize = 4096
	}
	reg := opts.Registry
	if reg == nil {
		reg = obs.Default
	}
	if opts.sloEvery <= 0 {
		opts.sloEvery = defaultSLOEvery
	}
	qOpts := obs.QuantileOpts{Window: opts.SLOWindow}
	s := &Service{
		model:       opts.Model,
		pipe:        &core.Pipeline{Model: opts.Model, Placer: opts.Placer},
		stopBG:      make(chan struct{}),
		start:       time.Now(),
		tracer:      opts.Tracer,
		maxInflight: opts.MaxInflight,
		sloP99:      opts.SLOP99MS,
		sloEvery:    opts.sloEvery,
		reqs:        reg.Counter("serve_requests_total"),
		errs:        reg.Counter("serve_errors_total"),
		reloads:     reg.Counter("serve_reloads_total"),
		shedTotal:   reg.Counter("serve_shed_total"),
		sloBreach:   reg.Counter("serve_slo_breach_total"),
		inflight:    reg.Gauge("serve_inflight"),
		verG:        reg.Gauge("serve_model_version"),
		qps:         reg.Gauge("serve_qps"),
		shedGauge:   reg.Gauge("serve_shed_mode"),
		latency: reg.Histogram("serve_latency_ms",
			[]float64{0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 1000}),
		latQ:   reg.Quantile("serve_latency_quantiles_ms", qOpts),
		queueQ: reg.Quantile("serve_queue_wait_ms", qOpts),
	}
	if opts.CacheSize > 0 {
		s.cache = cache.New[Fingerprint, *Result](opts.CacheSize)
		s.cache.Instrument(reg.Counter("serve_cache_hits_total"), reg.Counter("serve_cache_misses_total"))
	}
	s.version.Store(&modelVersion{id: 1, snap: nn.NewSnapshot(opts.Model.PS)})
	s.verG.Set(1)

	s.wg.Add(1)
	go s.sampleQPS()
	if s.sloP99 > 0 {
		s.wg.Add(1)
		go s.sloLoop()
	}
	return s, nil
}

// Close makes later cache misses fail with ErrClosed and stops the
// background goroutines; a request already past that check finishes.
// Idempotent.
func (s *Service) Close() {
	if s.closed.Swap(true) {
		return
	}
	close(s.stopBG)
	s.wg.Wait()
}

// Uptime is how long the service has been running.
func (s *Service) Uptime() time.Duration { return time.Since(s.start) }

// LatencyQuantiles snapshots the windowed serve-latency estimator.
func (s *Service) LatencyQuantiles() obs.QuantileSnapshot { return s.latQ.SnapshotQuantile() }

// QueueWaitQuantiles snapshots the windowed queue-wait estimator.
func (s *Service) QueueWaitQuantiles() obs.QuantileSnapshot { return s.queueQ.SnapshotQuantile() }

// Version returns the current model snapshot id.
func (s *Service) Version() uint64 { return s.version.Load().id }

// CacheLen returns the number of cached placements.
func (s *Service) CacheLen() int {
	if s.cache == nil {
		return 0
	}
	return s.cache.Len()
}

// Reload swaps in a new model version: when path is non-empty the live
// parameters are replaced from the checkpoint first (nn.LoadParams
// validates fully before mutating), then a fresh snapshot is captured and
// becomes the serving version, and the placement cache is cleared
// (placements depend on the parameters). In-flight requests finish on the
// snapshot they captured at arrival; only requests arriving after Reload
// returns see the new version.
func (s *Service) Reload(path string) error {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	if path != "" {
		if err := nn.LoadParams(s.model.PS, path); err != nil {
			return err
		}
	}
	next := &modelVersion{id: s.version.Load().id + 1, snap: nn.NewSnapshot(s.model.PS)}
	s.version.Store(next)
	if s.cache != nil {
		s.cache.Clear()
	}
	s.reloads.Inc()
	s.verG.Set(float64(next.id))
	return nil
}

// AllocateCtx serves one placement. The graph must be valid (the HTTP
// layer validates specs; programmatic callers are trusted) and have at
// least one edge. Safe for concurrent use. The context is a carrier, not
// a cancellation signal — an admitted request always completes — but a
// trace id placed in it via WithTraceID tags every child span this
// request emits into the service's tracer.
func (s *Service) AllocateCtx(ctx context.Context, g *stream.Graph, c sim.Cluster) (Result, error) {
	start := time.Now()
	s.reqs.Inc()
	s.inflight.Add(1)
	defer func() {
		s.inflight.Add(-1)
		ms := float64(time.Since(start)) / float64(time.Millisecond)
		s.latency.Observe(ms)
		s.latQ.Observe(ms)
	}()
	traceID := TraceIDFrom(ctx)

	var fp Fingerprint
	if s.cache != nil {
		probeT0 := start
		if s.tracer != nil {
			probeT0 = time.Now()
		}
		fp = FingerprintRequest(g, c)
		r, ok := s.cache.Get(fp)
		s.emitSpan("cache-probe", laneRequest, probeT0, traceID)
		if ok {
			out := *r
			out.Assign = append([]int(nil), r.Assign...)
			out.Cached = true
			return out, nil
		}
	}

	// Cache hits above bypass admission — they cost ~1µs and relieve
	// load; only work that needs the model can be shed.
	if err := s.admit(); err != nil {
		return Result{}, err
	}
	if s.closed.Load() {
		s.errs.Inc()
		return Result{}, ErrClosed
	}
	// The features, the sweep and the reported reward all read g's
	// demands: propagate the rates once, after the cache had its chance.
	g = g.PinDemands()
	ver := s.version.Load()
	probs, err := s.forward(ver.snap, gnn.BuildFeatures(g, c), traceID)
	if err != nil {
		s.errs.Inc()
		return Result{}, err
	}

	a := s.pipe.AllocateRanked(g, c, probs)
	res := Result{
		Assign:       a.Placement.Assign,
		Devices:      a.Placement.Devices,
		NumSuper:     a.Coarse.NumSuper,
		Relative:     sim.Reward(g, a.Placement, c),
		ModelVersion: ver.id,
		Fingerprint:  fp,
	}
	if s.cache != nil {
		stored := res
		stored.Assign = append([]int(nil), res.Assign...)
		s.cache.Put(fp, &stored)
	}
	return res, nil
}

// Trace lanes: request-side spans on 0, forward passes on 1 (the forward
// lock keeps lane 1 free of overlapping spans).
const (
	laneRequest = 0
	laneForward = 1
)

// emitSpan records one completed span tagged with the request's trace
// id. No-op when the service has no tracer.
func (s *Service) emitSpan(name string, lane int, t0 time.Time, traceID string) {
	if s.tracer == nil {
		return
	}
	var args map[string]string
	if traceID != "" {
		args = map[string]string{"trace_id": traceID}
	}
	s.tracer.EmitArgs(name, lane, t0, time.Since(t0), args)
}

// forward computes f's merge probabilities on snap under the forward
// lock. The wait for the lock is the request's queue wait. A panicking
// pass fails only its own request.
func (s *Service) forward(snap *nn.Snapshot, f *gnn.Features, traceID string) (probs []float64, err error) {
	t0 := time.Now()
	s.fwdMu.Lock()
	defer s.fwdMu.Unlock()
	s.queueQ.Observe(float64(time.Since(t0)) / float64(time.Millisecond))
	s.emitSpan("queue-wait", laneRequest, t0, traceID)
	defer func() {
		if r := recover(); r != nil {
			probs, err = nil, fmt.Errorf("serve: forward pass panicked: %v", r)
		}
	}()
	if s.beforeForward != nil {
		s.beforeForward()
	}
	var fwdT0 time.Time
	if s.tracer != nil {
		fwdT0 = time.Now()
	}
	probs = make([]float64, f.Edge.Rows)
	s.model.ProbsInto(snap, f, probs)
	s.emitSpan("forward", laneForward, fwdT0, traceID)
	return probs, nil
}

// sampleQPS refreshes the serve_qps gauge once per second from the
// request counter.
func (s *Service) sampleQPS() {
	defer s.wg.Done()
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	last := s.reqs.Value()
	for {
		select {
		case <-s.stopBG:
			return
		case <-tick.C:
			cur := s.reqs.Value()
			s.qps.Set(float64(cur - last))
			last = cur
		}
	}
}
