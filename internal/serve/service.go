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
// Three mechanisms carry the throughput:
//
//   - Batching: concurrent requests arriving within a small window are
//     stacked into one block-diagonal forward pass. Every forward kernel
//     is row-local (matmul rows, gathers, per-segment means over each
//     node's own edges), so the batched rows are bit-identical to solo
//     runs — batching is invisible in the outputs.
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
	"repro/internal/tensor"
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
	// BatchWindow is how long the batcher waits for more requests after
	// the first one arrives (default 200µs; <0 disables coalescing).
	BatchWindow time.Duration
	// MaxBatch caps one batched forward pass (default 16).
	MaxBatch int
	// Registry receives serve metrics (default obs.Default).
	Registry *obs.Registry
	// Tracer, when set, receives request-scoped child spans
	// (cache-probe, queue-wait, batch-assembly, forward) tagged with
	// each request's trace id. Nil disables span emission entirely —
	// the hot path then takes no extra timestamps.
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
	// BatchSize is the size of the forward batch this request rode in
	// (0 for cache hits).
	BatchSize int
	// Fingerprint is the canonical request identity (zero when caching
	// is disabled and no fingerprint was computed).
	Fingerprint Fingerprint
}

// modelVersion pins one immutable parameter snapshot.
type modelVersion struct {
	id   uint64
	snap *nn.Snapshot
}

// pending is one request waiting for its batched forward pass.
type pending struct {
	f         *gnn.Features
	ver       *modelVersion
	traceID   string    // request trace id ("" for programmatic callers)
	enq       time.Time // when the request entered the batcher queue
	probs     []float64
	batchSize int
	err       error
	delivered bool // set by the batcher goroutine just before close(done)
	done      chan struct{}
}

// deliver releases the waiting requester (batcher goroutine only).
func (p *pending) deliver() {
	p.delivered = true
	close(p.done)
}

// Service is a concurrent allocation server over one model.
type Service struct {
	model *core.Model
	pipe  *core.Pipeline

	version  atomic.Pointer[modelVersion]
	reloadMu sync.Mutex // serializes Reload; guards model.PS mutation

	cache *cache.LRU[Fingerprint, *Result]

	window   time.Duration
	maxBatch int
	reqCh    chan *pending
	closeMu  sync.RWMutex
	closed   bool
	wg       sync.WaitGroup
	stopBG   chan struct{} // closed on Close; stops the QPS sampler and SLO checker

	start  time.Time
	tracer *obs.Tracer

	// Admission control (admission.go). belowStreak is owned by the SLO
	// checker goroutine; sloShed is the latch the request path reads.
	maxInflight int
	sloP99      float64
	sloEvery    time.Duration
	sloShed     atomic.Bool
	belowStreak int

	// beforeForward, when set (tests), runs before each batched forward
	// pass with the batch size — the hook that lets the hot-swap test
	// hold an in-flight request across a Reload.
	beforeForward func(batch int)

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
	batchSz   *obs.Histogram
	latQ      *obs.Quantile
	queueQ    *obs.Quantile
}

// New starts a service over opts.Model: one batcher goroutine plus a QPS
// sampler. Callers must Close it.
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
	if opts.BatchWindow == 0 {
		opts.BatchWindow = 200 * time.Microsecond
	}
	if opts.MaxBatch <= 0 {
		opts.MaxBatch = 16
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
		window:      opts.BatchWindow,
		maxBatch:    opts.MaxBatch,
		reqCh:       make(chan *pending, 256),
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
		batchSz: reg.Histogram("serve_batch_size", []float64{1, 2, 4, 8, 16, 32, 64}),
		latQ:    reg.Quantile("serve_latency_quantiles_ms", qOpts),
		queueQ:  reg.Quantile("serve_queue_wait_ms", qOpts),
	}
	if opts.CacheSize > 0 {
		s.cache = cache.New[Fingerprint, *Result](opts.CacheSize)
		s.cache.Instrument(reg.Counter("serve_cache_hits_total"), reg.Counter("serve_cache_misses_total"))
	}
	s.version.Store(&modelVersion{id: 1, snap: nn.NewSnapshot(opts.Model.PS)})
	s.verG.Set(1)

	s.wg.Add(2)
	go s.batcher()
	go s.sampleQPS()
	if s.sloP99 > 0 {
		s.wg.Add(1)
		go s.sloLoop()
	}
	return s, nil
}

// Close stops accepting requests, drains queued ones, and stops the
// background goroutines. Idempotent.
func (s *Service) Close() {
	s.closeMu.Lock()
	if s.closed {
		s.closeMu.Unlock()
		return
	}
	s.closed = true
	close(s.reqCh)
	s.closeMu.Unlock()
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

// Allocate serves one placement. The graph must be valid (the HTTP layer
// validates specs; programmatic callers are trusted) and have at least
// one edge. Safe for concurrent use.
func (s *Service) Allocate(g *stream.Graph, c sim.Cluster) (Result, error) {
	return s.AllocateCtx(context.Background(), g, c)
}

// AllocateCtx is Allocate with a request context. The context is a
// carrier, not a cancellation signal — a request that reached the
// batcher always completes — but a trace id placed in it via
// WithTraceID tags every child span this request emits into the
// service's tracer.
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
			out.BatchSize = 0
			return out, nil
		}
	}

	// Cache hits above bypass admission — they cost ~1µs and relieve
	// load; only work that needs the model can be shed.
	if err := s.admit(); err != nil {
		return Result{}, err
	}

	p := &pending{
		f:       gnn.BuildFeatures(g, c),
		ver:     s.version.Load(),
		traceID: traceID,
		enq:     time.Now(),
		done:    make(chan struct{}),
	}
	if err := s.enqueue(p); err != nil {
		s.errs.Inc()
		return Result{}, err
	}
	<-p.done
	if p.err != nil {
		s.errs.Inc()
		return Result{}, p.err
	}

	a := s.pipe.AllocateRanked(g, c, p.probs)
	res := Result{
		Assign:       a.Placement.Assign,
		Devices:      a.Placement.Devices,
		NumSuper:     a.Coarse.NumSuper,
		Relative:     sim.Reward(g, a.Placement, c),
		ModelVersion: p.ver.id,
		BatchSize:    p.batchSize,
		Fingerprint:  fp,
	}
	if s.cache != nil {
		stored := res
		stored.Assign = append([]int(nil), res.Assign...)
		s.cache.Put(fp, &stored)
	}
	return res, nil
}

// Trace lanes: request-side spans on 0, batcher-side spans on 1.
const (
	laneRequest = 0
	laneBatcher = 1
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

// enqueue hands p to the batcher, failing after Close. The read lock
// pairs with Close's write lock so a send can never race the close of
// reqCh.
func (s *Service) enqueue(p *pending) error {
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	s.reqCh <- p
	return nil
}

// batcher coalesces requests: the first arrival opens a window of at most
// BatchWindow (capped at MaxBatch requests), then everything collected
// runs as one forward pass per model version.
func (s *Service) batcher() {
	defer s.wg.Done()
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	batch := make([]*pending, 0, s.maxBatch)
	for {
		p, ok := <-s.reqCh
		if !ok {
			return
		}
		batch = append(batch[:0], p)
		if s.window > 0 && s.maxBatch > 1 {
			timer.Reset(s.window)
		collect:
			for len(batch) < s.maxBatch {
				select {
				case q, ok := <-s.reqCh:
					if !ok {
						break collect
					}
					batch = append(batch, q)
				case <-timer.C:
					break collect
				}
			}
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
		}
		s.runBatch(batch)
	}
}

// runBatch groups the collected requests by pinned model version and runs
// one stacked forward pass per group. A panic in a forward pass fails the
// batch's requests instead of killing the batcher.
func (s *Service) runBatch(batch []*pending) {
	s.batchSz.Observe(float64(len(batch)))
	// The batcher has picked the batch up: each request's queue wait —
	// enqueue to here, covering the coalescing window — is over.
	now := time.Now()
	for _, p := range batch {
		wait := now.Sub(p.enq)
		s.queueQ.Observe(float64(wait) / float64(time.Millisecond))
		if s.tracer != nil {
			var args map[string]string
			if p.traceID != "" {
				args = map[string]string{"trace_id": p.traceID}
			}
			s.tracer.EmitArgs("queue-wait", laneBatcher, p.enq, wait, args)
		}
	}
	defer func() {
		if r := recover(); r != nil {
			err := fmt.Errorf("serve: forward pass panicked: %v", r)
			for _, p := range batch {
				if !p.delivered {
					p.err = err
					p.deliver()
				}
			}
		}
	}()
	if s.beforeForward != nil {
		s.beforeForward(len(batch))
	}
	// Group by version in arrival order (versions change rarely; a batch
	// straddling a reload splits into one pass per snapshot). Grouping
	// works on a scratch copy so the recover path above still sees every
	// request.
	work := make([]*pending, len(batch))
	copy(work, batch)
	for i, p := range work {
		if p == nil {
			continue
		}
		group := []*pending{p}
		for j := i + 1; j < len(work); j++ {
			if work[j] != nil && work[j].ver == p.ver {
				group = append(group, work[j])
				work[j] = nil
			}
		}
		s.forwardGroup(group)
	}
}

// forwardGroup computes merge probabilities for every request in one
// stacked forward pass on the group's snapshot and releases the waiters.
func (s *Service) forwardGroup(group []*pending) {
	snap := group[0].ver.snap
	if len(group) == 1 {
		p := group[0]
		p.probs = make([]float64, p.f.Edge.Rows)
		p.batchSize = 1
		fwdT0 := time.Time{}
		if s.tracer != nil {
			fwdT0 = time.Now()
		}
		s.model.ProbsInto(snap, p.f, p.probs)
		s.emitSpan("forward", laneBatcher, fwdT0, p.traceID)
		p.deliver()
		return
	}

	// Stack the per-graph features block-diagonally: node and edge rows
	// concatenate, edge endpoints shift by each graph's node offset. All
	// forward kernels are row-local, so each graph's output rows are
	// bit-identical to a solo pass.
	asmT0 := time.Time{}
	if s.tracer != nil {
		asmT0 = time.Now()
	}
	totalN, totalE := 0, 0
	for _, p := range group {
		totalN += p.f.Node.Rows
		totalE += p.f.Edge.Rows
	}
	node := tensor.Get(totalN, gnn.NodeFeatureDim)
	edge := tensor.Get(totalE, gnn.EdgeFeatureDim)
	src := make([]int, 0, totalE)
	dst := make([]int, 0, totalE)
	nodeOff, edgeOff := 0, 0
	for _, p := range group {
		copy(node.Data[nodeOff*gnn.NodeFeatureDim:], p.f.Node.Data)
		copy(edge.Data[edgeOff*gnn.EdgeFeatureDim:], p.f.Edge.Data)
		for _, v := range p.f.Src {
			src = append(src, v+nodeOff)
		}
		for _, v := range p.f.Dst {
			dst = append(dst, v+nodeOff)
		}
		nodeOff += p.f.Node.Rows
		edgeOff += p.f.Edge.Rows
	}
	stacked := &gnn.Features{Node: node, Edge: edge, Src: src, Dst: dst}
	all := make([]float64, totalE)
	var fwdT0 time.Time
	if s.tracer != nil {
		fwdT0 = time.Now()
		s.tracer.EmitArgs("batch-assembly", laneBatcher, asmT0, fwdT0.Sub(asmT0),
			map[string]string{"batch": fmt.Sprint(len(group))})
	}
	s.model.ProbsInto(snap, stacked, all)
	if s.tracer != nil {
		// One measured forward pass, attributed to every rider so a
		// single trace id finds its request's span.
		dur := time.Since(fwdT0)
		for _, p := range group {
			var args map[string]string
			if p.traceID != "" {
				args = map[string]string{"trace_id": p.traceID}
			}
			s.tracer.EmitArgs("forward", laneBatcher, fwdT0, dur, args)
		}
	}
	tensor.Put(node)
	tensor.Put(edge)

	off := 0
	for _, p := range group {
		e := p.f.Edge.Rows
		p.probs = all[off : off+e : off+e]
		p.batchSize = len(group)
		off += e
		p.deliver()
	}
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
