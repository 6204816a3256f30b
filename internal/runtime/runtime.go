// Package runtime executes a stream graph placement as a real concurrent
// program: every device is a goroutine, every edge a bounded channel, CPU
// and NIC capacities are token buckets replenished in scaled time, and
// backpressure arises naturally from full channels — exactly the mechanism
// the paper's reward models (throughput under backpressure).
//
// The paper validates CEPSim against a real streaming platform by checking
// that relative performance ranks are preserved (§III). This package plays
// the role of that real platform for the repository's simulators: the
// sim-validation experiment measures rank concordance between the fluid
// solver, the discrete-event solver, and this runtime.
//
// Tuples are not materialized individually; batches carry counts, so the
// runtime measures scheduling/contention behaviour, not payload copying.
//
// A drift timeline (Config.Drift, the []sim.DriftState that
// sim.BuildTimeline returns) optionally replays device crashes and
// restarts, link-class changes and source-rate surges against a run, so a
// placement can be scored under the failures a real cluster exhibits —
// the robustness metric the eval harness reports. The fluid model replays
// the same timeline tick by tick (sim.SimulateDrift), so both executors
// see one failure scenario, and both measure throughput against the
// surged demand.
package runtime

import (
	"context"
	"fmt"
	goruntime "runtime"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stream"
)

const (
	// timeScale is simulated seconds per wall second: capacities and
	// source rates are multiplied by it, letting a 200 ms run cover
	// multiple simulated seconds of traffic.
	timeScale float64 = 10
	// batchTuples is the tuple count carried per channel message.
	batchTuples float64 = 64
	// channelDepth is the per-edge channel capacity in batches; together
	// with batchTuples it bounds queued tuples and creates backpressure.
	channelDepth = 32
)

// Config controls one execution.
type Config struct {
	// WallTime is how long to run in real time.
	WallTime time.Duration
	// WarmupFrac of WallTime is excluded from throughput measurement.
	WarmupFrac float64
	// Drift optionally replays a drift timeline, as sim.BuildTimeline
	// returns it (nil = a nominal, fault-free run). Each state holds for
	// an equal share of WallTime, in order. A device that is not Up
	// crashes: its operators neither ingest, process nor emit, so full
	// input channels backpressure upstream devices as a dead machine
	// would. When it is Up again it restarts empty: queued tuples,
	// residual output, NIC credits and whatever sat in its input channels
	// are lost, the in-flight data a real crash destroys.
	// BandwidthFactor scales every NIC and RateFactor every source.
	Drift []sim.DriftState
}

// DefaultConfig runs 300 ms of wall time at 10× time scale.
func DefaultConfig() Config {
	return Config{
		WallTime:   300 * time.Millisecond,
		WarmupFrac: 0.3,
	}
}

// Result reports the measured execution.
type Result struct {
	// Relative is measured throughput / source rate ∈ [0, 1] — the same
	// quantity the simulators report. Under a drift timeline the source
	// rate is the surged one, averaged over the measured window.
	Relative float64
	// SinkTuples is the total tuples absorbed by sinks after warmup.
	SinkTuples float64
	// Elapsed is the measured (post-warmup) window in simulated seconds.
	Elapsed float64
	// DeviceCrashes counts up→down transitions the device goroutines
	// actually observed during the run — the measured injection count, as
	// opposed to whatever the timeline scheduled (a device that hosts no
	// operator runs no goroutine, so its losses never register).
	DeviceCrashes int
	// DeviceRestarts counts state-wiping restarts devices executed.
	DeviceRestarts int
	// LinkRetunes counts NIC rate changes the drift controller applied
	// (a BandwidthFactor that differs from the previous state's).
	LinkRetunes int
	// SourceRetunes counts arrival-rate changes the drift controller
	// applied (a RateFactor that differs from the previous state's).
	SourceRetunes int
}

// batch is one channel message.
type batch struct {
	tuples float64
}

// bucket is a time-replenished token bucket (tokens = instructions or bits).
type bucket struct {
	mu     sync.Mutex
	tokens float64
	rate   float64 // tokens per wall second
	last   time.Time
	burst  float64
}

func newBucket(rate float64, start time.Time) *bucket {
	// Burst is ~4 ms of capacity: long enough to ride scheduling jitter,
	// short enough not to inflate throughput over a sub-second window.
	return &bucket{rate: rate, last: start, burst: rate * 0.004, tokens: rate * 0.001}
}

// setRate accrues tokens at the old rate up to now, then switches the
// bucket to a new rate (drift: link-class changes and source surges).
func (b *bucket) setRate(rate float64, now time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	dt := now.Sub(b.last).Seconds()
	if dt > 0 {
		b.tokens += dt * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
		b.last = now
	}
	b.rate = rate
	b.burst = rate * 0.004
}

// take attempts to consume want tokens; it returns how many were granted
// (possibly 0). Tokens accrue with wall time.
func (b *bucket) take(want float64, now time.Time) float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	dt := now.Sub(b.last).Seconds()
	if dt > 0 {
		b.tokens += dt * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
		b.last = now
	}
	if b.tokens <= 0 {
		return 0
	}
	grant := want
	if grant > b.tokens {
		grant = b.tokens
	}
	b.tokens -= grant
	return grant
}

// Run executes the placement and measures throughput.
func Run(g *stream.Graph, p *stream.Placement, c sim.Cluster, cfg Config) (Result, error) {
	if err := p.Validate(g); err != nil {
		return Result{}, err
	}
	if _, err := g.TopoOrder(); err != nil {
		return Result{}, fmt.Errorf("runtime: %w", err)
	}
	if cfg.WallTime <= 0 {
		return Result{}, fmt.Errorf("runtime: invalid config %+v", cfg)
	}
	for i, st := range cfg.Drift {
		if err := st.Validate(c.Devices); err != nil {
			return Result{}, fmt.Errorf("runtime: drift state %d: %w", i, err)
		}
	}
	timeline := cfg.Drift
	if len(timeline) == 0 {
		timeline = []sim.DriftState{sim.NominalDrift(c.Devices)}
	}
	// stateAt returns the index of the state holding elapsed into the run:
	// state i covers [i, i+1)·WallTime/len(timeline).
	stateAt := func(elapsed time.Duration) int {
		i := int(int64(elapsed) * int64(len(timeline)) / int64(cfg.WallTime))
		return min(max(i, 0), len(timeline)-1)
	}

	n := g.NumNodes()
	start := time.Now()

	// One bounded channel per edge.
	chans := make([]chan batch, g.NumEdges())
	for i := range chans {
		chans[i] = make(chan batch, channelDepth)
	}

	// Capacities in wall-time token rates (scaled).
	cpu := make([]*bucket, c.Devices)
	egress := make([]*bucket, c.Devices)
	ingress := make([]*bucket, c.Devices)
	nic := c.Bandwidth * timeScale
	for d := 0; d < c.Devices; d++ {
		cpu[d] = newBucket(c.CapacityOf(d)*timeScale, start)
		egress[d] = newBucket(nic*timeline[0].BandwidthFactor, start)
		ingress[d] = newBucket(nic*timeline[0].BandwidthFactor, start)
	}

	// Per-operator pending input tuples (owned by the device goroutine,
	// fed from channels).
	pending := make([]float64, n)
	// Residual output per edge awaiting channel space / bandwidth.
	residual := make([]float64, g.NumEdges())
	// Granted-but-unspent egress bits per edge: bandwidth accrues here
	// until it covers a full batch, so bounded channels carry full batches
	// instead of filling up with fragments.
	bitCredit := make([]float64, g.NumEdges())
	// Receive-side credits enforcing the ingress NIC budget the same way.
	rcvCredit := make([]float64, g.NumEdges())
	// Last successful send per cross-device edge: sub-batch residuals are
	// held back until the edge has been quiet for a few milliseconds, so
	// low-rate flows still flush promptly but a busy link carries full
	// batches instead of a storm of fractional-tuple messages (each of
	// which would pay the whole credit handshake). Same-device edges are
	// exempt — their sends are free, and holding them back would starve a
	// device-mate of pending work between flushes.
	lastSend := make([]time.Time, g.NumEdges())
	for i := range lastSend {
		lastSend[i] = start
	}
	const partialFlushAfter = 4 * time.Millisecond

	// Per-sink tuple counts: each element is owned by exactly one device
	// goroutine, summed after Wait (no atomics needed on the hot path,
	// and no fixed-point truncation of tiny per-call emissions).
	sinkCount := make([]float64, n)
	warmupDone := start.Add(time.Duration(float64(cfg.WallTime) * cfg.WarmupFrac))

	isSource := make([]bool, n)
	for _, s := range g.Sources() {
		isSource[s] = true
	}
	devOps := make([][]int, c.Devices)
	for v := 0; v < n; v++ {
		devOps[p.Assign[v]] = append(devOps[p.Assign[v]], v)
	}
	// Source token buckets (arrival processes).
	arrival := g.SourceRate * timeScale
	srcBucket := make([]*bucket, n)
	for v := 0; v < n; v++ {
		if isSource[v] {
			srcBucket[v] = newBucket(arrival*timeline[0].RateFactor, start)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), cfg.WallTime)
	defer cancel()

	// Measured fault-injection counts. Each device goroutine owns its own
	// slice slot and the drift controller owns the retune counts; wg.Wait
	// orders their final writes before the summation below.
	crashCount := make([]int, c.Devices)
	restartCount := make([]int, c.Devices)
	var linkRetunes, sourceRetunes int

	var wg sync.WaitGroup
	for d := 0; d < c.Devices; d++ {
		if len(devOps[d]) == 0 {
			continue
		}
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			ops := devOps[d]
			pendingCap := 4 * batchTuples
			round := 0
			crashed := false
			for ctx.Err() == nil {
				now := time.Now()
				// Fault injection: a crashed device does nothing; its full
				// input channels backpressure the rest of the graph.
				if !timeline[stateAt(now.Sub(start))].Up(d) {
					if !crashed {
						crashCount[d]++
					}
					crashed = true
					time.Sleep(200 * time.Microsecond)
					continue
				}
				if crashed {
					restartCount[d]++
					// Restart with empty state: queued tuples, residual
					// output, NIC credits, and in-flight channel contents
					// are lost, as they would be on a real machine.
					for _, v := range ops {
						pending[v] = 0
						for _, ei := range g.OutEdges(v) {
							residual[ei] = 0
							bitCredit[ei] = 0
						}
						for _, ei := range g.InEdges(v) {
							rcvCredit[ei] = 0
							for drained := false; !drained; {
								select {
								case <-chans[ei]:
								default:
									drained = true
								}
							}
						}
					}
					crashed = false
				}
				progress := false
				for oi := range ops {
					v := ops[(oi+round)%len(ops)]
					// Ingest: sources draw from their arrival bucket;
					// other operators drain their input channels
					// (consuming ingress bandwidth for cross-device edges).
					if isSource[v] && pending[v] < pendingCap {
						got := srcBucket[v].take(batchTuples, now)
						pending[v] += got
						// Sub-tuple grants accrue but are not "progress":
						// counting them would busy-spin the device on an
						// asymptotically full queue and starve every other
						// goroutine when cores are scarce.
						if got >= 1 {
							progress = true
						}
					}
					for _, ei := range g.InEdges(v) {
						e := g.Edges[ei]
						cross := p.Assign[e.Src] != p.Assign[e.Dst]
						// Bounded operator queue: draining stops when the
						// queue is full, which fills the channel and, in
						// turn, stalls the upstream emitter — backpressure.
						for pending[v] < pendingCap {
							if cross && e.Payload > 0 {
								// Reserve ingress bandwidth for a full batch
								// before receiving; leftover credit persists,
								// so nothing is lost to over-reservation.
								maxBits := batchTuples * e.Payload
								if rcvCredit[ei] < maxBits {
									got := ingress[d].take(maxBits-rcvCredit[ei], now)
									rcvCredit[ei] += got
								}
								if rcvCredit[ei] < maxBits {
									break // ingress NIC saturated; retry later
								}
							}
							received := false
							select {
							case bt := <-chans[ei]:
								if cross {
									rcvCredit[ei] -= bt.tuples * e.Payload
								}
								pending[v] += bt.tuples
								if bt.tuples >= 1 {
									progress = true
								}
								received = true
							default:
							}
							if !received {
								break
							}
						}
					}

					// Stall check: when any out-edge's undelivered residual
					// exceeds a few batches, the operator stops processing —
					// this is what chains backpressure from a saturated link
					// all the way to the sources.
					stalled := false
					for _, ei := range g.OutEdges(v) {
						if residual[ei] > 4*batchTuples {
							stalled = true
							break
						}
					}

					// Process: spend CPU tokens on pending tuples.
					if pending[v] > 0 && !stalled {
						want := pending[v]
						if want > batchTuples {
							want = batchTuples
						}
						var did float64
						if g.Nodes[v].IPT <= 0 {
							did = want
						} else {
							grant := cpu[d].take(want*g.Nodes[v].IPT, now)
							did = grant / g.Nodes[v].IPT
						}
						if did > 0 {
							// Emission must have room on every out-edge
							// first (broadcast semantics): find the
							// bottleneck across residuals + channel space.
							out := did * g.Nodes[v].Selectivity
							pending[v] -= did
							// Like ingestion, sub-tuple trickles are real
							// work but not "progress": a source draining its
							// own fractional grants would otherwise spin the
							// device at full CPU forever.
							if did >= 1 {
								progress = true
							}
							if len(g.OutEdges(v)) == 0 {
								if now.After(warmupDone) {
									// Count *emitted* tuples (selectivity
									// applied) to match idealSinkRate below.
									sinkCount[v] += out
								}
							} else {
								for _, ei := range g.OutEdges(v) {
									residual[ei] += out
								}
							}
						}
					}

					// Flush residual output to channels, paying egress
					// bandwidth for cross-device edges.
					for _, ei := range g.OutEdges(v) {
						if residual[ei] < batchTuples {
							e := g.Edges[ei]
							costly := p.Assign[e.Src] != p.Assign[e.Dst] && e.Payload > 0
							if pending[v] > 0 ||
								(costly && now.Sub(lastSend[ei]) < partialFlushAfter) {
								continue // accumulate full batches while busy
							}
						}
						for residual[ei] > 0 {
							send := residual[ei]
							if send > batchTuples {
								send = batchTuples
							}
							e := g.Edges[ei]
							cost := 0.0
							if p.Assign[e.Src] != p.Assign[e.Dst] && e.Payload > 0 {
								cost = send * e.Payload
								if need := cost - bitCredit[ei]; need > 0 {
									bitCredit[ei] += egress[d].take(need, now)
								}
								if bitCredit[ei] < cost {
									break // bandwidth not yet accrued; retry later
								}
							}
							sent := false
							select {
							case chans[ei] <- batch{tuples: send}:
								residual[ei] -= send
								bitCredit[ei] -= cost
								lastSend[ei] = now
								// Sub-tuple housekeeping sends are not
								// "progress" either (see the ingest note).
								if send >= 1 {
									progress = true
								}
								sent = true
							default:
								// Backpressure: downstream full; credit and
								// residual persist for the next round.
							}
							if !sent || residual[ei] <= 0 {
								break
							}
						}
					}
				}
				if progress {
					// Rotate the scan order across productive rounds so no
					// operator permanently drains the freshly-accrued CPU
					// tokens first.
					round++
				} else {
					// Idle: hand the processor to sibling goroutines instead
					// of monopolizing it until the scheduler preempts us.
					// Sleeping here would be wrong twice over: timer
					// granularity (~1 ms or worse under load) is larger than
					// the token-bucket burst horizon, so sleepers drop
					// capacity on the floor, and token-rich wakeup rounds
					// distort CPU sharing between device-mates. Gosched keeps
					// every device polling at fine granularity while letting
					// sleeping goroutines (and other devices) run on time.
					goruntime.Gosched()
				}
			}
		}(d)
	}
	// Drift controller: at each state boundary, retune every NIC bucket
	// when the bandwidth factor changes and every source bucket when the
	// rate factor does. The buckets' own mutexes make this safe against
	// in-flight take calls; device crashes need no controller, since each
	// device goroutine reads its own availability from the timeline.
	if len(timeline) > 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i < len(timeline); i++ {
				at := start.Add(cfg.WallTime * time.Duration(i) / time.Duration(len(timeline)))
				timer := time.NewTimer(time.Until(at))
				select {
				case <-ctx.Done():
					timer.Stop()
					return
				case now := <-timer.C:
					prev, st := timeline[i-1], timeline[i]
					if st.BandwidthFactor != prev.BandwidthFactor {
						linkRetunes++
						for d := 0; d < c.Devices; d++ {
							egress[d].setRate(nic*st.BandwidthFactor, now)
							ingress[d].setRate(nic*st.BandwidthFactor, now)
						}
					}
					if st.RateFactor != prev.RateFactor {
						sourceRetunes++
						for _, b := range srcBucket {
							if b != nil {
								b.setRate(arrival*st.RateFactor, now)
							}
						}
					}
				}
			}
		}()
	}
	wg.Wait()

	window := float64(cfg.WallTime)*(1-cfg.WarmupFrac)/float64(time.Second) + 1e-12
	simWindow := window * timeScale

	// Normalize: sum of ideal sink input rates. They scale with the source
	// rate, so a surge raises them by the RateFactor averaged over the
	// measured window, each state weighted by how long it overlaps it.
	rateFactor := 0.0
	for i, st := range timeline {
		lo := max(float64(i)/float64(len(timeline)), cfg.WarmupFrac)
		if hi := float64(i+1) / float64(len(timeline)); hi > lo {
			rateFactor += (hi - lo) * st.RateFactor
		}
	}
	rateFactor /= 1 - cfg.WarmupFrac
	ideal := g.SteadyRates()
	var idealSinkRate float64
	for _, v := range g.Sinks() {
		if len(g.InEdges(v)) == 0 {
			idealSinkRate += g.SourceRate * g.Nodes[v].Selectivity
			continue
		}
		inRate := 0.0
		for _, ei := range g.InEdges(v) {
			inRate += ideal[g.Edges[ei].Src]
		}
		idealSinkRate += inRate * g.Nodes[v].Selectivity
	}
	idealSinkRate *= rateFactor
	var sinks float64
	for _, c := range sinkCount {
		sinks += c
	}
	rel := 0.0
	if idealSinkRate > 0 {
		rel = (sinks / simWindow) / idealSinkRate
	}
	if rel > 1 {
		rel = 1
	}
	res := Result{Relative: rel, SinkTuples: sinks, Elapsed: simWindow}
	for d := 0; d < c.Devices; d++ {
		res.DeviceCrashes += crashCount[d]
		res.DeviceRestarts += restartCount[d]
	}
	res.LinkRetunes = linkRetunes
	res.SourceRetunes = sourceRetunes
	obsRuns.Inc()
	obsCrashes.Add(uint64(res.DeviceCrashes))
	obsRestarts.Add(uint64(res.DeviceRestarts))
	obsRetunes.Add(uint64(res.LinkRetunes))
	obsSurges.Add(uint64(res.SourceRetunes))
	return res, nil
}

// Process-wide fault-injection metrics, fed from the measured per-run
// counts above (observation only — never read back by the runtime).
var (
	obsRuns     = obs.Default.Counter("runtime_runs_total")
	obsCrashes  = obs.Default.Counter("runtime_device_crashes_total")
	obsRestarts = obs.Default.Counter("runtime_device_restarts_total")
	obsRetunes  = obs.Default.Counter("runtime_link_retunes_total")
	obsSurges   = obs.Default.Counter("runtime_source_retunes_total")
)
