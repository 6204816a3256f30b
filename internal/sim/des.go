// des.go implements the discrete-event solver — the closer of the two
// simulator modes to CEPSim's actual mechanics [38]: operators hold input
// queues, devices schedule resident operators round-robin in fixed time
// quanta, links transfer tuple batches at finite bandwidth, and bounded
// queues exert backpressure on upstream operators all the way to the
// sources. Throughput is measured, not solved for.
//
// The fluid solver remains the RL reward (it is ~100× faster and
// rank-consistent — see TestDESRankAgreesWithFluid), while the DES mode
// serves as a higher-fidelity cross-check, mirroring how the paper uses
// CEPSim versus a real platform.
package sim

import (
	"container/heap"
	"fmt"
	"math"

	"repro/internal/stream"
)

// The discrete-event solver's settings, which converge for the workloads
// in this repository within milliseconds of wall time.
const (
	// desHorizon is the simulated duration in seconds.
	desHorizon float64 = 4
	// desQuantum is the device scheduling time slice in seconds.
	desQuantum float64 = 0.01
	// desQueueTuples bounds each operator's input queue (tuples); full
	// queues push back on upstream emitters.
	desQueueTuples float64 = 2048
	// desWarmupFrac is the fraction of the horizon excluded from
	// measurement.
	desWarmupFrac float64 = 0.25
)

// desEvent is a scheduled quantum boundary for one device.
type desEvent struct {
	at     float64
	device int
	seq    int64
}

type desHeap []desEvent

func (h desHeap) Len() int      { return len(h) }
func (h desHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h desHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h *desHeap) Push(x any) { *h = append(*h, x.(desEvent)) }
func (h *desHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// SimulateDES runs the discrete-event solver and returns the measured
// steady-state result. The graph must be acyclic (the DES is run on
// original graphs, not coarse ones).
func SimulateDES(g *stream.Graph, p *stream.Placement, c Cluster) (Result, error) {
	if err := p.Validate(g); err != nil {
		return Result{}, err
	}
	if p.Devices > c.Devices {
		return Result{}, fmt.Errorf("sim: placement uses %d devices, cluster has %d", p.Devices, c.Devices)
	}
	if _, err := g.TopoOrder(); err != nil {
		return Result{}, fmt.Errorf("sim: DES requires an acyclic graph: %w", err)
	}

	n := g.NumNodes()
	// Fluid-style per-tuple demands.
	queues := make([]float64, n) // tuples waiting at each operator
	blocked := make([]bool, n)   // operator stalled by a full downstream queue
	processed := make([]float64, n)
	sourceEmitted := 0.0
	sourceDropped := 0.0

	// Per-device operator lists in topological order (drain downstream
	// first within a quantum so tuples flow through colocated chains).
	order, _ := g.TopoOrder()
	pos := make([]int, n)
	for i, v := range order {
		pos[v] = i
	}
	devOps := make([][]int, c.Devices)
	for v := 0; v < n; v++ {
		devOps[p.Assign[v]] = append(devOps[p.Assign[v]], v)
	}
	for _, ops := range devOps {
		// reverse topological order: sinks first
		for i, j := 0, len(ops)-1; i < j; i, j = i+1, j-1 {
			ops[i], ops[j] = ops[j], ops[i]
		}
		sortByPosDesc(ops, pos)
	}

	isSource := make([]bool, n)
	for _, s := range g.Sources() {
		isSource[s] = true
	}

	// Per-device NIC byte budgets per quantum (egress and ingress).
	egressBudget := make([]float64, c.Devices)
	ingressBudget := make([]float64, c.Devices)

	events := &desHeap{}
	var seq int64
	for d := 0; d < c.Devices; d++ {
		heap.Push(events, desEvent{at: 0, device: d, seq: seq})
		seq++
	}

	warmupEnd := desHorizon * desWarmupFrac
	measured := make([]float64, n) // tuples processed after warmup
	var measuredSourceIn float64

	emit := func(v int, tuples float64, now float64) float64 {
		// Try to push `tuples` output tuples down every out-edge; returns
		// the fraction actually emitted (limited by the tightest
		// downstream queue and by link budgets for cross-device edges).
		frac := 1.0
		for _, ei := range g.OutEdges(v) {
			e := g.Edges[ei]
			room := desQueueTuples - queues[e.Dst]
			if room < tuples*frac {
				frac = math.Max(0, room/tuples)
			}
			if p.Assign[e.Src] != p.Assign[e.Dst] {
				// Link budget in bits for this quantum.
				bits := tuples * frac * e.Payload
				if bits > 0 {
					avail := math.Min(egressBudget[p.Assign[e.Src]], ingressBudget[p.Assign[e.Dst]])
					if avail < bits {
						frac *= avail / bits
					}
				}
			}
		}
		if frac <= 0 {
			return 0
		}
		out := tuples * frac
		for _, ei := range g.OutEdges(v) {
			e := g.Edges[ei]
			queues[e.Dst] += out
			if p.Assign[e.Src] != p.Assign[e.Dst] {
				bits := out * e.Payload
				egressBudget[p.Assign[e.Src]] -= bits
				ingressBudget[p.Assign[e.Dst]] -= bits
			}
		}
		_ = now
		return frac
	}

	var eventCount uint64
	for events.Len() > 0 {
		ev := heap.Pop(events).(desEvent)
		if ev.at >= desHorizon {
			continue
		}
		eventCount++
		d := ev.device
		// Backpressure signature: total tuples queued on this device at
		// quantum start (observed, never fed back into the simulation).
		var depth float64
		for _, v := range devOps[d] {
			depth += queues[v]
		}
		obsDESQueueDepth.Observe(depth)
		// Refill this device's budgets for the quantum.
		instr := c.CapacityOf(d) * desQuantum
		egressBudget[d] = c.Bandwidth * desQuantum
		ingressBudget[d] = c.Bandwidth * desQuantum

		// Sources ingest at the source rate, subject to queue room.
		for _, v := range devOps[d] {
			if !isSource[v] {
				continue
			}
			arrive := g.SourceRate * desQuantum
			room := desQueueTuples - queues[v]
			took := math.Min(arrive, math.Max(0, room))
			queues[v] += took
			sourceEmitted += took
			sourceDropped += arrive - took
			if ev.at >= warmupEnd {
				measuredSourceIn += arrive
			}
		}
		// Round-robin processing until the instruction budget is spent or
		// nothing can make progress.
		progress := true
		for instr > 1e-9 && progress {
			progress = false
			for _, v := range devOps[d] {
				if queues[v] <= 1e-12 {
					continue
				}
				ipt := g.Nodes[v].IPT
				var can float64
				if ipt <= 0 {
					can = queues[v]
				} else {
					can = math.Min(queues[v], instr/ipt)
				}
				if can <= 1e-12 {
					continue
				}
				outTuples := can * g.Nodes[v].Selectivity
				frac := 1.0
				if len(g.OutEdges(v)) > 0 {
					frac = emit(v, outTuples, ev.at)
				}
				if frac <= 0 {
					blocked[v] = true
					continue
				}
				did := can * frac
				queues[v] -= did
				instr -= did * ipt
				processed[v] += did
				if ev.at >= warmupEnd {
					measured[v] += did
				}
				blocked[v] = false
				if did > 1e-12 {
					progress = true
				}
			}
		}
		heap.Push(events, desEvent{at: ev.at + desQuantum, device: d, seq: seq})
		seq++
	}

	obsDESRuns.Inc()
	obsDESEvents.Add(eventCount)

	// Throughput: measured sink completion rate normalized by the ideal
	// sink rate, scaled to the source rate (the same relative measure the
	// fluid solver reports).
	ideal := g.SteadyRates()
	window := desHorizon - warmupEnd
	var relSum float64
	var sinks int
	for _, v := range g.Sinks() {
		inRate := 0.0
		for _, ei := range g.InEdges(v) {
			inRate += ideal[g.Edges[ei].Src]
		}
		if len(g.InEdges(v)) == 0 {
			inRate = g.SourceRate
		}
		if inRate <= 0 {
			continue
		}
		relSum += (measured[v] / window) / inRate
		sinks++
	}
	rel := 0.0
	if sinks > 0 {
		rel = relSum / float64(sinks)
	}
	if rel > 1 {
		rel = 1
	}
	return Result{
		Throughput: rel * g.SourceRate,
		Relative:   rel,
		DeviceUtil: nil,
		NetUtil:    nil,
		Bottleneck: BottleneckNone,
	}, nil
}

// sortByPosDesc orders ops so that later topological positions come first.
func sortByPosDesc(ops []int, pos []int) {
	for i := 1; i < len(ops); i++ {
		for j := i; j > 0 && pos[ops[j]] > pos[ops[j-1]]; j-- {
			ops[j], ops[j-1] = ops[j-1], ops[j]
		}
	}
}
