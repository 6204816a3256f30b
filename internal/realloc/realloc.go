// Package realloc closes the loop the paper leaves open between a
// one-shot coarsening-based allocation and a long-lived deployment: the
// environment drifts (source surges, devices leaving and joining, link
// class changes), the placement that was optimal at deploy time stops
// being optimal, and migrating operators is not free. The Loop watches
// measured throughput under the current placement, detects bottleneck
// shifts with a windowed throughput/queue-pressure detector, and
// re-collapses only the affected region of the graph — ranked by the
// same merge scores the coarsening model produces — before falling back
// to progressively wider regions and finally a full re-coarsen. Every
// candidate migration is scored as throughput gained minus a move-cost
// penalty (tuples in flight × operator state), so a marginal win never
// justifies draining a heavy stateful operator. When no feasible
// migration beats the stale placement the loop degrades gracefully:
// it keeps the stale placement, raises the realloc_degraded gauge, and
// retries when the environment changes again.
//
// The whole loop is deterministic given its inputs: detectors,
// rankings, and greedy assignments break ties by index, so a drift
// timeline replays to bit-identical recovery trajectories.
package realloc

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stream"
)

// Scorer ranks edges for collapse. *core.Model satisfies this; tests
// and baselines can substitute cheaper rankings.
type Scorer interface {
	Probs(g *stream.Graph, c sim.Cluster) []float64
}

const (
	// detectWindow is the detector's sliding window length in ticks.
	detectWindow = 4
	// dropFrac triggers a replan when measured relative throughput falls
	// below (1-dropFrac) × the window maximum.
	dropFrac = 0.1
	// migrationWindow is the drain horizon in seconds used by the move
	// cost model: tuples in flight ≈ input rate × migrationWindow.
	migrationWindow = 1.0
)

// Config tunes the re-allocation loop.
type Config struct {
	// MoveCostWeight is λ in utility = relative − λ·(moveCost/totalCost):
	// how much normalized migration cost offsets a throughput gain.
	MoveCostWeight float64
	// MaxRegionDevices bounds the tight replan region; each escalation
	// level doubles it until the region covers the whole cluster.
	MaxRegionDevices int
	// Escalations is how many levels one replan may try: level 0
	// re-collapses the tight region, each later level doubles it, and
	// the last level covers the whole cluster (default 3).
	Escalations int
}

// DefaultConfig returns the tuning used by the drift experiment.
func DefaultConfig() Config {
	return Config{
		MoveCostWeight:   0.3,
		MaxRegionDevices: 2,
		Escalations:      3,
	}
}

func (cfg Config) withDefaults() Config {
	d := DefaultConfig()
	if cfg.MoveCostWeight < 0 {
		cfg.MoveCostWeight = d.MoveCostWeight
	}
	if cfg.MaxRegionDevices <= 0 {
		cfg.MaxRegionDevices = d.MaxRegionDevices
	}
	if cfg.Escalations <= 0 {
		cfg.Escalations = d.Escalations
	}
	return cfg
}

// MoveCost is the cost of migrating operator v: the tuples in flight
// that must be drained or replayed (input rate × window) times
// a factor for the operator state that must be transferred (1 + state
// in Mb). Rates are the graph's nominal steady rates — the cost of a
// move is a property of the operator, not of the instant it happens.
func MoveCost(g *stream.Graph, rates []float64, v int, window float64) float64 {
	inRate := 0.0
	if len(g.InEdges(v)) == 0 {
		inRate = g.SourceRate
	}
	for _, ei := range g.InEdges(v) {
		inRate += rates[g.Edges[ei].Src]
	}
	inflight := inRate * window
	return (1 + inflight) * (1 + g.Nodes[v].State/1e6)
}

// PlacementMoveCost sums MoveCost over every operator the new placement
// migrates, and counts them.
func PlacementMoveCost(g *stream.Graph, old, new *stream.Placement, window float64) (cost float64, moved int) {
	rates := g.SteadyRates()
	for v := 0; v < g.NumNodes(); v++ {
		if old.Assign[v] != new.Assign[v] {
			cost += MoveCost(g, rates, v, window)
			moved++
		}
	}
	return cost, moved
}

// TotalMoveCost is the cost of migrating every operator — the
// normalizer that makes move costs comparable across graphs.
func TotalMoveCost(g *stream.Graph, window float64) float64 {
	rates := g.SteadyRates()
	total := 0.0
	for v := 0; v < g.NumNodes(); v++ {
		total += MoveCost(g, rates, v, window)
	}
	return total
}

// Action reports what one Step did.
type Action struct {
	// Triggered reports whether the drift detector fired this tick.
	Triggered bool
	// Replanned reports whether a migration was adopted.
	Replanned bool
	// Degraded reports whether the loop is holding a stale placement
	// because no feasible migration improved on it.
	Degraded bool
	// Escalation is the replan level that produced the adopted placement
	// (0 = tight region, 1 = widened, 2 = full re-coarsen); -1 when no
	// replan was adopted.
	Escalation int
	// Moved is the number of operators the adopted migration relocates.
	Moved int
	// MoveCost is the migration cost of the adopted move (0 if none).
	MoveCost float64
	// Relative is the measured relative throughput under the placement
	// that is live at the END of the tick (post-migration if one was
	// adopted).
	Relative float64
}

// ErrNoFeasible reports that no candidate migration improved on the
// stale placement at any escalation level.
var ErrNoFeasible = errors.New("realloc: no feasible migration improves on the stale placement")

// Loop is the drift-reactive re-allocation loop for one deployment.
type Loop struct {
	cfg    Config
	g      *stream.Graph
	c      sim.Cluster
	scorer Scorer
	cur    *stream.Placement

	window    []float64 // recent measured relatives under the live placement
	degraded  bool
	lastFail  sim.DriftState // environment of the last failed replan
	hasFail   bool
	totalCost float64 // TotalMoveCost normalizer, computed once
}

// New builds a loop starting from an initial placement.
func New(g *stream.Graph, c sim.Cluster, scorer Scorer, initial *stream.Placement, cfg Config) (*Loop, error) {
	if err := initial.Validate(g); err != nil {
		return nil, fmt.Errorf("realloc: %w", err)
	}
	if scorer == nil {
		return nil, errors.New("realloc: nil scorer")
	}
	cfg = cfg.withDefaults()
	return &Loop{
		cfg:       cfg,
		g:         g,
		c:         c,
		scorer:    scorer,
		cur:       initial.Clone(),
		totalCost: TotalMoveCost(g, migrationWindow),
	}, nil
}

// Placement returns the live placement (not a copy; do not mutate).
func (l *Loop) Placement() *stream.Placement { return l.cur }

// Degraded reports whether the loop is currently holding a stale
// placement it could not improve.
func (l *Loop) Degraded() bool { return l.degraded }

// Step observes one tick of the drift timeline: it measures the live
// placement under st, runs the detector, and — when drift is detected —
// replans with escalating scope, migrating only when a candidate's
// throughput gain survives the move-cost penalty.
func (l *Loop) Step(ctx context.Context, st sim.DriftState) (Action, error) {
	if err := st.Validate(l.c.Devices); err != nil {
		return Action{}, err
	}
	obsSteps.Inc()
	measured, err := sim.SimulateDrift(l.g, l.cur, l.c, st)
	if err != nil {
		return Action{}, err
	}
	act := Action{Escalation: -1, Relative: measured.Relative}

	if !l.detect(measured, st) {
		// Healthy tick: remember it and clear any degraded latch.
		l.pushWindow(measured.Relative)
		if l.degraded {
			l.degraded, l.hasFail = false, false
			obsDegraded.Set(0)
		}
		return act, nil
	}
	act.Triggered = true
	obsTriggers.Inc()

	// Degraded and the world has not changed since the failed attempt:
	// replanning again would redo the same search for the same answer.
	// Hold the stale placement until the environment moves.
	if l.degraded && l.hasFail && st.Equal(l.lastFail) {
		act.Degraded = true
		l.pushWindow(measured.Relative)
		return act, nil
	}

	adopted, escalation, rerr := l.replan(ctx, st, measured)
	if rerr != nil {
		if ctx.Err() != nil {
			return Action{}, rerr
		}
		// Graceful degradation: keep the stale placement, raise the
		// gauge, and retry (via the detector) when the state changes.
		l.degraded, l.hasFail = true, true
		l.lastFail = cloneState(st)
		obsDegraded.Set(1)
		obsDegradedTotal.Inc()
		act.Degraded = true
		l.pushWindow(measured.Relative)
		return act, nil
	}

	cost, moved := PlacementMoveCost(l.g, l.cur, adopted.p, migrationWindow)
	l.cur = adopted.p
	l.degraded, l.hasFail = false, false
	obsDegraded.Set(0)
	obsReplans.Inc()
	obsMigrations.Add(uint64(moved))
	// The old window baselined the old placement; start fresh.
	l.window = l.window[:0]
	l.pushWindow(adopted.rel)
	act.Replanned = true
	act.Escalation = escalation
	act.Moved = moved
	act.MoveCost = cost
	act.Relative = adopted.rel
	return act, nil
}

// detect is the windowed throughput/queue-pressure detector. It fires
// when operators sit on unavailable devices (stranded load), when the
// offered load exceeds what the placement sustains by more than
// dropFrac (relative < 1-dropFrac means the bottleneck's queues grow
// without bound in the fluid model — the queue-depth signal), or when
// measured relative throughput dropped by dropFrac against the recent
// window maximum (a bottleneck shift that still sustains, but worse).
func (l *Loop) detect(measured sim.Result, st sim.DriftState) bool {
	for d := 0; d < l.c.Devices; d++ {
		if !st.Up(d) && l.hostsOps(d) {
			return true
		}
	}
	if measured.Relative < 1-dropFrac {
		return true
	}
	if len(l.window) > 0 {
		peak := l.window[0]
		for _, r := range l.window[1:] {
			if r > peak {
				peak = r
			}
		}
		if measured.Relative < (1-dropFrac)*peak {
			return true
		}
	}
	return false
}

func (l *Loop) hostsOps(d int) bool {
	for _, a := range l.cur.Assign {
		if a == d {
			return true
		}
	}
	return false
}

func (l *Loop) pushWindow(rel float64) {
	l.window = append(l.window, rel)
	if len(l.window) > detectWindow {
		l.window = l.window[len(l.window)-detectWindow:]
	}
}

// replan searches for a migration with escalating scope, one level at a
// time until a candidate beats staying put. The context is checked
// before each level; the search itself is deterministic.
func (l *Loop) replan(ctx context.Context, st sim.DriftState, measured sim.Result) (candidate, int, error) {
	// Every escalation level collapses along the same ranking.
	order := stream.RankEdges(l.scorer.Probs(l.g, l.c))
	stay := l.utility(measured.Relative, 0)
	for level := 0; level < l.cfg.Escalations; level++ {
		if err := ctx.Err(); err != nil {
			return candidate{}, -1, err
		}
		region := l.selectRegion(measured, st, level)
		if best, ok := l.pickBest(l.candidates(region, st, order), stay); ok {
			return best, level, nil
		}
	}
	return candidate{}, -1, ErrNoFeasible
}

// utility trades throughput against normalized migration cost.
func (l *Loop) utility(rel, moveCost float64) float64 {
	return rel - l.cfg.MoveCostWeight*moveCost/(l.totalCost+1e-12)
}

// pickBest returns the candidate with the highest utility that strictly
// beats staying put. Ties prefer the cheaper migration, then the
// earlier candidate — all deterministic.
func (l *Loop) pickBest(cands []candidate, stay float64) (candidate, bool) {
	best := candidate{}
	bestU := stay
	found := false
	for _, cd := range cands {
		u := l.utility(cd.rel, cd.moveCost)
		if u > bestU+1e-12 || (found && u > bestU-1e-12 && cd.moveCost < best.moveCost-1e-12) {
			best, bestU, found = cd, u, true
		}
	}
	return best, found
}

func cloneState(st sim.DriftState) sim.DriftState {
	out := st
	out.Available = append([]bool(nil), st.Available...)
	return out
}

// selectRegion picks the devices whose operators are eligible to move
// at the given escalation level: the level-scaled number of most
// pressured devices (stranded devices dominate — their vanishing
// capacity makes measured utilization enormous). The final level always
// covers the whole cluster.
func (l *Loop) selectRegion(measured sim.Result, st sim.DriftState, level int) map[int]bool {
	size := l.cfg.MaxRegionDevices << level
	lastLevel := l.cfg.Escalations - 1
	if level >= lastLevel || size >= l.c.Devices {
		size = l.c.Devices
	}
	type dp struct {
		d        int
		pressure float64
	}
	var hosts []dp
	for d := 0; d < l.c.Devices; d++ {
		if !l.hostsOps(d) {
			continue
		}
		p := measured.DeviceUtil[d]
		if measured.NetUtil[d] > p {
			p = measured.NetUtil[d]
		}
		hosts = append(hosts, dp{d, p})
	}
	sort.Slice(hosts, func(i, j int) bool {
		if hosts[i].pressure != hosts[j].pressure {
			return hosts[i].pressure > hosts[j].pressure
		}
		return hosts[i].d < hosts[j].d
	})
	region := map[int]bool{}
	for i := 0; i < len(hosts) && i < size; i++ {
		region[hosts[i].d] = true
	}
	// The measured bottleneck is always worth replanning around.
	if measured.Bottleneck != sim.BottleneckNone && l.hostsOps(measured.BottleneckDevice) {
		region[measured.BottleneckDevice] = true
	}
	return region
}

// Process-wide re-allocation metrics.
var (
	obsSteps         = obs.Default.Counter("realloc_steps_total")
	obsTriggers      = obs.Default.Counter("realloc_triggers_total")
	obsReplans       = obs.Default.Counter("realloc_replans_total")
	obsMigrations    = obs.Default.Counter("realloc_migrations_total")
	obsDegradedTotal = obs.Default.Counter("realloc_degraded_total")
	obsDegraded      = obs.Default.Gauge("realloc_degraded")
)
