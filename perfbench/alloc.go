package main

import (
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/autodiff"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/gnn"
	"repro/internal/nn"
	"repro/internal/placer"
	"repro/internal/sim"
	"repro/internal/stream"
)

// checkPlacement is the correctness check every placement passes: it
// covers the graph, fits the cluster, and its relative throughput is
// finite and in [0,1]. It returns that relative throughput.
func checkPlacement(g *stream.Graph, p *stream.Placement, c sim.Cluster) (float64, error) {
	if p == nil {
		return 0, fmt.Errorf("no placement")
	}
	if err := p.Validate(g); err != nil {
		return 0, err
	}
	if p.Devices > c.Devices {
		return 0, fmt.Errorf("placement uses %d devices, cluster has %d", p.Devices, c.Devices)
	}
	r := sim.Reward(g, p, c)
	if math.IsNaN(r) || math.IsInf(r, 0) || r < 0 || r > 1 {
		return 0, fmt.Errorf("relative throughput %v outside [0,1]", r)
	}
	return r, nil
}

// allocLoop holds the state one closed-loop allocation workload shares
// between its untraced and traced runs.
type allocLoop struct {
	graphs []*stream.Graph
	c      sim.Cluster
	pipe   *core.Pipeline
	alloc  func(pipe *core.Pipeline, g *stream.Graph) core.Allocation
	first  [][]int   // first placement of each graph
	rel    []float64 // relative throughput of each graph's first placement
	cpu    samples   // CPU ms of each untraced allocation
	heapMB samples   // MB allocated on the heap by each untraced allocation
}

// allocate runs one untraced allocation of graph i, checks it and
// returns its duration.
func (l *allocLoop) allocate(r *report, i int) time.Duration {
	gi := i % len(l.graphs)
	g := l.graphs[gi]
	h0, c0 := readGoStats().allocBytes, cpuTime()
	t0 := time.Now()
	a := l.alloc(l.pipe, g)
	d := time.Since(t0)
	l.cpu = append(l.cpu, ms(cpuTime()-c0))
	l.heapMB = append(l.heapMB, (readGoStats().allocBytes-h0)/1e6)
	r.attempted++
	l.check(r, gi, a.Placement)
	return d
}

// check applies the placement check and, on repeats, requires the same
// placement as the graph's first allocation.
func (l *allocLoop) check(r *report, gi int, p *stream.Placement) {
	if l.first[gi] == nil {
		rel, err := checkPlacement(l.graphs[gi], p, l.c)
		if err != nil {
			r.fail("graph %d: %v", gi, err)
			return
		}
		l.first[gi] = slices.Clone(p.Assign)
		l.rel[gi] = rel
		return
	}
	if p == nil || !slices.Equal(p.Assign, l.first[gi]) {
		r.fail("graph %d: repeated allocation gave a different placement", gi)
	}
}

// run measures untraced allocations until the deadline, and at least
// one pass over the pool so every graph is checked.
func (l *allocLoop) run(r *report, dur time.Duration) samples {
	var lat samples
	deadline := time.Now().Add(dur)
	for i := 0; i < len(l.graphs) || time.Now().Before(deadline); i++ {
		lat = append(lat, ms(l.allocate(r, i)))
	}
	return lat
}

// report fills the end-to-end metrics of an allocation workload.
func (l *allocLoop) report(r *report, lat samples, name string) error {
	rss, err := peakRSSMB("self")
	if err != nil {
		return err
	}
	rel := samples(l.rel)
	r.set("cpu_ms_per_op", l.cpu.mean(), len(l.cpu))
	r.set("alloc_mb_per_op", l.heapMB.mean(), len(l.heapMB))
	r.set("quality", rel.mean(), len(rel))
	r.detailf("peak_rss_mb", rss, "MB", 1)
	r.detailf("alloc_per_s", float64(len(lat))/(lat.sum()/1e3), "1/s", len(lat))
	r.detailf("alloc_p50_ms", lat.median(), "ms", len(lat))
	if name == "alloc-large" {
		r.detailf("alloc_p95_ms", lat.quantile(0.95), "ms", len(lat))
		r.detailf("alloc_p95_ms.samples_beyond", float64(lat.beyond(0.95)), "count", len(lat))
	}
	r.detailf("rel_throughput_mean", rel.mean(), "T/I", len(rel))
	return nil
}

// stageSums accumulates per-operation stage times of a traced run.
type stageSums map[string]samples

func (s stageSums) add(name string, v float64) { s[name] = append(s[name], v) }

// setMeans reports each stage's mean per operation. Means, not medians,
// keep the stage shares additive.
func (s stageSums) setMeans(r *report) {
	for name, v := range s {
		r.set(name, v.mean(), len(v))
	}
}

// runAllocLarge is the alloc-large workload: one closed-loop caller of
// Pipeline.Allocate over Large-setting graphs.
func runAllocLarge(o options, r *report) error {
	s := gen.Large()
	// Latency varies about 2x between Large graphs, so the pool is large
	// enough that its quantiles and mean quality barely depend on the seed.
	pool := 160
	if o.tiny {
		s.Config.MinNodes, s.Config.MaxNodes = 30, 40
		pool = 3
	}
	l := &allocLoop{c: s.Cluster, alloc: func(p *core.Pipeline, g *stream.Graph) core.Allocation { return p.Allocate(g, s.Cluster) }}
	if err := timeSetup(r, 3, func() (time.Duration, error) {
		l.graphs = gen.GenerateSet(s.Config, pool, o.seed)
		l.pipe = &core.Pipeline{Model: core.New(core.DefaultConfig()), Placer: placer.Metis{Seed: 1}}
		l.pipe.Allocate(l.graphs[0], s.Cluster) // fill the tensor arena and forward-tape pool
		return 0, nil
	}); err != nil {
		return err
	}
	l.first = make([][]int, len(l.graphs))
	l.rel = make([]float64, len(l.graphs))
	if !o.trace {
		lat := l.run(r, o.dur)
		return l.report(r, lat, o.workload)
	}

	tr := newTracer()
	tp := &timedPlacer{inner: placer.Metis{Seed: 1}, tr: tr}
	tpipe := &core.Pipeline{Model: l.pipe.Model, Placer: tp}
	binder := nn.NewBinder(autodiff.NewTape())
	st := stageSums{}
	traced, err := l.traceRun(r, o.dur, 16, func(i, gi int) (time.Duration, time.Duration, error) {
		return tracedAllocate(tr, int64(i), tp, tpipe, binder, l.graphs[gi], s.Cluster, st, func(a core.Allocation) {
			r.attempted++
			l.check(r, gi, a.Placement)
		})
	})
	if err != nil {
		return err
	}
	st.setMeans(r)
	sum := 0.0
	for _, k := range []string{"gnn.features_ms", "gnn.encode_ms", "core.edge_head_ms", "stream.collapse_ms",
		"stream.coarse_graph_ms", "metis.partition_ms", "stream.expand_ms", "sim.reward_ms", "core.sweep_self_ms"} {
		sum += st[k].mean()
	}
	r.set("trace.stage_sum_frac", sum/traced.mean(), len(traced))
	return tr.writeFile(o.spanPath())
}

// traceRun is the traced run of an allocation workload. It spends a third
// of dur on untraced allocations for the Go runtime figures, then runs
// pairs of an untraced allocation and traced(i, gi) of the same graph,
// in whole passes over the first n graphs so the per-allocation counts
// depend on the seed alone. The pairs' order alternates so warm caches
// favour neither side; their median duration ratio is the tracing
// overhead. It returns the traced durations (ms).
func (l *allocLoop) traceRun(r *report, dur time.Duration, n int,
	traced func(i, gi int) (d, replay time.Duration, err error)) (samples, error) {
	before := readGoStats()
	base := l.run(r, dur/3)
	r.setGoStats(before, readGoStats(), len(base))

	n = min(n, len(l.graphs))
	var tracedMS, replayMS, overhead samples
	deadline := time.Now().Add(dur - dur/3)
	for i := 0; i == 0 || i%n != 0 || time.Now().Before(deadline); i++ {
		gi := i % n
		var u time.Duration
		if i%2 == 0 {
			u = l.allocate(r, gi)
		}
		d, rep, err := traced(i, gi)
		if err != nil {
			return nil, err
		}
		if i%2 == 1 {
			u = l.allocate(r, gi)
		}
		tracedMS = append(tracedMS, ms(d))
		replayMS = append(replayMS, ms(rep))
		overhead = append(overhead, float64(d)/float64(u)-1)
	}
	r.set("trace.overhead_frac", overhead.median(), len(overhead))
	r.set("trace.replay_ms", replayMS.mean(), len(replayMS))
	r.detailf("traced_alloc_ms", tracedMS.mean(), "ms", len(tracedMS))
	return tracedMS, nil
}

// tracedAllocate runs what Pipeline.Allocate runs — Probs, then the rank
// sweep — inside spans, with every partition call timed through tp. It
// then replays the layers those calls hide: features, encode and the
// edge head of the forward pass, and each sweep candidate's collapse →
// coarse graph → expand → reward, rebuilt with core.CoarsenToRanked at
// the super-node count the partitioner saw. It returns the traced
// allocation's duration and the replay's.
func tracedAllocate(tr *tracer, id int64, tp *timedPlacer, tpipe *core.Pipeline, binder *nn.Binder,
	g *stream.Graph, c sim.Cluster, st stageSums, check func(core.Allocation)) (time.Duration, time.Duration, error) {
	model := tpipe.Model
	root := tr.begin("allocate", id, -1, false)
	pi := tr.begin("core.probs", id, root, false)
	probs := model.Probs(g, c)
	tr.finish(pi)
	sw := tr.begin("core.sweep", id, root, false)
	tp.reset(id, sw)
	a := tpipe.AllocateRanked(g, c, probs)
	tr.finish(sw)
	total := tr.finish(root)
	check(a)

	rp := tr.begin("replay", id, -1, true)
	var f *gnn.Features
	feat := tr.timed("gnn.features", id, pi, true, func() { f = gnn.BuildFeatures(g, c) })
	binder.Reset()
	ep := tr.begin("core.edge_probs", id, pi, true)
	model.EdgeProbs(binder, f)
	tr.finish(ep)
	binder.Reset()
	enc := tr.timed("gnn.encode", id, ep, true, func() { model.Enc.Encode(binder, f) })

	var collapse, coarse, expand, reward time.Duration
	var coarseNodes samples
	for _, call := range tp.calls {
		target := call.coarse.NumNodes()
		d := core.CoarsenToRanked(g, target, probs)
		var cm *stream.CoarseMap
		var cg *stream.Graph
		var p *stream.Placement
		collapse += tr.timed("stream.collapse", id, sw, true, func() { cm = stream.CollapseEdges(g, d) })
		coarse += tr.timed("stream.coarse_graph", id, sw, true, func() { cg = stream.CoarseGraph(g, cm) })
		if cg.NumNodes() != target {
			return 0, 0, fmt.Errorf("sweep replay rebuilt %d super-nodes, the partitioner saw %d", cg.NumNodes(), target)
		}
		expand += tr.timed("stream.expand", id, sw, true, func() { p = stream.ExpandPlacement(cm, call.place) })
		reward += tr.timed("sim.reward", id, sw, true, func() { sim.Reward(g, p, c) })
		coarseNodes = append(coarseNodes, float64(target))
	}
	rep := tr.finish(rp)
	calls, metis := tp.total()

	st.add("gnn.features_ms", ms(feat))
	st.add("gnn.encode_ms", ms(enc))
	st.add("core.edge_head_ms", ms(tr.dur(ep)-enc))
	st.add("core.probs_ms", ms(tr.dur(pi)))
	st.add("core.sweep_ms", ms(tr.dur(sw)))
	st.add("core.sweep_self_ms", ms(tr.selfTime(sw)))
	st.add("core.sweep_candidates", float64(calls))
	st.add("stream.collapse_ms", ms(collapse))
	st.add("stream.coarse_graph_ms", ms(coarse))
	st.add("stream.expand_ms", ms(expand))
	st.add("stream.coarse_nodes_mean", coarseNodes.mean())
	st.add("metis.partition_ms", ms(metis))
	st.add("metis.partition_calls", float64(calls))
	st.add("sim.reward_ms", ms(reward))
	st.add("sim.reward_calls", float64(calls))
	return total, rep, nil
}

// runMultilevelHuge is the multilevel-huge workload: one closed-loop
// caller of Pipeline.AllocateMultilevel on layered Huge-setting graphs.
func runMultilevelHuge(o options, r *report) error {
	s := gen.Huge()
	cfg := s.Config
	// Refinement work varies about 5x, and relative throughput about 1.5x,
	// between graphs of one size, so the run cycles a pool of 12.5k-operator
	// graphs rather than one 100k graph.
	cfg.MinNodes, cfg.MaxNodes = 12_500, 12_500
	pool := 48
	mcfg := core.DefaultMultilevelConfig()
	if o.tiny {
		cfg.MinNodes, cfg.MaxNodes = 3000, 3000
		pool = 2
	}
	l := &allocLoop{c: s.Cluster, alloc: func(p *core.Pipeline, g *stream.Graph) core.Allocation {
		return p.AllocateMultilevel(g, s.Cluster, mcfg)
	}}
	if err := timeSetup(r, 3, func() (time.Duration, error) {
		l.graphs = gen.GenerateSet(cfg, pool, o.seed)
		l.pipe = &core.Pipeline{Model: core.New(core.DefaultConfig()), Placer: placer.Metis{Seed: 1}}
		l.alloc(l.pipe, l.graphs[0]) // fill the tensor arena and forward-tape pool
		return 0, nil
	}); err != nil {
		return err
	}
	l.first = make([][]int, len(l.graphs))
	l.rel = make([]float64, len(l.graphs))
	if !o.trace {
		lat := l.run(r, o.dur)
		return l.report(r, lat, o.workload)
	}

	tr := newTracer()
	tp := &timedPlacer{inner: placer.Metis{Seed: 1}, tr: tr, replay: true}
	tpipe := &core.Pipeline{Model: l.pipe.Model, Placer: tp}
	binder := nn.NewBinder(autodiff.NewTape())
	st := stageSums{}
	if _, err := l.traceRun(r, o.dur, 4, func(i, gi int) (time.Duration, time.Duration, error) {
		g := l.graphs[gi]
		root := tr.begin("allocate", int64(i), -1, false)
		a := l.alloc(l.pipe, g)
		total := tr.finish(root)
		r.attempted++
		l.check(r, gi, a.Placement)
		rep, err := replayMultilevel(tr, int64(i), root, tp, tpipe, binder, g, s.Cluster, mcfg, st)
		return total, rep, err
	}); err != nil {
		return err
	}
	st.setMeans(r)
	return tr.writeFile(o.spanPath())
}

// replayMultilevel re-runs AllocateMultilevel's levels from outside:
// per level features → forward → CoarsenToRanked → collapse → coarse
// graph, then the leaf allocation with timed partition calls, then the
// expansions back up. Boundary refinement is the one stage it cannot
// call, so it is what remains of the traced call: the root's self time.
func replayMultilevel(tr *tracer, id int64, root int, tp *timedPlacer, tpipe *core.Pipeline, binder *nn.Binder,
	g *stream.Graph, c sim.Cluster, mcfg core.MultilevelConfig, st stageSums) (time.Duration, error) {
	model := tpipe.Model
	rp := tr.begin("replay", id, -1, true)
	var features, encode, edgeProbs, coarsen, collapse, coarse, expand time.Duration
	var maps []*stream.CoarseMap
	cur := g
	for cur.NumNodes() > mcfg.LeafSize {
		var f *gnn.Features
		features += tr.timed("gnn.features", id, root, true, func() { f = gnn.BuildFeatures(cur, c) })
		binder.Reset()
		ep := tr.begin("core.edge_probs", id, root, true)
		probs := slices.Clone(model.EdgeProbs(binder, f).Value.Data)
		edgeProbs += tr.finish(ep)
		binder.Reset()
		encode += tr.timed("gnn.encode", id, ep, true, func() { model.Enc.Encode(binder, f) })
		target := max(cur.NumNodes()/mcfg.CoarsenFactor, mcfg.LeafSize)
		var d core.Decision
		coarsen += tr.timed("core.coarsen_to_ranked", id, root, true, func() { d = core.CoarsenToRanked(cur, target, probs) })
		var cm *stream.CoarseMap
		collapse += tr.timed("stream.collapse", id, root, true, func() { cm = stream.CollapseEdges(cur, d) })
		if cm.NumSuper >= cur.NumNodes() {
			break
		}
		var cg *stream.Graph
		coarse += tr.timed("stream.coarse_graph", id, root, true, func() { cg = stream.CoarseGraph(cur, cm) })
		maps = append(maps, cm)
		cur = cg
	}
	leaf := tr.begin("core.leaf_allocate", id, root, true)
	tp.reset(id, leaf)
	a := tpipe.Allocate(cur, c)
	tr.finish(leaf)
	p := a.Placement
	for i := len(maps) - 1; i >= 0; i-- {
		expand += tr.timed("stream.expand", id, root, true, func() { p = stream.ExpandPlacement(maps[i], p) })
	}
	rep := tr.finish(rp)
	if err := p.Validate(g); err != nil {
		return 0, fmt.Errorf("multilevel replay: %w", err)
	}
	calls, metis := tp.total()
	st.add("core.multilevel_levels", float64(len(maps)))
	st.add("core.multilevel_probs_ms", ms(features+edgeProbs))
	st.add("core.probs_ms", ms(features+edgeProbs))
	st.add("core.multilevel_coarsen_ms", ms(coarsen))
	st.add("core.multilevel_refine_ms", ms(tr.selfTime(root)))
	st.add("gnn.features_ms", ms(features))
	st.add("gnn.encode_ms", ms(encode))
	st.add("core.edge_head_ms", ms(edgeProbs-encode))
	st.add("stream.collapse_ms", ms(collapse))
	st.add("stream.coarse_graph_ms", ms(coarse))
	st.add("stream.expand_ms", ms(expand))
	st.add("stream.coarse_nodes_mean", float64(cur.NumNodes()))
	st.add("core.sweep_ms", ms(tr.dur(leaf)))
	st.add("core.sweep_candidates", float64(calls))
	st.add("metis.partition_ms", ms(metis))
	st.add("metis.partition_calls", float64(calls))
	return rep, nil
}
