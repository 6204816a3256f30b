package streamcoarsen

import (
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/autodiff"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/gen"
	"repro/internal/gnn"
	"repro/internal/metis"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/placer"
	"repro/internal/rl"
	rtpkg "repro/internal/runtime"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/stream"
	"repro/internal/tensor"
)

// benchHarness is a shared quick-budget harness: models train once per
// process, so each benchmark iteration measures the experiment's
// evaluation work (the paper's tables/figures are evaluation artifacts).
var (
	benchOnce sync.Once
	benchH    *eval.Harness
)

func harness() *eval.Harness {
	benchOnce.Do(func() {
		benchH = eval.NewHarness(0.12, eval.QuickBudget())
		benchH.Quiet = true
		benchH.Out = io.Discard
	})
	return benchH
}

// Experiment benches: one per table and figure of the evaluation section.

func BenchmarkFig1MotivatingCDF(b *testing.B) {
	h := harness()
	h.Fig1() // train/cache models outside the timed loop
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Fig1()
	}
}

func BenchmarkTable1AUC(b *testing.B) {
	h := harness()
	h.Table1()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Table1()
	}
}

func BenchmarkFig5MediumCDF(b *testing.B) {
	h := harness()
	h.Fig5()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Fig5()
	}
}

func BenchmarkFig6Generalize(b *testing.B) {
	h := harness()
	h.Fig6()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Fig6()
	}
}

func BenchmarkFig7Excess(b *testing.B) {
	h := harness()
	h.Fig7()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Fig7()
	}
}

func BenchmarkFig8Compression(b *testing.B) {
	h := harness()
	h.Fig8()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Fig8()
	}
}

func BenchmarkFig9Saturation(b *testing.B) {
	h := harness()
	h.Fig9()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Fig9()
	}
}

func BenchmarkTable2Ablation(b *testing.B) {
	h := harness()
	h.Table2()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Re-evaluate the cached best model's rows (ablation models are
		// retrained inside Table2; keeping the full call measures the
		// table's end-to-end regeneration).
		h.Table2()
	}
}

func BenchmarkTable3Inference(b *testing.B) {
	h := harness()
	h.Table3()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Table3()
	}
}

func BenchmarkFig3Qualitative(b *testing.B) {
	h := harness()
	h.Fig3()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Fig3()
	}
}

// Micro-benchmarks for the substrates.

// matMulShapes is shared by the allocating and destination-passing MatMul
// variants. Names embed MxKxN so benchjson can derive FLOPs (2·m·k·n) and
// report GFLOP/s. The square sizes track raw kernel throughput; the encode
// shapes are the tall-skinny products the GNN encoder actually runs
// (E×2M · 2M×M message transform, N×2M · 2M×M node update at M=24).
var matMulShapes = []struct {
	tag     string
	m, k, n int
}{
	{"square", 32, 32, 32},
	{"square", 128, 128, 128},
	{"square", 512, 512, 512},
	{"encode-msg", 2048, 48, 24},
	{"encode-update", 460, 48, 24},
}

func BenchmarkMatMul(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, s := range matMulShapes {
		x := tensor.New(s.m, s.k)
		y := tensor.New(s.k, s.n)
		x.RandUniform(rng, 1)
		y.RandUniform(rng, 1)
		name := fmt.Sprintf("%s-%dx%dx%d", s.tag, s.m, s.k, s.n)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tensor.MatMul(x, y)
			}
		})
		b.Run(name+"-into", func(b *testing.B) {
			b.ReportAllocs()
			dst := tensor.New(s.m, s.n)
			for i := 0; i < b.N; i++ {
				tensor.MatMulInto(x, y, dst)
			}
		})
	}
}

// BenchmarkKernels covers the transposed-product and fused kernels behind
// the autodiff tape ops (make bench-kernels). Names embed the dims of the
// equivalent plain product so GFLOP/s is comparable with BenchmarkMatMul.
func BenchmarkKernels(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	const e, m2, m = 2048, 48, 24 // encoder message-transform shape
	h := tensor.New(e/4, m2)      // node embeddings (E/4 nodes)
	w := tensor.New(m2, m)
	wT2 := tensor.New(m, m2)
	add := tensor.New(e, m)
	bias := tensor.New(1, m)
	for _, mt := range []*tensor.Matrix{h, w, wT2, add, bias} {
		mt.RandUniform(rng, 1)
	}
	idx := make([]int, e)
	for i := range idx {
		idx[i] = rng.Intn(h.Rows)
	}
	gathered := tensor.New(e, m2)
	tensor.GatherRowsInto(h, idx, gathered)

	b.Run(fmt.Sprintf("matmulT1-%dx%dx%d", m2, e, m), func(b *testing.B) {
		b.ReportAllocs()
		dst := tensor.New(m2, m)
		for i := 0; i < b.N; i++ {
			tensor.MatMulT1Into(gathered, add, dst)
		}
	})
	b.Run(fmt.Sprintf("matmulT2-%dx%dx%d", e, m2, m), func(b *testing.B) {
		b.ReportAllocs()
		dst := tensor.New(e, m)
		for i := 0; i < b.N; i++ {
			tensor.MatMulT2Into(gathered, wT2, dst)
		}
	})
	b.Run(fmt.Sprintf("matmul-tanh-%dx%dx%d", e, m2, m), func(b *testing.B) {
		b.ReportAllocs()
		dst := tensor.New(e, m)
		for i := 0; i < b.N; i++ {
			tensor.MatMulTanhInto(gathered, w, dst)
		}
	})
	b.Run(fmt.Sprintf("gather-matmul-add-tanh-%dx%dx%d", e, m2, m), func(b *testing.B) {
		b.ReportAllocs()
		dst := tensor.New(e, m)
		for i := 0; i < b.N; i++ {
			tensor.GatherMatMulAddTanhInto(h, idx, w, add, dst)
		}
	})
	b.Run(fmt.Sprintf("affine-tanh-%dx%dx%d", e, m2, m), func(b *testing.B) {
		b.ReportAllocs()
		dst := tensor.New(e, m)
		for i := 0; i < b.N; i++ {
			tensor.MatMulT2BiasTanhInto(gathered, wT2, bias, dst)
		}
	})
	b.Run("tanh-into-2048x48", func(b *testing.B) {
		b.ReportAllocs()
		dst := tensor.New(e, m2)
		for i := 0; i < b.N; i++ {
			tensor.TanhInto(gathered, dst)
		}
	})
}

func BenchmarkGNNEncode(b *testing.B) {
	c := sim.DefaultCluster(10, 1000)
	hugeCfg := gen.Huge().Config
	hugeCfg.MinNodes, hugeCfg.MaxNodes = 100_000, 100_000
	for _, size := range []struct {
		name string
		cfg  gen.Config
	}{
		{"medium", gen.DefaultConfig(100, 200, 10_000, c)},
		{"large", gen.DefaultConfig(400, 500, 10_000, c)},
		// huge exercises the layered ~100k-node construction; run it under a
		// fixed GOMEMLIMIT (make bench-huge) so B/op numbers are comparable.
		{"huge", hugeCfg},
	} {
		g := gen.Generate(size.cfg, rand.New(rand.NewSource(2)))
		f := gnn.BuildFeatures(g, size.cfg.Cluster)
		ps := nn.NewParamSet()
		enc := gnn.NewEncoder(ps, "enc", 24, 2, rand.New(rand.NewSource(3)))
		b.Run(size.name, func(b *testing.B) {
			// Steady-state hot path exactly as the trainer runs it: one
			// binder/tape reused across steps via Reset, with layer
			// scratch and gradients recycled through the tensor arena.
			// One untimed pass fills the arena so
			// ns/op and B/op measure the steady state, not the one-time
			// working-set allocation.
			binder := nn.NewBinder(autodiff.NewTape())
			binder.Reset()
			enc.Encode(binder, f)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				binder.Reset()
				enc.Encode(binder, f)
			}
		})
	}
}

func BenchmarkMetisPartition(b *testing.B) {
	c := sim.DefaultCluster(10, 1500)
	cfg := gen.DefaultConfig(400, 500, 10_000, c)
	g := gen.Generate(cfg, rand.New(rand.NewSource(4)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		metis.Partition(g, metis.Options{Parts: 10, Seed: int64(i)})
	}
}

func BenchmarkCoarsenAllocate(b *testing.B) {
	c := sim.DefaultCluster(10, 1500)
	cfg := gen.DefaultConfig(400, 500, 10_000, c)
	g := gen.Generate(cfg, rand.New(rand.NewSource(5)))
	model := core.New(core.DefaultConfig())
	pipe := &core.Pipeline{Model: model, Placer: placer.Metis{Seed: 1}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pipe.Allocate(g, c)
	}
}

// BenchmarkCoarsenAllocateMixed is BenchmarkCoarsenAllocate over eight
// Large graphs of distinct sizes, one allocation of each per op, as a
// serving or training loop meets them. The other gated benchmarks reuse
// one graph, so every tape buffer finds a pooled buffer of its exact
// size; here each pass follows one over a graph of another size, so B/op
// shows how well the tensor arena recycles buffers across sizes.
func BenchmarkCoarsenAllocateMixed(b *testing.B) {
	c := sim.DefaultCluster(10, 1500)
	graphs := gen.GenerateSet(gen.DefaultConfig(400, 500, 10_000, c), 8, 5)
	sizes := map[int]bool{}
	for _, g := range graphs {
		sizes[g.NumNodes()] = true
	}
	if len(sizes) != len(graphs) {
		b.Fatalf("%d distinct sizes among %d graphs", len(sizes), len(graphs))
	}
	pipe := &core.Pipeline{Model: core.New(core.DefaultConfig()), Placer: placer.Metis{Seed: 1}}
	for _, g := range graphs {
		pipe.Allocate(g, c) // fill the tensor arena and forward-tape pool
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, g := range graphs {
			pipe.Allocate(g, c)
		}
	}
}

// BenchmarkAllocateRanked times the rank sweep alone — collapse, coarse
// graph, Metis, expand and reward for each candidate coarsening — on
// BenchmarkCoarsenAllocate's graph, with the forward pass's merge
// probabilities computed before the timer starts.
func BenchmarkAllocateRanked(b *testing.B) {
	c := sim.DefaultCluster(10, 1500)
	cfg := gen.DefaultConfig(400, 500, 10_000, c)
	g := gen.Generate(cfg, rand.New(rand.NewSource(5)))
	model := core.New(core.DefaultConfig())
	pipe := &core.Pipeline{Model: model, Placer: placer.Metis{Seed: 1}}
	probs := model.Probs(g, c)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pipe.AllocateRanked(g, c, probs)
	}
}

// BenchmarkMetisAdversarial partitions a 4,000-leaf star, whose edges
// arrive in ascending leaf order, and its twin with the order reversed.
// Heavy-edge matching removes one node per level from a star, and a hub
// whose neighbors arrive in descending order is the worst input for a
// per-node insertion sort, so this times the stall rule and the
// counting-sort CSR build.
func BenchmarkMetisAdversarial(b *testing.B) {
	for _, name := range []string{"star-4000", "reverse-star-4000"} {
		g := stream.NewGraph(1000)
		for i := 0; i <= 4000; i++ {
			g.AddNode(stream.Node{IPT: 100, Payload: 10, Selectivity: 1})
		}
		for i := 1; i <= 4000; i++ {
			v := i
			if name == "reverse-star-4000" {
				v = 4001 - i
			}
			g.AddEdge(0, v, 0)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				metis.Partition(g, metis.Options{Parts: 10, Seed: 1})
			}
		})
	}
}

// BenchmarkAllocateMultilevel runs the multilevel driver on one
// 12,500-operator layered Huge-setting graph: a forward pass and
// contraction per level, the rank sweep on the leaf, and boundary
// refinement on the way back up, where contraction hubs appear.
func BenchmarkAllocateMultilevel(b *testing.B) {
	s := gen.Huge()
	cfg := s.Config
	cfg.MinNodes, cfg.MaxNodes = 12_500, 12_500
	g := gen.Generate(cfg, rand.New(rand.NewSource(1)))
	pipe := &core.Pipeline{Model: core.New(core.DefaultConfig()), Placer: placer.Metis{Seed: 1}}
	mcfg := core.DefaultMultilevelConfig()
	pipe.AllocateMultilevel(g, s.Cluster, mcfg) // fill the tensor arena and forward-tape pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pipe.AllocateMultilevel(g, s.Cluster, mcfg)
	}
}

func BenchmarkGraphGeneration(b *testing.B) {
	c := sim.DefaultCluster(10, 1500)
	cfg := gen.DefaultConfig(400, 500, 10_000, c)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen.Generate(cfg, rand.New(rand.NewSource(int64(i))))
	}
}

func BenchmarkCollapseAndExpand(b *testing.B) {
	c := sim.DefaultCluster(10, 1500)
	cfg := gen.DefaultConfig(400, 500, 10_000, c)
	g := gen.Generate(cfg, rand.New(rand.NewSource(6)))
	rng := rand.New(rand.NewSource(7))
	d := make([]bool, g.NumEdges())
	for i := range d {
		d[i] = rng.Float64() < 0.3
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cm := stream.CollapseEdges(g, d)
		cg := stream.CoarseGraph(g, cm)
		cp := stream.NewPlacement(cm.NumSuper, c.Devices)
		stream.ExpandPlacement(cm, cp)
		_ = cg
	}
}

// BenchmarkSimValidate measures the cross-model validation experiment
// (fluid vs discrete-event vs real concurrent runtime).
func BenchmarkSimValidate(b *testing.B) {
	h := harness()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.SimValidate()
	}
}

// Execution-model micro-benchmarks (DES and concurrent runtime).
func BenchmarkSimulateDES(b *testing.B) {
	c := sim.DefaultCluster(5, 1000)
	cfg := gen.DefaultConfig(40, 60, 10_000, c)
	g := gen.Generate(cfg, rand.New(rand.NewSource(9)))
	p := metis.Partition(g, metis.Options{Parts: c.Devices, Seed: 1})
	p.Devices = c.Devices
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.SimulateDES(g, p, c, sim.DefaultDESConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRuntimeExecution(b *testing.B) {
	c := sim.DefaultCluster(3, 500)
	cfg := gen.DefaultConfig(10, 20, 5_000, c)
	g := gen.Generate(cfg, rand.New(rand.NewSource(10)))
	p := metis.Partition(g, metis.Options{Parts: c.Devices, Seed: 1})
	p.Devices = c.Devices
	rtCfg := rtpkg.DefaultConfig()
	rtCfg.WallTime = 60 * time.Millisecond
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rtpkg.Run(g, p, c, rtCfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulate measures one bare fluid-simulator evaluation on a
// large graph — the unit of work that dominates training (every sampled
// decision costs one coarsen → partition → simulate round trip).
func BenchmarkSimulate(b *testing.B) {
	c := sim.DefaultCluster(20, 1500)
	cfg := gen.DefaultConfig(1000, 2000, 10_000, c)
	g := gen.Generate(cfg, rand.New(rand.NewSource(12)))
	p := metis.Partition(g, metis.Options{Parts: c.Devices, Seed: 1})
	p.Devices = c.Devices
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Simulate(g, p, c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainEpoch measures one full REINFORCE epoch over a medium
// curriculum level under the data-parallel variants: the classic serial
// loop (batch1), a graph batch reduced on one worker (batch8/workers1,
// isolating the batching overhead), and the same batch spread over all
// cores (batch8/workersMax — the speedup configuration; on a single-core
// host it necessarily matches workers1). Model construction and guided
// seeding run outside the timer so iterations measure epoch throughput.
func BenchmarkTrainEpoch(b *testing.B) {
	s := gen.Medium5K()
	s.TrainN, s.TestN = 8, 0
	ds := s.Generate()
	for _, v := range []struct {
		name           string
		batch, workers int
	}{
		{"batch1", 1, 1},
		{"batch8-workers1", 8, 1},
		{"batch8-workersMax", 8, 0},
	} {
		b.Run(v.name, func(b *testing.B) {
			cfg := rl.DefaultConfig()
			cfg.Epochs = 1
			cfg.PretrainEpochs = 0
			cfg.MetisGuided = false
			cfg.Quiet = true
			cfg.GraphBatch = v.batch
			cfg.TrainWorkers = v.workers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m := core.New(core.DefaultConfig())
				pipe := &core.Pipeline{Model: m, Placer: placer.Metis{Seed: 1}}
				tr := rl.NewTrainer(cfg, m, pipe)
				b.StartTimer()
				if err := tr.TrainOn(ds.Train, ds.Cluster); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkServe measures the allocation service end-to-end, in process
// (no HTTP): the cold path (unique requests → snapshot-bound forward pass,
// one at a time under the forward lock, + placement) and the cached path
// (repeat requests served straight from the placement LRU), each under 1,
// 8, and 64 concurrent clients.
func BenchmarkServe(b *testing.B) {
	s := gen.Small()
	graphs := s.Generate().Test
	model := core.New(core.DefaultConfig())

	// runClients drains b.N iterations across a fixed client pool.
	runClients := func(b *testing.B, clients int, fn func(i int)) {
		var next int64
		var wg sync.WaitGroup
		for w := 0; w < clients; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(atomic.AddInt64(&next, 1)) - 1
					if i >= b.N {
						return
					}
					fn(i)
				}
			}()
		}
		wg.Wait()
	}

	for _, clients := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("cold-c%d", clients), func(b *testing.B) {
			svc, err := serve.New(serve.Options{Model: model, Registry: obs.NewRegistry()})
			if err != nil {
				b.Fatal(err)
			}
			defer svc.Close()
			b.ReportAllocs()
			b.ResetTimer()
			runClients(b, clients, func(i int) {
				// A unique source-rate view per iteration keeps every
				// fingerprint distinct, forcing the full forward + placement.
				g := graphs[i%len(graphs)].ScaleSourceRate(1 + float64(i)*1e-9)
				if _, err := svc.Allocate(g, s.Cluster); err != nil {
					b.Error(err)
				}
			})
		})
		b.Run(fmt.Sprintf("cached-c%d", clients), func(b *testing.B) {
			svc, err := serve.New(serve.Options{Model: model, Registry: obs.NewRegistry()})
			if err != nil {
				b.Fatal(err)
			}
			defer svc.Close()
			for _, g := range graphs {
				if _, err := svc.Allocate(g, s.Cluster); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			runClients(b, clients, func(i int) {
				if _, err := svc.Allocate(graphs[i%len(graphs)], s.Cluster); err != nil {
					b.Error(err)
				}
			})
		})
	}
}
