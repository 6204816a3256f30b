// Command multilevel walks through recursive multilevel allocation on
// graphs far larger than anything the model was trained on.
//
// One-shot coarsening (Pipeline.Allocate) ranks every edge with a single
// forward pass and contracts straight to device scale — at hundreds of
// thousands of nodes that one ranking decides everything, and the sweep's
// repeated full-graph simulations dominate wall clock. AllocateMultilevel
// instead coarsens a bounded factor per level, re-scoring each level's
// graph with a fresh forward pass, partitions at the coarsest level, and
// projects the placement back up with model-score-guided boundary
// refinement at every level (the classic Metis scheme, with the learned
// merge probability as both the matching heuristic and the refinement
// priority).
//
// The model here is pretrained only on medium graphs (100–200 nodes) —
// the paper's generalization story — and then allocates an unseen
// ~1,700-node graph both ways, followed by a ~100k-node graph from the
// huge setting through the multilevel driver. Everything is seeded, so
// the output is deterministic (see the expected output at the bottom).
package main

import (
	"fmt"
	"log"

	streamcoarsen "repro"
)

func main() {
	// Pretrain the coarsening model on the medium setting only: a few
	// Metis-guided imitation epochs, no REINFORCE, so the example runs in
	// seconds. The point is size generalization, not peak reward.
	med := streamcoarsen.MediumSetting()
	med.TrainN, med.TestN = 8, 1
	data := med.Generate()

	model := streamcoarsen.NewModel(streamcoarsen.DefaultModelConfig())
	pipe := streamcoarsen.NewPipeline(model)
	cfg := streamcoarsen.DefaultTrainConfig()
	cfg.PretrainEpochs, cfg.Epochs = 6, 0
	trainer := streamcoarsen.NewTrainer(cfg, model, pipe)
	if err := trainer.TrainOn(data.Train, data.Cluster); err != nil {
		log.Fatal(err)
	}

	// Part 1 — one-shot vs multilevel on an unseen graph an order of
	// magnitude past the training sizes: the xlarge setting (1,000–2,000
	// nodes, 20 devices). At this still-modest size a single ranking over
	// ~10k edges is well within one forward pass, so the two paths land
	// in the same ballpark; the comparison shows the mechanics.
	xl := streamcoarsen.XLargeSetting()
	xl.TrainN, xl.TestN = 1, 1
	g := xl.Generate().Test[0]
	cluster := xl.Cluster
	fmt.Printf("xlarge graph: %d nodes, %d edges, %d devices\n",
		g.NumNodes(), g.NumEdges(), cluster.Devices)

	flat := pipe.Allocate(g, cluster)
	flatR := streamcoarsen.Reward(g, flat.Placement, cluster)
	fmt.Printf("  one-shot   : %6d -> %5d supernodes   throughput %7.0f tuples/s\n",
		g.NumNodes(), flat.Coarse.NumSuper, flatR*g.SourceRate)

	// DefaultMultilevelConfig is what coarsenrl -multilevel uses; the
	// knobs are the leaf size handed to the flat pipeline, the per-level
	// coarsening factor, and the refinement sweeps per level.
	mcfg := streamcoarsen.DefaultMultilevelConfig()
	ml := pipe.AllocateMultilevel(g, cluster, mcfg)
	mlR := streamcoarsen.Reward(g, ml.Placement, cluster)
	fmt.Printf("  multilevel : %6d -> %5d supernodes   throughput %7.0f tuples/s\n",
		g.NumNodes(), ml.Coarse.NumSuper, mlR*g.SourceRate)
	fmt.Printf("  config: leaf %d, factor %d per level, %d refine passes\n",
		mcfg.LeafSize, mcfg.CoarsenFactor, mcfg.RefinePasses)

	// Part 2 — the scale the driver exists for: a ~100k-node graph from
	// the huge setting (layered O(E) construction, 32 devices), coarsened
	// recursively. Each level's forward pass scores a graph of bounded
	// size instead of squeezing 150k edge decisions through one ranking;
	// the first contraction alone takes 100k nodes down by the coarsening
	// factor. (One-shot at this size spends most of its time in the
	// ranking sweep's repeated full-graph simulations — try it.)
	h := streamcoarsen.HugeSetting()
	hg := h.Generate().Test[0]
	fmt.Printf("huge graph: %d nodes, %d edges, %d devices\n",
		hg.NumNodes(), hg.NumEdges(), h.Cluster.Devices)

	hml := pipe.AllocateMultilevel(hg, h.Cluster, mcfg)
	hR := streamcoarsen.Reward(hg, hml.Placement, h.Cluster)
	fmt.Printf("  multilevel : %6d -> %5d supernodes at level 1   throughput %7.0f tuples/s\n",
		hg.NumNodes(), hml.Coarse.NumSuper, hR*hg.SourceRate)
	devs := make(map[int]bool)
	for _, d := range hml.Placement.Assign {
		devs[d] = true
	}
	fmt.Printf("  placement  : %d operators on %d devices\n",
		len(hml.Placement.Assign), len(devs))
}

// Expected output (seeded end to end, so byte-identical across runs):
//
//	xlarge graph: 1733 nodes, 9760 edges, 20 devices
//	  one-shot   :   1733 ->   779 supernodes   throughput    2789 tuples/s
//	  multilevel :   1733 ->   600 supernodes   throughput    2636 tuples/s
//	  config: leaf 600, factor 8 per level, 2 refine passes
//	huge graph: 100205 nodes, 151389 edges, 32 devices
//	  multilevel : 100205 -> 12525 supernodes at level 1   throughput     814 tuples/s
//	  placement  : 100205 operators on 8 devices
//
// The coarsest-level partition concentrates load on a subset of the 32
// devices — a model pretrained on 10-device medium graphs has never seen
// a wide cluster, which is exactly the kind of gap REINFORCE fine-tuning
// at scale (ROADMAP: train the multilevel path) is meant to close.
//
// Runs in ~20 s, most of it the 100k-node recursion. See `coarsenrl
// -multilevel` for the CLI path and `make bench-huge` for the gated
// 100k-node encode benchmark.
