// Command quickstart shows the smallest end-to-end use of the library:
// generate a dataset of synthetic stream graphs, train the edge-collapsing
// coarsening model with REINFORCE, and allocate an unseen graph, comparing
// against the Metis baseline.
package main

import (
	"fmt"
	"log"

	streamcoarsen "repro"
)

func main() {
	// The paper's medium setting at 5K tuples/s on 5 devices, shrunk for a
	// quick demonstration.
	setting := streamcoarsen.Medium5KSetting()
	setting.TrainN, setting.TestN = 12, 6
	data := setting.Generate()
	cluster := data.Cluster

	fmt.Printf("dataset %q: %d train / %d test graphs, %d devices\n",
		data.Name, len(data.Train), len(data.Test), cluster.Devices)

	// Train the coarsening model: Metis-guided imitation for the cold
	// start, then REINFORCE on simulated throughput.
	model := streamcoarsen.NewModel(streamcoarsen.DefaultModelConfig())
	pipe := streamcoarsen.NewPipeline(model)
	cfg := streamcoarsen.DefaultTrainConfig()
	cfg.PretrainEpochs, cfg.Epochs = 8, 2
	trainer := streamcoarsen.NewTrainer(cfg, model, pipe)
	if err := trainer.TrainOn(data.Train, cluster); err != nil {
		log.Fatal(err)
	}

	// Allocate every unseen test graph and compare with plain Metis.
	fmt.Printf("\n%-8s %-14s %-14s %-12s\n", "graph", "metis thr/s", "coarsen thr/s", "coarse size")
	for i, g := range data.Test {
		mp := streamcoarsen.MetisPartition(g, cluster.Devices, 1)
		mp.Devices = cluster.Devices
		metisR := streamcoarsen.Reward(g, mp, cluster)

		alloc := pipe.Allocate(g, cluster)
		ourR := streamcoarsen.Reward(g, alloc.Placement, cluster)

		fmt.Printf("%-8d %-14.0f %-14.0f %d -> %d nodes\n",
			i, metisR*g.SourceRate, ourR*g.SourceRate,
			g.NumNodes(), alloc.Coarse.NumSuper)
	}
}
