package eval

import (
	"math"
	"math/rand"
	"time"

	"repro/internal/gen"
	"repro/internal/metis"
	"repro/internal/runtime"
	"repro/internal/sim"
	"repro/internal/stream"
)

// SimValidateResult reports rank concordance between the three execution
// models: the linear-fluid solver (the RL reward), the discrete-event
// solver, and the real concurrent runtime. The paper's §III leans on
// CEPSim preserving the relative ranks of a real platform; this experiment
// establishes the same property within the repository.
type SimValidateResult struct {
	// Pairs is the number of discriminating placement pairs compared.
	Pairs int
	// FluidVsDES / FluidVsRuntime / DESVsRuntime are the fractions of
	// pairs ranked concordantly (1.0 = identical ordering).
	FluidVsDES     float64
	FluidVsRuntime float64
	DESVsRuntime   float64
	// MeanAbsFluidDES is the mean |relative| gap between fluid and DES.
	MeanAbsFluidDES float64
}

// SimValidate runs the three execution models over a spread of placements
// (Metis with varying part counts plus random assignments) on small graphs
// and computes pairwise rank concordance.
func (h *Harness) SimValidate() *SimValidateResult {
	s := gen.Small()
	s.TestN = maxi(4, int(float64(s.TestN)*h.Scale))
	s.Seed += 31
	ds := s.Generate()
	cluster := ds.Cluster
	rng := rand.New(rand.NewSource(h.Seed + 77))

	rtCfg := runtime.DefaultConfig()
	rtCfg.WallTime = 120 * time.Millisecond

	type obs struct{ fluid, des, rt float64 }
	var all []obs
	for _, g := range ds.Test {
		placements := []*stream.Placement{}
		for _, k := range []int{1, 2, cluster.Devices} {
			p := metis.Partition(g, metis.Options{Parts: k, Seed: h.Seed})
			p.Devices = cluster.Devices
			placements = append(placements, p)
		}
		rp := stream.NewPlacement(g.NumNodes(), cluster.Devices)
		for v := range rp.Assign {
			rp.Assign[v] = rng.Intn(cluster.Devices)
		}
		placements = append(placements, rp)

		for _, p := range placements {
			fres, err := sim.Simulate(g, p, cluster)
			if err != nil {
				continue
			}
			dres, err := sim.SimulateDES(g, p, cluster)
			if err != nil {
				continue
			}
			rres, err := runtime.Run(g, p, cluster, rtCfg)
			if err != nil {
				continue
			}
			all = append(all, obs{fres.Relative, dres.Relative, rres.Relative})
		}
	}

	res := &SimValidateResult{}
	var cFD, cFR, cDR, n int
	var gapSum float64
	const tie = 0.03
	for i := 0; i < len(all); i++ {
		gapSum += math.Abs(all[i].fluid - all[i].des)
		for j := i + 1; j < len(all); j++ {
			df := all[i].fluid - all[j].fluid
			dd := all[i].des - all[j].des
			dr := all[i].rt - all[j].rt
			if math.Abs(df) < tie || math.Abs(dd) < tie || math.Abs(dr) < tie {
				continue
			}
			n++
			if df*dd > 0 {
				cFD++
			}
			if df*dr > 0 {
				cFR++
			}
			if dd*dr > 0 {
				cDR++
			}
		}
	}
	res.Pairs = n
	if n > 0 {
		res.FluidVsDES = float64(cFD) / float64(n)
		res.FluidVsRuntime = float64(cFR) / float64(n)
		res.DESVsRuntime = float64(cDR) / float64(n)
	}
	if len(all) > 0 {
		res.MeanAbsFluidDES = gapSum / float64(len(all))
	}
	h.printf("== Sim-validation: rank concordance of execution models ==\n")
	h.printf("  discriminating pairs: %d\n", res.Pairs)
	h.printf("  fluid vs DES:      %.2f\n", res.FluidVsDES)
	h.printf("  fluid vs runtime:  %.2f\n", res.FluidVsRuntime)
	h.printf("  DES vs runtime:    %.2f\n", res.DESVsRuntime)
	h.printf("  mean |fluid-DES| relative gap: %.3f\n\n", res.MeanAbsFluidDES)
	return res
}

func maxi(a, b int) int {
	if a > b {
		return a
	}
	return b
}
