package rl_test

import (
	"repro/internal/baselines"
	"repro/internal/rl"
)

// The trajectory tests of package rl train two learned placers as well as
// the coarsening model. internal/baselines imports rl, so only this
// external test package may import it; it hands the placers over through
// rl.NewPlacer before any test runs.
func init() {
	rl.NewPlacer = func(kind string) rl.Policy[[]int] {
		if kind == "gdp" {
			return baselines.NewGDP(8, 2)
		}
		return baselines.NewGraphEncDec(8, 16, 1)
	}
}
