// drift.go generates elastic drift scenarios: seeded random timelines of
// source-rate surges, device pool shrink/grow, and link class changes,
// matching the environments a long-lived stream deployment actually sees.
// Scenarios are expressed as sim.DriftEvent lists so the deterministic
// simulators, the re-allocation loop, and the wall-clock runtime all
// replay exactly the same drift.
package gen

import (
	"math/rand"
	"sort"

	"repro/internal/parallel"
	"repro/internal/sim"
)

// DriftConfig controls scenario generation. Probabilities are per tick.
type DriftConfig struct {
	// Ticks is the timeline length.
	Ticks int
	// PSurge is the per-tick probability of a source-rate surge starting.
	PSurge float64
	// SurgeFactor is the sampled surge multiplier range.
	SurgeFactor [2]float64
	// SurgeTicks is the sampled surge duration range (ticks).
	SurgeTicks [2]int
	// PLoss is the per-tick probability of a device leaving the pool.
	PLoss float64
	// LossTicks is the sampled outage duration range; a draw at the upper
	// bound becomes permanent (the device never returns).
	LossTicks [2]int
	// PJoin is the per-tick probability of a device joining the pool
	// (autoscaling grow). Joining devices are absent before their tick.
	PJoin float64
	// PClass is the per-tick probability of a link class change.
	PClass float64
	// Classes are the link bandwidth factors a class change can switch to.
	Classes []float64
	// MaxLost caps concurrently lost devices so a scenario never removes
	// the whole pool.
	MaxLost int
	// EnsureDrift forces a mid-timeline device loss when the random draws
	// produced no event at all, so every scenario actually drifts.
	EnsureDrift bool
}

// DefaultDriftConfig returns a moderately hostile timeline: roughly one
// device loss, one surge, and one class change per 16 ticks.
func DefaultDriftConfig(ticks int) DriftConfig {
	return DriftConfig{
		Ticks:       ticks,
		PSurge:      0.08,
		SurgeFactor: [2]float64{1.3, 2.2},
		SurgeTicks:  [2]int{2, 6},
		PLoss:       0.08,
		LossTicks:   [2]int{3, 8},
		PJoin:       0.04,
		PClass:      0.06,
		Classes:     []float64{0.5, 0.67, 1, 1.5},
		MaxLost:     1,
		EnsureDrift: true,
	}
}

func (cfg DriftConfig) intIn(r [2]int, rng *rand.Rand) int {
	if r[1] <= r[0] {
		return r[0]
	}
	return r[0] + rng.Intn(r[1]-r[0]+1)
}

func (cfg DriftConfig) floatIn(r [2]float64, rng *rand.Rand) float64 {
	return r[0] + rng.Float64()*(r[1]-r[0])
}

// DriftEvents generates one seeded scenario for a cluster of the given
// size. Deterministic given rng state. At every tick at most MaxLost
// devices are unavailable, counting both loss windows and not-yet-joined
// pool-grow devices, so a scenario never starves the pool.
func DriftEvents(cfg DriftConfig, devices int, rng *rand.Rand) []sim.DriftEvent {
	var events []sim.DriftEvent
	// Phase 1 — pool grow: decide joins first, because a device joining at
	// tick t is absent for every tick before t and must count against the
	// unavailability budget from tick 0. Device 0 never joins late, so the
	// initial pool is never empty.
	joinTick := make([]int, devices) // 0 = present from the start
	joins := 0
	for t := 1; t < cfg.Ticks; t++ {
		if rng.Float64() < cfg.PJoin && devices > 1 {
			d := 1 + rng.Intn(devices-1)
			// Every late joiner is absent at tick 0, so the number of
			// joins is itself bounded by the unavailability budget.
			if joinTick[d] == 0 && joins < cfg.MaxLost {
				joinTick[d] = t
				joins++
				events = append(events, sim.DriftEvent{Kind: sim.DriftDeviceJoin, Tick: t, Device: d})
			}
		}
	}
	// Phase 2 — surges, losses, class changes.
	lostUntil := make([]int, devices) // > t means device is out at tick t
	unavail := func(t int) int {
		n := 0
		for d := 0; d < devices; d++ {
			if joinTick[d] > t || lostUntil[d] > t {
				n++
			}
		}
		return n
	}
	for t := 1; t < cfg.Ticks; t++ {
		if rng.Float64() < cfg.PSurge {
			events = append(events, sim.DriftEvent{
				Kind:     sim.DriftSourceSurge,
				Tick:     t,
				DurTicks: cfg.intIn(cfg.SurgeTicks, rng),
				Factor:   cfg.floatIn(cfg.SurgeFactor, rng),
			})
		}
		if rng.Float64() < cfg.PLoss && devices > 1 {
			d := rng.Intn(devices)
			if joinTick[d] <= t && lostUntil[d] <= t {
				dur := cfg.intIn(cfg.LossTicks, rng)
				end := t + dur
				if dur >= cfg.LossTicks[1] || end > cfg.Ticks {
					dur, end = 0, cfg.Ticks // permanent: the device never returns
				}
				within := true
				for x := t; x < end; x++ {
					if unavail(x) >= cfg.MaxLost {
						within = false
						break
					}
				}
				if within {
					events = append(events, sim.DriftEvent{
						Kind: sim.DriftDeviceLoss, Tick: t, DurTicks: dur, Device: d,
					})
					lostUntil[d] = end
				}
			}
		}
		if rng.Float64() < cfg.PClass && len(cfg.Classes) > 0 {
			events = append(events, sim.DriftEvent{
				Kind:   sim.DriftLinkClass,
				Tick:   t,
				Factor: cfg.Classes[rng.Intn(len(cfg.Classes))],
			})
		}
	}
	if cfg.EnsureDrift && len(events) == 0 && devices > 1 {
		events = append(events, sim.DriftEvent{
			Kind:     sim.DriftDeviceLoss,
			Tick:     cfg.Ticks / 3,
			DurTicks: 0,
			Device:   rng.Intn(devices),
		})
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].Tick < events[j].Tick })
	return events
}

// DriftEventSet generates n scenarios in parallel with per-scenario
// derived seeds, so the output is independent of worker scheduling —
// the same contract as GenerateSet.
func DriftEventSet(cfg DriftConfig, devices, n int, seed int64) [][]sim.DriftEvent {
	return parallel.Map(n, 0, func(i int) []sim.DriftEvent {
		return DriftEvents(cfg, devices, rand.New(rand.NewSource(seed+int64(i)*7_368_787)))
	})
}
