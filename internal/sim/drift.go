// drift.go models environment drift: the stream system's surroundings
// changing while a placement is live. Real clusters see source-rate
// surges, devices leaving (failures, decommissions) and joining
// (autoscaling), and link classes changing (a tenant moved to a slower
// network tier). A DriftState is the effective environment at one instant.
// A timeline of DriftStates, built from discrete DriftEvents by
// BuildTimeline, is the one form of a failure scenario: the deterministic
// re-allocation and robustness experiments replay it tick by tick on the
// fluid model, and internal/runtime replays the same states against the
// wall-clock executor (runtime.Config.Drift).
package sim

import (
	"fmt"

	"repro/internal/stream"
)

// lostCapacityFrac is the fraction of its nominal capacity a lost device
// retains in the fluid model. A strictly zero capacity would turn a
// loaded-but-lost device into a 0/0 utilization; a vanishing-but-positive
// capacity instead drives the sustainable fraction toward zero, which is
// what a placement that strands operators on a dead machine deserves.
const lostCapacityFrac = 1e-9

// DriftState is the effective environment at one point of a drift
// timeline, relative to the nominal cluster and graph.
type DriftState struct {
	// RateFactor multiplies every source's tuple rate (1 = nominal;
	// 2 = a 2× surge). Must be > 0.
	RateFactor float64
	// Available[d] reports whether device d can host operators. A nil
	// slice means every device is available.
	Available []bool
	// BandwidthFactor multiplies link bandwidth (1 = nominal; 0.5 = the
	// pool was retuned to a slower link class). Must be > 0.
	BandwidthFactor float64
}

// NominalDrift is the no-drift state for a cluster of the given size.
func NominalDrift(devices int) DriftState {
	avail := make([]bool, devices)
	for i := range avail {
		avail[i] = true
	}
	return DriftState{RateFactor: 1, Available: avail, BandwidthFactor: 1}
}

// Validate checks the state against a cluster size.
func (st DriftState) Validate(devices int) error {
	if st.RateFactor <= 0 {
		return fmt.Errorf("sim: drift state has non-positive rate factor %g", st.RateFactor)
	}
	if st.BandwidthFactor <= 0 {
		return fmt.Errorf("sim: drift state has non-positive bandwidth factor %g", st.BandwidthFactor)
	}
	if st.Available != nil && len(st.Available) != devices {
		return fmt.Errorf("sim: drift state covers %d devices, cluster has %d", len(st.Available), devices)
	}
	return nil
}

// Up reports whether device d is available under the state.
func (st DriftState) Up(d int) bool {
	return st.Available == nil || st.Available[d]
}

// NumUp returns the number of available devices.
func (st DriftState) NumUp(devices int) int {
	if st.Available == nil {
		return devices
	}
	n := 0
	for _, a := range st.Available {
		if a {
			n++
		}
	}
	return n
}

// Equal reports whether two states describe the same environment.
func (st DriftState) Equal(o DriftState) bool {
	if st.RateFactor != o.RateFactor || st.BandwidthFactor != o.BandwidthFactor {
		return false
	}
	if len(st.Available) != len(o.Available) {
		return false
	}
	for i := range st.Available {
		if st.Available[i] != o.Available[i] {
			return false
		}
	}
	return true
}

// WithDrift returns a copy of the cluster under the drift state: lost
// devices keep a vanishing capacity fraction (see lostCapacityFrac) and
// link bandwidth is scaled by the state's factor.
func (c Cluster) WithDrift(st DriftState) Cluster {
	if err := st.Validate(c.Devices); err != nil {
		panic(err.Error())
	}
	out := c
	out.Bandwidth = c.Bandwidth * st.BandwidthFactor
	if st.Available != nil {
		mips := make([]float64, c.Devices)
		for d := 0; d < c.Devices; d++ {
			m := c.CapacityOf(d) / 1e6
			if !st.Available[d] {
				m *= lostCapacityFrac
			}
			mips[d] = m
		}
		out.DeviceMIPS = mips
	}
	return out
}

// SimulateDrift runs the linear-fluid solver on the drifted environment:
// the cluster under st and the graph at st.RateFactor× its source rate.
// Relative throughput is measured against the surged demand, so a
// placement that sustained the nominal rate but not the surge reports the
// drop.
func SimulateDrift(g *stream.Graph, p *stream.Placement, c Cluster, st DriftState) (Result, error) {
	if err := st.Validate(c.Devices); err != nil {
		return Result{}, err
	}
	return Simulate(g.ScaleSourceRate(st.RateFactor), p, c.WithDrift(st))
}

// DriftKind labels a drift event.
type DriftKind int

const (
	// DriftSourceSurge multiplies the source rate by Factor during the
	// event window.
	DriftSourceSurge DriftKind = iota
	// DriftDeviceLoss removes Device from the pool during the window.
	DriftDeviceLoss
	// DriftDeviceJoin grows the pool: Device is absent from tick 0 and
	// becomes available at Tick (autoscaling spin-up).
	DriftDeviceJoin
	// DriftLinkClass switches the pool's link class: the bandwidth factor
	// becomes Factor from Tick onward (until the next class change).
	DriftLinkClass
)

func (k DriftKind) String() string {
	switch k {
	case DriftSourceSurge:
		return "source-surge"
	case DriftDeviceLoss:
		return "device-loss"
	case DriftDeviceJoin:
		return "device-join"
	case DriftLinkClass:
		return "link-class"
	default:
		return "unknown"
	}
}

// DriftEvent is one discrete environment change on a tick timeline.
type DriftEvent struct {
	Kind DriftKind
	// Tick is when the event takes effect (0-based).
	Tick int
	// DurTicks is the window length for surges and losses; <= 0 lasts for
	// the rest of the timeline. Ignored for joins and class changes.
	DurTicks int
	// Device is the affected device for losses and joins.
	Device int
	// Factor is the surge multiplier or the new link class factor.
	Factor float64
}

// validateEvents checks a drift event list against a cluster size.
func validateEvents(events []DriftEvent, devices int) error {
	for i, ev := range events {
		if ev.Tick < 0 {
			return fmt.Errorf("sim: drift event %d starts at negative tick %d", i, ev.Tick)
		}
		switch ev.Kind {
		case DriftSourceSurge:
			if ev.Factor <= 0 {
				return fmt.Errorf("sim: drift event %d surge factor %g must be positive", i, ev.Factor)
			}
		case DriftLinkClass:
			if ev.Factor <= 0 {
				return fmt.Errorf("sim: drift event %d link class %g must be positive", i, ev.Factor)
			}
		case DriftDeviceLoss, DriftDeviceJoin:
			if ev.Device < 0 || ev.Device >= devices {
				return fmt.Errorf("sim: drift event %d targets device %d of %d", i, ev.Device, devices)
			}
		default:
			return fmt.Errorf("sim: drift event %d has unknown kind %d", i, ev.Kind)
		}
	}
	return nil
}

// BuildTimeline expands drift events into one DriftState per tick.
// Overlapping surges compound multiplicatively; the last class change at
// or before a tick wins; a device with a join event is absent until its
// join tick; loss windows override availability regardless of joins.
func BuildTimeline(devices, ticks int, events []DriftEvent) ([]DriftState, error) {
	if err := validateEvents(events, devices); err != nil {
		return nil, err
	}
	// Devices with a join event start absent.
	joinAt := make([]int, devices)
	for d := range joinAt {
		joinAt[d] = 0
	}
	for _, ev := range events {
		if ev.Kind == DriftDeviceJoin && ev.Tick > joinAt[ev.Device] {
			joinAt[ev.Device] = ev.Tick
		}
	}
	inWindow := func(ev DriftEvent, t int) bool {
		if t < ev.Tick {
			return false
		}
		return ev.DurTicks <= 0 || t < ev.Tick+ev.DurTicks
	}
	out := make([]DriftState, ticks)
	for t := 0; t < ticks; t++ {
		st := NominalDrift(devices)
		for d := 0; d < devices; d++ {
			if t < joinAt[d] {
				st.Available[d] = false
			}
		}
		classTick := -1
		for _, ev := range events {
			switch ev.Kind {
			case DriftSourceSurge:
				if inWindow(ev, t) {
					st.RateFactor *= ev.Factor
				}
			case DriftDeviceLoss:
				if inWindow(ev, t) {
					st.Available[ev.Device] = false
				}
			case DriftLinkClass:
				if ev.Tick <= t && ev.Tick > classTick {
					classTick = ev.Tick
					st.BandwidthFactor = ev.Factor
				}
			}
		}
		out[t] = st
	}
	return out, nil
}
