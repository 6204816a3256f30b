// Package sim is the throughput simulator standing in for CEPSim [38]
// (see DESIGN.md §2). Given a stream graph, a placement, and a cluster
// description it computes the steady-state sustainable source tuple rate
// under two bottleneck families:
//
//   - CPU: the operators placed on a device may not demand more
//     instructions/second than the device provides (MIPS × 1e6);
//   - network: tuples crossing devices consume link bandwidth, modelled
//     either as a per-NIC budget shared by all of a device's cross-device
//     traffic (default, closer to a cloud VM) or as independent
//     per-device-pair links.
//
// The linear-fluid solver observes that all steady-state rates scale
// linearly with the source rate, so the maximum sustainable fraction is
// 1/max(1, worst utilization); it is exact for proportional flows and is
// the RL reward. The discrete-event simulator (des.go) and the concurrent
// runtime (internal/runtime) validate it: eval.SimValidate, run as
// `experiments -run simvalidate`.
package sim

import (
	"fmt"
	"math"

	"repro/internal/stream"
)

// LinkModel selects how network capacity is shared.
type LinkModel int

const (
	// NIC: each device has one full-duplex budget of Bandwidth bits/s for
	// egress and one for ingress; all cross-device edges at the device
	// share it.
	NIC LinkModel = iota
	// PairLink: every ordered device pair has an independent link of
	// Bandwidth bits/s.
	PairLink
)

// Cluster describes the computing environment: per-device instruction
// capacity and link bandwidth (§V: 1.25e3 MIPS devices; 1000 or 1500
// Mbps links). DeviceMIPS makes it heterogeneous.
type Cluster struct {
	Devices   int
	MIPS      float64   // device capacity in millions of instructions per second
	Bandwidth float64   // link capacity in bits per second
	Links     LinkModel // capacity sharing model
	// DeviceMIPS optionally overrides MIPS per device (heterogeneous
	// clusters — the paper's stated future-work extension). When non-nil
	// its length must equal Devices.
	DeviceMIPS []float64
}

// CapacityOf returns device d's capacity in instructions/second.
func (c Cluster) CapacityOf(d int) float64 {
	if c.DeviceMIPS != nil {
		return c.DeviceMIPS[d] * 1e6
	}
	return c.MIPS * 1e6
}

// TotalCapacity returns the summed instruction capacity of all devices.
func (c Cluster) TotalCapacity() float64 {
	var s float64
	for d := 0; d < c.Devices; d++ {
		s += c.CapacityOf(d)
	}
	return s
}

// Heterogeneous returns a copy of c with explicit per-device MIPS.
func (c Cluster) Heterogeneous(mips []float64) Cluster {
	if len(mips) != c.Devices {
		panic(fmt.Sprintf("sim: %d MIPS values for %d devices", len(mips), c.Devices))
	}
	c.DeviceMIPS = append([]float64(nil), mips...)
	return c
}

// Validate reports whether c describes a usable cluster: at least one
// device, positive and finite MIPS, Bandwidth and per-device MIPS (one
// entry per device when set). The simulators divide by these
// capacities, so a zero, negative or NaN one would turn every throughput
// into a meaningless 0, 1 or NaN.
func (c Cluster) Validate() error {
	positive := func(v float64) bool { return v > 0 && !math.IsInf(v, 1) }
	if c.Devices <= 0 {
		return fmt.Errorf("sim: cluster has %d devices", c.Devices)
	}
	if !positive(c.MIPS) {
		return fmt.Errorf("sim: cluster MIPS %g is not positive and finite", c.MIPS)
	}
	if !positive(c.Bandwidth) {
		return fmt.Errorf("sim: cluster bandwidth %g is not positive and finite", c.Bandwidth)
	}
	if c.DeviceMIPS != nil && len(c.DeviceMIPS) != c.Devices {
		return fmt.Errorf("sim: %d device MIPS values for %d devices", len(c.DeviceMIPS), c.Devices)
	}
	for d, m := range c.DeviceMIPS {
		if !positive(m) {
			return fmt.Errorf("sim: device %d MIPS %g is not positive and finite", d, m)
		}
	}
	return nil
}

// DefaultCluster returns the paper's experimental environment for the
// given device count and bandwidth in Mbps.
func DefaultCluster(devices int, mbps float64) Cluster {
	return Cluster{
		Devices:   devices,
		MIPS:      1.25e3,
		Bandwidth: mbps * 1e6,
		Links:     NIC,
	}
}

// InstructionCapacity returns a device's capacity in instructions/second.
func (c Cluster) InstructionCapacity() float64 { return c.MIPS * 1e6 }

// BottleneckKind labels what limited throughput.
type BottleneckKind int

const (
	// BottleneckNone means the source rate is fully sustained.
	BottleneckNone BottleneckKind = iota
	// BottleneckCPU means a device's instruction budget saturated first.
	BottleneckCPU
	// BottleneckNetwork means a link/NIC saturated first.
	BottleneckNetwork
)

func (b BottleneckKind) String() string {
	switch b {
	case BottleneckCPU:
		return "cpu"
	case BottleneckNetwork:
		return "network"
	default:
		return "none"
	}
}

// Result reports the simulated steady state.
type Result struct {
	// Throughput is the sustained source tuple rate, tuples/second.
	Throughput float64
	// Relative is Throughput / SourceRate ∈ (0, 1]; the RL reward.
	Relative float64
	// DeviceUtil is per-device CPU utilization at the sustained rate.
	DeviceUtil []float64
	// NetUtil is per-device max(egress, ingress) utilization (NIC model)
	// or the per-device max over incident pair links (PairLink model).
	NetUtil []float64
	// Bottleneck labels the binding constraint.
	Bottleneck BottleneckKind
	// BottleneckDevice is the device (or link endpoint) that bound.
	BottleneckDevice int
}

// Simulate runs the linear-fluid solver.
func Simulate(g *stream.Graph, p *stream.Placement, c Cluster) (Result, error) {
	if err := p.Validate(g); err != nil {
		return Result{}, err
	}
	if p.Devices > c.Devices {
		return Result{}, fmt.Errorf("sim: placement uses %d devices, cluster has %d", p.Devices, c.Devices)
	}
	obsFluidRuns.Inc()
	load := g.NodeLoad()
	traffic := g.EdgeTraffic()

	cpu := make([]float64, c.Devices)
	for v, d := range p.Assign {
		cpu[d] += load[v]
	}
	egress := make([]float64, c.Devices)
	ingress := make([]float64, c.Devices)
	var pair map[[2]int]float64
	if c.Links == PairLink {
		pair = make(map[[2]int]float64)
	}
	for ei, e := range g.Edges {
		ds, dd := p.Assign[e.Src], p.Assign[e.Dst]
		if ds == dd {
			continue
		}
		egress[ds] += traffic[ei]
		ingress[dd] += traffic[ei]
		if pair != nil {
			pair[[2]int{ds, dd}] += traffic[ei]
		}
	}

	worst := 0.0
	kind := BottleneckNone
	where := -1
	devUtil := make([]float64, c.Devices)
	for d, l := range cpu {
		u := l / c.CapacityOf(d)
		devUtil[d] = u
		if u > worst {
			worst, kind, where = u, BottleneckCPU, d
		}
	}
	netUtil := make([]float64, c.Devices)
	if c.Links == NIC {
		for d := 0; d < c.Devices; d++ {
			ue := egress[d] / c.Bandwidth
			ui := ingress[d] / c.Bandwidth
			netUtil[d] = math.Max(ue, ui)
			if netUtil[d] > worst {
				worst, kind, where = netUtil[d], BottleneckNetwork, d
			}
		}
	} else {
		for k, tr := range pair {
			u := tr / c.Bandwidth
			if u > netUtil[k[0]] {
				netUtil[k[0]] = u
			}
			if u > netUtil[k[1]] {
				netUtil[k[1]] = u
			}
			// Map order is random: among equally saturated links the
			// lowest source device binds, so BottleneckDevice is
			// deterministic.
			if u > worst || (u == worst && kind == BottleneckNetwork && k[0] < where) {
				worst, kind, where = u, BottleneckNetwork, k[0]
			}
		}
	}

	phi := 1.0
	if worst > 1 {
		phi = 1 / worst
	} else {
		kind, where = BottleneckNone, -1
	}
	// Report utilizations at the sustained rate (scaled by phi).
	for d := range devUtil {
		devUtil[d] *= phi
		netUtil[d] *= phi
	}
	return Result{
		Throughput:       phi * g.SourceRate,
		Relative:         phi,
		DeviceUtil:       devUtil,
		NetUtil:          netUtil,
		Bottleneck:       kind,
		BottleneckDevice: where,
	}, nil
}

// Reward returns the RL reward r(G_y) = T(G_y)/I(G_x) for a placement,
// using the linear-fluid solver. It panics on invalid placements, which
// indicate a programming error in the caller.
func Reward(g *stream.Graph, p *stream.Placement, c Cluster) float64 {
	res, err := Simulate(g, p, c)
	if err != nil {
		panic("sim: reward on invalid placement: " + err.Error())
	}
	return res.Relative
}

// UtilizationStats summarizes CPU and network utilization over the devices
// actually hosting load, as reported in §VI-B (excess-device analysis).
type UtilizationStats struct {
	CPUMean, CPUStd float64
	NetMean, NetStd float64
	UsedDevices     int
}

// Utilization computes UtilizationStats from a simulation result.
func Utilization(res Result) UtilizationStats {
	var cpus, nets []float64
	for d, u := range res.DeviceUtil {
		if u > 0 {
			cpus = append(cpus, u)
			nets = append(nets, res.NetUtil[d])
		}
	}
	st := UtilizationStats{UsedDevices: len(cpus)}
	st.CPUMean, st.CPUStd = meanStd(cpus)
	st.NetMean, st.NetStd = meanStd(nets)
	return st
}

func meanStd(xs []float64) (float64, float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	var m float64
	for _, x := range xs {
		m += x
	}
	m /= float64(len(xs))
	var v float64
	for _, x := range xs {
		v += (x - m) * (x - m)
	}
	v /= float64(len(xs))
	return m, math.Sqrt(v)
}

// EdgeSaturation returns, for every edge, its data saturation rate
// (payload × rate / bandwidth) as defined in §V — the Fig. 9 quantity.
func EdgeSaturation(g *stream.Graph, c Cluster) []float64 {
	tr := g.EdgeTraffic()
	out := make([]float64, len(tr))
	for i, t := range tr {
		out[i] = t / c.Bandwidth
	}
	return out
}
