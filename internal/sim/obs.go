// obs.go wires the simulators into the process-wide metrics registry.
// The fluid solver is the RL reward hot path, so its instrumentation is
// exactly one atomic increment per call; the DES accumulates its event
// count locally and flushes once per run. Counters observe, never steer:
// simulator results are unaffected.
package sim

import "repro/internal/obs"

var (
	obsFluidRuns = obs.Default.Counter("sim_fluid_runs_total")
	obsDESRuns   = obs.Default.Counter("sim_des_runs_total")
	obsDESEvents = obs.Default.Counter("sim_des_events_total")
	// Per-quantum total tuples queued on the scheduled device — the DES
	// backpressure signature. Bounds span one tuple to the default
	// per-operator queue limit (2048).
	obsDESQueueDepth = obs.Default.Histogram("sim_des_device_queue_tuples",
		[]float64{1, 8, 64, 256, 1024, 2048, 8192})
)
