package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// endToEnd lists the metrics every untraced run prints and gates on,
// whatever the workload; BENCHMARK.json names the same set. Each workload
// fills them from its own operation. Wall-clock latencies and rates are
// printed as the workload's own metric lines but not gated: CPU time a
// shared host steals moves them by a fifth between runs, while CPU time
// per operation holds within a few percent. Peak RSS is printed but not
// gated either: where the garbage collector's cycles happen to land moves
// a Go process's peak by up to a quarter, while the heap it allocates per
// operation follows the work (README.md, "Steadiness").
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"cpu_ms_per_op", "ms"},
	{"alloc_mb_per_op", "MB/op"},
	{"quality", "T/I"},
}

// perLayer lists the metrics every traced run prints. A layer the
// workload never reaches reads 0 with n=0.
var perLayer = []struct{ name, unit string }{
	{"gnn.features_ms", "ms"},
	{"gnn.encode_ms", "ms"},
	{"core.probs_ms", "ms"},
	{"core.edge_head_ms", "ms"},
	{"core.sweep_ms", "ms"},
	{"core.sweep_self_ms", "ms"},
	{"core.sweep_candidates", "count"},
	{"core.multilevel_levels", "count"},
	{"core.multilevel_probs_ms", "ms"},
	{"core.multilevel_coarsen_ms", "ms"},
	{"core.multilevel_refine_ms", "ms"},
	{"stream.collapse_ms", "ms"},
	{"stream.coarse_graph_ms", "ms"},
	{"stream.expand_ms", "ms"},
	{"stream.coarse_nodes_mean", "count"},
	{"metis.partition_ms", "ms"},
	{"metis.partition_calls", "count"},
	{"sim.reward_ms", "ms"},
	{"sim.reward_calls", "count"},
	{"rl.encode_ms", "ms"},
	{"rl.sample_ms", "ms"},
	{"rl.simulate_ms", "ms"},
	{"rl.backward_ms", "ms"},
	{"rl.all_reduce_ms", "ms"},
	{"rl.reward_cache_hit_frac", "frac"},
	{"rl.divergences", "count"},
	{"rl.pretrain_epoch_ms", "ms"},
	{"serve.decode_ms", "ms"},
	{"serve.fingerprint_us", "us"},
	{"serve.cache_hit_frac", "frac"},
	{"serve.queue_wait_ms_p50", "ms"},
	{"serve.queue_wait_ms_p95", "ms"},
	{"serve.batch_size_mean", "count"},
	{"serve.forward_ms", "ms"},
	{"serve.server_p95_ms", "ms"},
	{"serve.shed_frac", "frac"},
	{"serve.errors", "count"},
	{"loadgen.late_ms_p95", "ms"},
	{"loadgen.conn_wait_ms_p95", "ms"},
	{"loadgen.sent", "count"},
	{"loadgen.completed", "count"},
	{"go.alloc_mb_per_op", "MB/op"},
	{"go.gc_cycles_per_op", "cycles/op"},
	{"go.gc_cpu_frac", "frac"},
	{"trace.overhead_frac", "frac"},
	{"trace.replay_ms", "ms"},
	{"trace.stage_sum_frac", "frac"},
}

// value is one measured figure with the number of samples behind it.
type value struct {
	v float64
	n int
}

// report collects one run's figures. Gated metrics (endToEnd or
// perLayer, by mode) go on the final JSON line; detail metrics are the
// workload's own names, printed once each with unit and sample count.
type report struct {
	workload  string
	traced    bool
	metrics   map[string]value
	detail    []string
	attempted int
	failed    int
	failures  []string
}

func newReport(workload string, traced bool) *report {
	return &report{workload: workload, traced: traced, metrics: make(map[string]value)}
}

// set records an endToEnd or perLayer metric; the unit comes from its table.
func (r *report) set(name string, v float64, n int) {
	r.metrics[name] = value{v: v, n: n}
}

// detailf records a workload-specific metric line.
func (r *report) detailf(name string, v float64, unit string, n int) {
	r.detail = append(r.detail, fmt.Sprintf("metric %-32s %14.6g %-10s n=%d", name, v, unit, n))
}

// notef records a free-form line printed before the metrics.
func (r *report) notef(format string, args ...any) {
	r.detail = append(r.detail, fmt.Sprintf(format, args...))
}

// fail counts one failed operation and remembers why.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// write prints the human-readable lines and then the result JSON as the
// last line. It returns an error when an end-to-end metric is missing.
func (r *report) write(w io.Writer) error {
	if !r.traced {
		r.detailf("fail_frac", float64(r.failed)/float64(max(r.attempted, 1)), "failed/attempted", r.attempted)
	}
	for _, l := range r.detail {
		fmt.Fprintln(w, l)
	}
	for _, f := range r.failures {
		fmt.Fprintln(w, "check failed:", f)
	}
	table := endToEnd
	kind := "end-to-end"
	if r.traced {
		table = perLayer
		kind = "per-layer"
	}
	out := make(map[string]map[string]any, len(table))
	for _, m := range table {
		v, ok := r.metrics[m.name]
		if !ok {
			if !r.traced {
				return fmt.Errorf("workload %s set no value for %s", r.workload, m.name)
			}
			v = value{} // layer not reached by this workload
		}
		if math.IsNaN(v.v) || math.IsInf(v.v, 0) {
			return fmt.Errorf("workload %s: %s is %v", r.workload, m.name, v.v)
		}
		fmt.Fprintf(w, "%s %-32s %14.6g %-10s n=%d\n", kind, m.name, v.v, m.unit, v.n)
		out[m.name] = map[string]any{"value": v.v, "unit": m.unit}
	}
	attempted := r.attempted
	if attempted < 1 {
		attempted = 1
	}
	line, err := json.Marshal(map[string]any{
		"correct":   r.failed == 0,
		"attempted": attempted,
		"failed":    r.failed,
		"metrics":   out,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

// samples is a list of measurements in one unit.
type samples []float64

// quantile returns the nearest-rank q-quantile (0 for no samples).
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := append(samples(nil), s...)
	sort.Float64s(c)
	i := int(math.Ceil(q*float64(len(c)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(c) {
		i = len(c) - 1
	}
	return c[i]
}

func (s samples) median() float64 { return s.quantile(0.5) }

func (s samples) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	var t float64
	for _, v := range s {
		t += v
	}
	return t / float64(len(s))
}

func (s samples) sum() float64 {
	var t float64
	for _, v := range s {
		t += v
	}
	return t
}

// beyond returns how many samples lie strictly above the q-quantile, the
// count worth stating next to a tail percentile.
func (s samples) beyond(q float64) int {
	v := s.quantile(q)
	n := 0
	for _, x := range s {
		if x > v {
			n++
		}
	}
	return n
}
