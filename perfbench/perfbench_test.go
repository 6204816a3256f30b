package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/metis"
	"repro/internal/sim"
	"repro/internal/stream"
)

// daemonBin is the allocserve binary TestMain builds for serve-medium.
var daemonBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	daemonBin = filepath.Join(dir, "allocserve")
	build := exec.Command("go", "build", "-o", daemonBin, "repro/cmd/allocserve")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "building allocserve:", err)
		os.Exit(2)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runTiny runs one workload at test size and returns its output, its
// parsed result line and its exit code.
func runTiny(t *testing.T, workload string, trace bool, seed int64) (string, result, int) {
	t.Helper()
	var out, errOut bytes.Buffer
	o := options{workload: workload, seed: seed, dur: 600 * time.Millisecond, trace: trace,
		daemon: daemonBin, out: t.TempDir(), tiny: true}
	code := runWorkload(o, &out, &errOut)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not a result: %v\nstdout:\n%s\nstderr:\n%s", workload, err, out.String(), errOut.String())
	}
	return out.String(), res, code
}

// benchmarkSpec is the part of BENCHMARK.json the tests read.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestEveryWorkloadPrintsEveryMetric runs each workload of BENCHMARK.json
// untraced and traced at test size: each run passes its checks and prints
// exactly BENCHMARK.json's metrics, each with its unit, on its last line and
// by name above it.
func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	spec := readSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			want := spec.EndToEnd
			kind := "end-to-end"
			if trace {
				want, kind = spec.PerLayer, "per-layer"
			}
			t.Run(fmt.Sprintf("%s/trace=%v", w.Name, trace), func(t *testing.T) {
				out, res, code := runTiny(t, w.Name, trace, 1)
				if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("exit %d, result %+v\n%s", code, res, out)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("result has %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("%s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
					}
					if !strings.Contains(out, fmt.Sprintf("%s %-32s", kind, m.Name)) {
						t.Errorf("%s not printed by name", m.Name)
					}
				}
			})
		}
	}
}

// TestOutOfRangeDeviceFailsCheck feeds a placement with a device outside
// the cluster to the offline and the served check, and a failing check
// through the command's exit path.
func TestOutOfRangeDeviceFailsCheck(t *testing.T) {
	c := sim.DefaultCluster(4, 1000)
	g := gen.GenerateSet(gen.DefaultConfig(10, 12, 10_000, c), 1, 1)[0]
	p := metis.Partition(g, metis.Options{Parts: c.Devices, Seed: 1})
	p.Devices = c.Devices
	if _, err := checkPlacement(g, p, c); err != nil {
		t.Fatalf("valid placement rejected: %v", err)
	}
	bad := &stream.Placement{Assign: append([]int(nil), p.Assign...), Devices: c.Devices}
	bad.Assign[0] = c.Devices
	if _, err := checkPlacement(g, bad, c); err == nil {
		t.Error("offline check accepted a device out of range")
	}
	wide := &stream.Placement{Assign: p.Assign, Devices: c.Devices + 1}
	if _, err := checkPlacement(g, wide, c); err == nil {
		t.Error("offline check accepted a placement wider than the cluster")
	}
	body, _ := json.Marshal(map[string]any{"assign": bad.Assign, "devices": c.Devices, "relative_throughput": 0.5, "cached": true})
	q := &request{factor: 1, sent: true, status: 200, resp: body}
	if err := checkServed(q, c, g); err == nil {
		t.Error("served check accepted a device out of range")
	}

	workloads["broken"] = func(o options, r *report) error {
		for _, pl := range []*stream.Placement{p, bad} {
			r.attempted++
			if _, err := checkPlacement(g, pl, c); err != nil {
				r.fail("%v", err)
			}
		}
		for _, m := range endToEnd {
			r.set(m.name, 1, 1)
		}
		return nil
	}
	defer delete(workloads, "broken")
	_, res, code := runTiny(t, "broken", false, 1)
	if code == 0 || res.Correct || res.Failed != 1 || res.Attempted != 2 {
		t.Errorf("failed check: exit %d, result %+v; want non-zero exit, correct=false, 1 of 2 failed", code, res)
	}
}

// TestSameSeedSameCounts checks that counts the program makes repeat
// exactly for one seed.
func TestSameSeedSameCounts(t *testing.T) {
	for _, c := range []struct {
		workload string
		counts   []string
	}{
		{"alloc-large", []string{"core.sweep_candidates", "metis.partition_calls"}},
		{"serve-medium", []string{"loadgen.sent"}},
	} {
		_, a, _ := runTiny(t, c.workload, true, 7)
		_, b, _ := runTiny(t, c.workload, true, 7)
		for _, name := range c.counts {
			if a.Metrics[name].Value == 0 || a.Metrics[name].Value != b.Metrics[name].Value {
				t.Errorf("%s %s: %v then %v", c.workload, name, a.Metrics[name].Value, b.Metrics[name].Value)
			}
		}
	}
}
