package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime returns the CPU time, user and system over all threads, this
// process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procCPUTime reads the CPU time, user and system over all threads,
// another process has used, from /proc/<pid>/stat (10 ms resolution).
func procCPUTime(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, fmt.Errorf("reading CPU time: %w", err)
	}
	// Fields follow the parenthesised command name; utime and stime are
	// fields 14 and 15, in USER_HZ (100/s) ticks.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc/%d/stat: %v %v", pid, err1, err2)
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// peakRSSMB reads VmHWM, the peak resident set size, of a process
// ("self" for this one) from /proc.
func peakRSSMB(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", fields[1], err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/%s/status", pid)
}

// goStats is a reading of the Go runtime's cumulative counters.
type goStats struct {
	allocBytes, gcCycles float64
	gcCPU, totalCPU      float64
}

var goStatNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

// readGoStats samples runtime/metrics for this process.
func readGoStats() goStats {
	s := make([]metrics.Sample, len(goStatNames))
	for i, n := range goStatNames {
		s[i].Name = n
	}
	metrics.Read(s)
	num := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return goStats{allocBytes: num(s[0].Value), gcCycles: num(s[1].Value), gcCPU: num(s[2].Value), totalCPU: num(s[3].Value)}
}

// setGoStats reports the runtime's work between two readings over ops
// operations: MB allocated and GC cycles per operation, and the share of
// CPU time the garbage collector used.
func (r *report) setGoStats(before, after goStats, ops int) {
	if ops < 1 {
		ops = 1
	}
	r.set("go.alloc_mb_per_op", (after.allocBytes-before.allocBytes)/1e6/float64(ops), ops)
	r.set("go.gc_cycles_per_op", (after.gcCycles-before.gcCycles)/float64(ops), ops)
	if cpu := after.totalCPU - before.totalCPU; cpu > 0 {
		r.set("go.gc_cpu_frac", (after.gcCPU-before.gcCPU)/cpu, ops)
	}
}

// timeSetup runs a workload's set-up reps times and reports the median
// CPU time as setup_s, so one slow repetition does not decide the figure.
// CPU time, like the gate's cpu_ms_per_op, does not count what the host
// steals; the median wall time is printed beside it. setup returns the
// CPU time of any process it started. The state of the last repetition
// is what the workload measures; a forced GC between repetitions keeps
// earlier copies out of the peak RSS.
func timeSetup(r *report, reps int, setup func() (time.Duration, error)) error {
	var cpu, wall samples
	for i := 0; i < reps; i++ {
		if i > 0 {
			runtime.GC()
		}
		c0, t0 := cpuTime(), time.Now()
		child, err := setup()
		if err != nil {
			return err
		}
		wall = append(wall, time.Since(t0).Seconds())
		cpu = append(cpu, (cpuTime() - c0 + child).Seconds())
	}
	r.set("setup_s", cpu.median(), len(cpu))
	r.detailf("setup_wall_s", wall.median(), "s", len(wall))
	return nil
}
