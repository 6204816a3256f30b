// Command perfbench is the repository's benchmark. One invocation runs
// one named workload from a seed and prints its end-to-end metrics
// (-trace 0) or its per-layer metrics (-trace 1), each with its unit and
// sample count; the last line of standard output is one JSON object with
// the results. Every operation's output is checked, and a failed check
// makes the command exit 1. README.md describes the workloads and how to
// run it; perfbench/run.sh builds it and the allocserve daemon first.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// options are one invocation's settings.
type options struct {
	workload string
	seed     int64
	dur      time.Duration
	trace    bool
	daemon   string // allocserve binary (serve-medium)
	out      string // directory for span files and daemon sinks
	tiny     bool   // inputs small enough for the benchmark's own tests
}

func (o options) spanPath() string {
	return filepath.Join(o.out, fmt.Sprintf("spans-%s-seed%d.json", o.workload, o.seed))
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(options, *report) error{
	"alloc-large":     runAllocLarge,
	"serve-medium":    runServeMedium,
	"train-medium5k":  runTrainMedium5K,
	"multilevel-huge": runMultilevelHuge,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, runs the workload and prints its report. It returns
// the process exit code: 0 when every check passed, 1 when a check
// failed, 2 when the benchmark could not run.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var seconds float64
	var traceN int
	fs.StringVar(&o.workload, "workload", "", "workload to run")
	fs.Int64Var(&o.seed, "seed", 1, "input seed: the same seed gives the same inputs")
	fs.Float64Var(&seconds, "seconds", 15, "measured seconds")
	fs.IntVar(&traceN, "trace", 0, "1 records spans and prints per-layer metrics; 0 prints end-to-end metrics")
	fs.StringVar(&o.daemon, "daemon", "", "allocserve binary for serve-medium")
	fs.StringVar(&o.out, "out", filepath.Join(".bench_build", "perfbench", "out"), "directory for span files and daemon sinks")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.dur = time.Duration(seconds * float64(time.Second))
	o.trace = traceN != 0
	return runWorkload(o, stdout, stderr)
}

func runWorkload(o options, stdout, stderr io.Writer) int {
	fn, ok := workloads[o.workload]
	if !ok || o.dur <= 0 {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(stderr, "perfbench: need -workload (one of %v) and -seconds > 0\n", names)
		return 2
	}
	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%g trace=%v GOMAXPROCS=%d %s\n",
		o.workload, o.seed, o.dur.Seconds(), o.trace, runtime.GOMAXPROCS(0), runtime.Version())
	r := newReport(o.workload, o.trace)
	if err := fn(o, r); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 2
	}
	if err := r.write(stdout); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	if r.failed > 0 {
		return 1
	}
	return 0
}
