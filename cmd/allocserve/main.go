// Command allocserve is the allocation-as-a-service daemon: it loads a
// checkpointed coarsening model and answers "stream graph spec →
// placement" over HTTP/JSON at high QPS. A cache miss runs its own forward
// pass in internal/serve — the model's training forward, bound to the
// served parameter snapshot, one pass at a time; repeat requests hit a
// bounded placement cache keyed by the canonical request fingerprint.
//
// Usage:
//
//	allocserve -listen :8080 -model model.json [-devices 10] [-mbps 1000] \
//	  [-max-inflight 256] [-slo-p99-ms 50] [-access-log access.jsonl] \
//	  [-trace-out serve-trace.json] [-pprof]
//	curl -s localhost:8080/allocate -d '{"graph":{"source_rate":10000,
//	  "nodes":[{"ipt":10,"payload":64},{"ipt":20,"payload":32}],
//	  "edges":[{"src":0,"dst":1}]}}'
//
// Endpoints: POST /allocate, POST /reload, GET /healthz, GET /statusz,
// GET /metrics, GET /debug/vars (and /debug/pprof with -pprof). Every
// response carries an X-Trace-Id; overload answers 429 + Retry-After.
// SIGHUP re-reads -model, hot-swaps the parameters (in-flight requests
// finish on the old snapshot), and flushes the trace/access-log sinks;
// SIGINT/SIGTERM drain, flush, and exit.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/sim"
)

// serverConfig is everything startServer needs; the smoke tests run the
// same wiring on :0 with private registries and temp sinks.
type serverConfig struct {
	listen      string
	modelPath   string
	hidden      int
	seed        int64
	cacheSize   int
	maxInflight int
	sloP99MS    float64
	accessLog   string
	traceOut    string
	pprof       bool
	cluster     sim.Cluster
	reg         *obs.Registry
}

// obsSinks owns the file-backed observability outputs so every exit
// path — drain, reload, fatal — flushes them the same way.
type obsSinks struct {
	tracer   *obs.Tracer
	traceOut string
	access   *obs.JSONLWriter
}

// flush persists both sinks: the trace file is rewritten with every
// event so far (reload-safe), the access log is synced to disk.
func (o *obsSinks) flush() {
	if o.tracer != nil {
		if err := o.tracer.WriteFile(o.traceOut); err != nil {
			obs.Log.Warnf("allocserve: writing %s: %v", o.traceOut, err)
		}
	}
	if err := o.access.Sync(); err != nil {
		obs.Log.Warnf("allocserve: syncing access log: %v", err)
	}
}

// close flushes and closes the sinks (idempotent).
func (o *obsSinks) close() {
	o.flush()
	if err := o.access.Close(); err != nil {
		obs.Log.Warnf("allocserve: closing access log: %v", err)
	}
}

func main() {
	var (
		listen      = flag.String("listen", ":8080", "HTTP listen address, e.g. :8080 or :0")
		modelPath   = flag.String("model", "", "model parameter checkpoint (JSON); empty serves a fresh seeded model")
		hidden      = flag.Int("hidden", 24, "GNN half-embedding width (must match the checkpoint)")
		seed        = flag.Int64("seed", 1, "parameter seed when -model is empty")
		cacheSize   = flag.Int("cache", 4096, "placement cache entries (<0 disables)")
		maxInflight = flag.Int("max-inflight", 0, "shed (429) once more than this many requests are in flight (0 = unbounded)")
		sloP99      = flag.Float64("slo-p99-ms", 0, "serve-latency p99 objective in ms; breaching it latches shed mode with hysteresis (0 = off)")
		accessLog   = flag.String("access-log", "", "append one JSONL access record per /allocate request to this file")
		traceOut    = flag.String("trace-out", "", "write a Chrome trace-event JSON of serving spans (decode, cache-probe, queue-wait, forward) to this file")
		pprofOn     = flag.Bool("pprof", false, "mount /debug/pprof/ (goroutine stacks and heap contents; opt-in)")
		rtEvery     = flag.Duration("runtime-every", 5*time.Second, "Go runtime-stats sampling period (goroutines, heap, GC pauses; 0 disables)")
		devices     = flag.Int("devices", 10, "default cluster size when a request omits its cluster")
		mbps        = flag.Float64("mbps", 1000, "default cluster link bandwidth (Mbps)")
	)
	flag.Parse()

	obs.Log.SetLevel(obs.LevelInfo)

	if *rtEvery > 0 {
		stopRT := obs.StartRuntimeStats(obs.Default, *rtEvery)
		defer stopRT()
	}

	svc, srv, sinks, err := startServer(serverConfig{
		listen:      *listen,
		modelPath:   *modelPath,
		hidden:      *hidden,
		seed:        *seed,
		cacheSize:   *cacheSize,
		maxInflight: *maxInflight,
		sloP99MS:    *sloP99,
		accessLog:   *accessLog,
		traceOut:    *traceOut,
		pprof:       *pprofOn,
		cluster:     sim.DefaultCluster(*devices, *mbps),
		reg:         obs.Default,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "allocserve: serving on http://%s (model_version=%d)\n", srv.Addr(), svc.Version())

	// SIGHUP hot-swaps the model and flushes the obs sinks; SIGINT/
	// SIGTERM drain, flush, and exit. A dead accept loop is polled so
	// the daemon fails loudly instead of idling with no listener.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	for {
		select {
		case sig := <-sigCh:
			if sig == syscall.SIGHUP {
				if err := svc.Reload(*modelPath); err != nil {
					obs.Log.Warnf("allocserve: reload: %v", err)
				} else {
					fmt.Fprintf(os.Stderr, "allocserve: reloaded (model_version=%d)\n", svc.Version())
				}
				sinks.flush()
				continue
			}
			fmt.Fprintf(os.Stderr, "allocserve: %v, draining\n", sig)
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			err := srv.Shutdown(ctx)
			cancel()
			svc.Close()
			sinks.close()
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			return
		case <-tick.C:
			if err := srv.Err(); err != nil {
				svc.Close()
				sinks.close()
				fmt.Fprintf(os.Stderr, "allocserve: listener died: %v\n", err)
				os.Exit(1)
			}
		}
	}
}

// startServer wires model → service → HTTP listener plus the obs sinks;
// the smoke tests run the same path on :0.
func startServer(cfg serverConfig) (*serve.Service, *obs.Server, *obsSinks, error) {
	mcfg := core.DefaultConfig()
	mcfg.Hidden = cfg.hidden
	mcfg.Seed = cfg.seed
	model := core.New(mcfg)
	if cfg.modelPath != "" {
		if err := nn.LoadParams(model.PS, cfg.modelPath); err != nil {
			return nil, nil, nil, err
		}
		fmt.Fprintf(os.Stderr, "loaded %d parameters from %s\n", model.PS.Count(), cfg.modelPath)
	}

	sinks := &obsSinks{traceOut: cfg.traceOut}
	if cfg.traceOut != "" {
		sinks.tracer = obs.NewTracer()
	}
	if cfg.accessLog != "" {
		var err error
		sinks.access, err = obs.CreateJSONL(cfg.accessLog)
		if err != nil {
			return nil, nil, nil, err
		}
	}

	svc, err := serve.New(serve.Options{
		Model:       model,
		CacheSize:   cfg.cacheSize,
		Registry:    cfg.reg,
		Tracer:      sinks.tracer,
		MaxInflight: cfg.maxInflight,
		SLOP99MS:    cfg.sloP99MS,
	})
	if err != nil {
		sinks.close()
		return nil, nil, nil, err
	}

	var h http.Handler = serve.NewHandler(svc, cfg.cluster, cfg.modelPath, cfg.reg,
		serve.HandlerOpts{AccessLog: sinks.access, Pprof: cfg.pprof})
	srv, err := obs.ServeHandler(cfg.listen, h)
	if err != nil {
		svc.Close()
		sinks.close()
		return nil, nil, nil, err
	}
	return svc, srv, sinks, nil
}
