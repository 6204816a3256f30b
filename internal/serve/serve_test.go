package serve

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/placer"
	"repro/internal/sim"
	"repro/internal/stream"
)

func newTestService(t testing.TB, opts Options) *Service {
	t.Helper()
	if opts.Model == nil {
		opts.Model = core.New(core.DefaultConfig())
	}
	if opts.Registry == nil {
		opts.Registry = obs.NewRegistry()
	}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func samePlacement(t *testing.T, label string, a, b []int) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: assign lengths %d vs %d", label, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: node %d on device %d vs %d", label, i, a[i], b[i])
		}
	}
}

// TestServedMatchesOffline pins the headline claim: a served placement is
// bit-identical to the offline Pipeline.Allocate placement for the same
// model, on both the cold and the cached path, and its relative
// throughput is the reward the sweep recorded for it.
func TestServedMatchesOffline(t *testing.T) {
	s := gen.Small()
	model := core.New(core.DefaultConfig())
	pipe := &core.Pipeline{Model: model, Placer: placer.Metis{Seed: 1}}
	svc := newTestService(t, Options{Model: model})

	for gi, g := range s.Generate().Test[:6] {
		offline := pipe.Allocate(g, s.Cluster)
		cold, err := svc.AllocateCtx(context.Background(), g, s.Cluster)
		if err != nil {
			t.Fatal(err)
		}
		if cold.Cached {
			t.Fatalf("graph %d: first request reported cached", gi)
		}
		samePlacement(t, "cold", offline.Placement.Assign, cold.Assign)
		if r := sim.Reward(g, offline.Placement, s.Cluster); math.Float64bits(r) != math.Float64bits(cold.Relative) {
			t.Fatalf("graph %d: reward %v vs served %v", gi, r, cold.Relative)
		}
		if math.Float64bits(offline.Reward) != math.Float64bits(cold.Relative) {
			t.Fatalf("graph %d: sweep reward %v vs served %v", gi, offline.Reward, cold.Relative)
		}
		if cold.NumSuper != offline.Coarse.NumSuper {
			t.Fatalf("graph %d: num_super %d vs %d", gi, cold.NumSuper, offline.Coarse.NumSuper)
		}

		warm, err := svc.AllocateCtx(context.Background(), g, s.Cluster)
		if err != nil {
			t.Fatal(err)
		}
		if !warm.Cached {
			t.Fatalf("graph %d: repeat request missed the cache", gi)
		}
		samePlacement(t, "cached", offline.Placement.Assign, warm.Assign)
		if math.Float64bits(warm.Relative) != math.Float64bits(cold.Relative) {
			t.Fatalf("graph %d: cached reward drifted", gi)
		}
	}
}

// TestConcurrentMatchesSerial pins that cache-missing requests served
// concurrently produce bit-identical placements and rewards to the same
// requests served one at a time.
func TestConcurrentMatchesSerial(t *testing.T) {
	s := gen.Small()
	graphs := s.Generate().Test[:8]
	model := core.New(core.DefaultConfig())

	// Serial reference, no cache.
	serial := newTestService(t, Options{Model: model, CacheSize: -1})
	want := make([]Result, len(graphs))
	for i, g := range graphs {
		r, err := serial.AllocateCtx(context.Background(), g, s.Cluster)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}

	// Every request at once on a fresh service, no cache.
	concurrent := newTestService(t, Options{Model: model, CacheSize: -1})
	var wg sync.WaitGroup
	got := make([]Result, len(graphs))
	errs := make([]error, len(graphs))
	for i, g := range graphs {
		wg.Add(1)
		go func(i int, g *stream.Graph) {
			defer wg.Done()
			got[i], errs[i] = concurrent.AllocateCtx(context.Background(), g, s.Cluster)
		}(i, g)
	}
	wg.Wait()

	for i := range graphs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		samePlacement(t, "concurrent", want[i].Assign, got[i].Assign)
		if math.Float64bits(want[i].Relative) != math.Float64bits(got[i].Relative) {
			t.Fatalf("graph %d: concurrent reward %v vs serial %v", i, got[i].Relative, want[i].Relative)
		}
	}
}

// TestHotSwapInFlightOnOldSnapshot pins the reload protocol: a request
// already past the version pin when Reload lands must complete on the old
// snapshot, and the next request must see the new version.
func TestHotSwapInFlightOnOldSnapshot(t *testing.T) {
	s := gen.Small()
	g := s.Generate().Test[0]

	model := core.New(core.DefaultConfig())
	pipeOld := &core.Pipeline{Model: model, Placer: placer.Metis{Seed: 1}}
	wantOld := pipeOld.Allocate(g, s.Cluster)

	reg := obs.NewRegistry()
	svc := newTestService(t, Options{Model: model, Registry: reg, CacheSize: -1})

	// Hold the request right before its forward pass.
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	svc.beforeForward = func() {
		once.Do(func() {
			close(entered)
			<-release
		})
	}

	type res struct {
		r   Result
		err error
	}
	done := make(chan res, 1)
	go func() {
		r, err := svc.AllocateCtx(context.Background(), g, s.Cluster)
		done <- res{r, err}
	}()
	<-entered

	// Reload with perturbed parameters while the request is in flight.
	for _, p := range model.PS.All() {
		for i := range p.Value.Data {
			p.Value.Data[i] *= 1.5
		}
	}
	if err := svc.Reload(""); err != nil {
		t.Fatal(err)
	}
	close(release)

	first := <-done
	if first.err != nil {
		t.Fatal(first.err)
	}
	if first.r.ModelVersion != 1 {
		t.Fatalf("in-flight request served by version %d, want 1", first.r.ModelVersion)
	}
	samePlacement(t, "in-flight on old snapshot", wantOld.Placement.Assign, first.r.Assign)

	// A fresh request runs on the new parameters.
	wantNew := pipeOld.Allocate(g, s.Cluster) // live params are the reloaded ones
	second, err := svc.AllocateCtx(context.Background(), g, s.Cluster)
	if err != nil {
		t.Fatal(err)
	}
	if second.ModelVersion != 2 {
		t.Fatalf("post-reload request served by version %d, want 2", second.ModelVersion)
	}
	samePlacement(t, "post-reload", wantNew.Placement.Assign, second.Assign)
	if reg.Counter("serve_reloads_total").Value() != 1 {
		t.Fatalf("serve_reloads_total = %d", reg.Counter("serve_reloads_total").Value())
	}
}

// TestReloadClearsCache pins that cached placements die with the model
// version that computed them.
func TestReloadClearsCache(t *testing.T) {
	s := gen.Small()
	g := s.Generate().Test[0]
	svc := newTestService(t, Options{Model: core.New(core.DefaultConfig())})
	if _, err := svc.AllocateCtx(context.Background(), g, s.Cluster); err != nil {
		t.Fatal(err)
	}
	if svc.CacheLen() != 1 {
		t.Fatalf("cache len %d after first request", svc.CacheLen())
	}
	if err := svc.Reload(""); err != nil {
		t.Fatal(err)
	}
	if svc.CacheLen() != 0 {
		t.Fatalf("cache len %d after reload, want 0", svc.CacheLen())
	}
	r, err := svc.AllocateCtx(context.Background(), g, s.Cluster)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cached || r.ModelVersion != 2 {
		t.Fatalf("post-reload request cached=%v version=%d", r.Cached, r.ModelVersion)
	}
}

// TestReloadFromCheckpoint round-trips a checkpoint through /reload's
// load path: saved parameters must serve the placement the saved model
// computes offline.
func TestReloadFromCheckpoint(t *testing.T) {
	s := gen.Small()
	g := s.Generate().Test[0]

	savedCfg := core.DefaultConfig()
	savedCfg.Seed = 99
	saved := core.New(savedCfg)
	path := filepath.Join(t.TempDir(), "model.ckpt")
	if err := nn.SaveParams(saved.PS, path); err != nil {
		t.Fatal(err)
	}
	wantPipe := &core.Pipeline{Model: saved, Placer: placer.Metis{Seed: 1}}
	want := wantPipe.Allocate(g, s.Cluster)

	svc := newTestService(t, Options{Model: core.New(core.DefaultConfig())})
	if err := svc.Reload(path); err != nil {
		t.Fatal(err)
	}
	r, err := svc.AllocateCtx(context.Background(), g, s.Cluster)
	if err != nil {
		t.Fatal(err)
	}
	samePlacement(t, "checkpoint reload", want.Placement.Assign, r.Assign)

	// A corrupt checkpoint must be rejected without changing the version.
	bad := filepath.Join(t.TempDir(), "bad.ckpt")
	if err := os.WriteFile(bad, []byte("{trunc"), 0o644); err != nil {
		t.Fatal(err)
	}
	ver := svc.Version()
	if err := svc.Reload(bad); err == nil {
		t.Fatal("corrupt checkpoint accepted")
	}
	if svc.Version() != ver {
		t.Fatalf("failed reload bumped version %d→%d", ver, svc.Version())
	}
}

// TestFingerprintSensitivity pins that the canonical fingerprint separates
// every field an allocation depends on — and ignores labels.
func TestFingerprintSensitivity(t *testing.T) {
	base := func() *stream.Graph {
		g := stream.NewGraph(100)
		a := g.AddNode(stream.Node{IPT: 10, Payload: 64})
		b := g.AddNode(stream.Node{IPT: 20, Payload: 32, State: 5})
		g.AddEdge(a, b, 0)
		return g
	}
	c := sim.DefaultCluster(4, 1000)
	fp := FingerprintRequest(base(), c)

	if got := FingerprintRequest(base(), c); got != fp {
		t.Fatal("fingerprint not deterministic")
	}
	named := base()
	named.Nodes[0].Name = "src"
	if got := FingerprintRequest(named, c); got != fp {
		t.Fatal("node names must not change the fingerprint")
	}

	mutations := map[string]func() (*stream.Graph, sim.Cluster){
		"source rate": func() (*stream.Graph, sim.Cluster) { return base().ScaleSourceRate(2), c },
		"node ipt": func() (*stream.Graph, sim.Cluster) {
			g := base()
			g.Nodes[0].IPT = 11
			return g, c
		},
		"node state": func() (*stream.Graph, sim.Cluster) {
			g := base()
			g.Nodes[1].State = 6
			return g, c
		},
		"edge payload": func() (*stream.Graph, sim.Cluster) {
			g := base()
			g.Edges[0].Payload = 65
			return g, c
		},
		"extra node": func() (*stream.Graph, sim.Cluster) {
			g := base()
			n := g.AddNode(stream.Node{IPT: 1, Payload: 1})
			g.AddEdge(1, n, 0)
			return g, c
		},
		"devices": func() (*stream.Graph, sim.Cluster) {
			c2 := c
			c2.Devices = 5
			return base(), c2
		},
		"bandwidth": func() (*stream.Graph, sim.Cluster) {
			c2 := c
			c2.Bandwidth *= 2
			return base(), c2
		},
		"link model": func() (*stream.Graph, sim.Cluster) {
			c2 := c
			c2.Links = sim.PairLink
			return base(), c2
		},
		"heterogeneous mips": func() (*stream.Graph, sim.Cluster) {
			c2 := c
			c2.DeviceMIPS = []float64{1000, 1250, 1250, 1500}
			return base(), c2
		},
	}
	for name, mut := range mutations {
		g, cc := mut()
		if got := FingerprintRequest(g, cc); got == fp {
			t.Fatalf("mutation %q did not change the fingerprint", name)
		}
	}
}

// TestAllocateAfterClose pins the shutdown contract.
func TestAllocateAfterClose(t *testing.T) {
	s := gen.Small()
	g := s.Generate().Test[0]
	svc := newTestService(t, Options{Model: core.New(core.DefaultConfig())})
	svc.Close()
	if _, err := svc.AllocateCtx(context.Background(), g, s.Cluster); err != ErrClosed {
		t.Fatalf("Allocate after Close: %v, want ErrClosed", err)
	}
	svc.Close() // idempotent
}

// TestConcurrentAllocateRace hammers the service from many goroutines
// (mixed cache hits and misses) — meaningful under -race.
func TestConcurrentAllocateRace(t *testing.T) {
	s := gen.Small()
	graphs := s.Generate().Test[:4]
	svc := newTestService(t, Options{Model: core.New(core.DefaultConfig())})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				g := graphs[(w+i)%len(graphs)]
				if _, err := svc.AllocateCtx(context.Background(), g, s.Cluster); err != nil {
					panic(err)
				}
			}
		}(w)
	}
	wg.Wait()
}
