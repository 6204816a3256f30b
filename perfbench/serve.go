package main

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/autodiff"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/nn"
	"repro/internal/placer"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/stream"
)

// Load shape of serve-medium. The rates sit at about a fifth and three
// fifths of the measured knee (README.md); the latency limit applies to
// the all-request p95 of every probe. Hits repeat a hot set; each miss
// is a graph of a larger cold pool with a source rate no request used
// before. Per-graph cost varies about 3x, so both sets are large enough
// that their averages barely depend on the seed.
const (
	lightRate    = 40.0
	heavyRate    = 100.0
	limitMS      = 100.0
	hotGraphs    = 64
	coldGraphs   = 256
	serveConns   = 2
	bisectProbes = 6
	bisectLo     = 80.0 // the bisection brackets the knee: [bisectLo, bisectHi] req/s
	bisectHi     = 400.0
	// A fixed-rate probe gives up on requests it could not send this long
	// after its end; they count as failed.
	giveUp = 30 * time.Second
)

// daemon is one running allocserve process.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	stderr sync.WaitGroup
}

// startDaemon launches allocserve with its shipping defaults on a free
// loopback port and waits until /healthz answers.
func startDaemon(bin string, extra ...string) (*daemon, error) {
	if bin == "" {
		return nil, fmt.Errorf("serve-medium needs -daemon (the allocserve binary)")
	}
	args := append([]string{"-listen", "127.0.0.1:0", "-seed", "1", "-hidden", "24"}, extra...)
	cmd := exec.Command(bin, args...)
	// The daemon must not outlive the benchmark, even when it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	errPipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting allocserve: %w", err)
	}
	d := &daemon{cmd: cmd}
	addr := make(chan string, 1)
	d.stderr.Add(1)
	go func() {
		defer d.stderr.Done()
		sc := bufio.NewScanner(errPipe)
		for sc.Scan() {
			line := sc.Text()
			if _, a, ok := strings.Cut(line, "serving on "); ok {
				select {
				case addr <- strings.Fields(a)[0]:
				default:
				}
			} else if !strings.Contains(line, "draining") {
				fmt.Fprintln(os.Stderr, "allocserve:", line)
			}
		}
	}()
	select {
	case d.base = <-addr:
	case <-time.After(20 * time.Second):
		d.stop()
		return nil, fmt.Errorf("allocserve did not report its address")
	}
	for deadline := time.Now().Add(20 * time.Second); ; {
		resp, err := http.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("allocserve at %s not healthy: %v", d.base, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop drains the daemon with SIGINT (which also flushes -trace-out),
// kills it if it does not exit in time, and waits for it.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(os.Interrupt); err != nil {
		d.cmd.Process.Kill()
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	var err error
	select {
	case err = <-done:
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill()
		err = <-done
	}
	d.stderr.Wait()
	return err
}

// cpuDuring returns the CPU time the daemon used while fn ran.
func (d *daemon) cpuDuring(fn func()) (time.Duration, error) {
	c0, err := procCPUTime(d.cmd.Process.Pid)
	if err != nil {
		return 0, err
	}
	fn()
	c1, err := procCPUTime(d.cmd.Process.Pid)
	if err != nil {
		return 0, err
	}
	return c1 - c0, nil
}

// get fetches a daemon endpoint.
func (d *daemon) get(path string) ([]byte, error) {
	resp, err := http.Get(d.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// scrape parses the daemon's Prometheus /metrics into series → value.
func (d *daemon) scrape() (map[string]float64, error) {
	b, err := d.get("/metrics")
	if err != nil {
		return nil, err
	}
	m := make(map[string]float64)
	for _, line := range strings.Split(string(b), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err == nil {
			m[line[:i]] = v
		}
	}
	return m, nil
}

// histQuantile estimates the q-quantile of the observations a
// Prometheus histogram gained between two scrapes, interpolating within
// the bucket as histogram_quantile does. The daemon's windowed quantile
// summaries export p50/p90/p99 only.
func histQuantile(m0, m1 map[string]float64, name string, q float64) float64 {
	type bucket struct{ le, n float64 }
	var bs []bucket
	for k, v := range m1 {
		if rest, ok := strings.CutPrefix(k, name+`_bucket{le="`); ok {
			if le, err := strconv.ParseFloat(strings.TrimSuffix(rest, `"}`), 64); err == nil {
				bs = append(bs, bucket{le, v - m0[k]})
			}
		}
	}
	if len(bs) == 0 {
		return 0
	}
	slices.SortFunc(bs, func(a, b bucket) int { return cmp.Compare(a.le, b.le) })
	rank := q * bs[len(bs)-1].n
	prevLe, prevN := 0.0, 0.0
	for _, b := range bs {
		if b.n >= rank && b.n > prevN {
			if math.IsInf(b.le, 1) {
				return prevLe
			}
			return prevLe + (b.le-prevLe)*(rank-prevN)/(b.n-prevN)
		}
		prevLe, prevN = b.le, b.n
	}
	return prevLe
}

// memstats reads the daemon's runtime.MemStats from /debug/vars.
func (d *daemon) memstats() (totalAlloc, numGC, gcCPU float64, err error) {
	b, err := d.get("/debug/vars")
	if err != nil {
		return 0, 0, 0, err
	}
	var v struct {
		Memstats struct {
			TotalAlloc    float64
			NumGC         float64
			GCCPUFraction float64
		} `json:"memstats"`
	}
	if err := json.Unmarshal(b, &v); err != nil {
		return 0, 0, 0, fmt.Errorf("decoding /debug/vars: %w", err)
	}
	return v.Memstats.TotalAlloc, v.Memstats.NumGC, v.Memstats.GCCPUFraction, nil
}

// bodyTemplate splits a graph's request body around its source rate,
// so a unique request is two copies and a formatted float.
type bodyTemplate struct {
	g      *stream.Graph
	prefix []byte
	suffix []byte
}

func newBodyTemplate(g *stream.Graph) (bodyTemplate, error) {
	gs := serve.GraphSpec{SourceRate: 1}
	for _, n := range g.Nodes {
		gs.Nodes = append(gs.Nodes, serve.NodeSpec{IPT: n.IPT, Payload: n.Payload, Selectivity: n.Selectivity, State: n.State})
	}
	for _, e := range g.Edges {
		gs.Edges = append(gs.Edges, serve.EdgeSpec{Src: e.Src, Dst: e.Dst, Payload: e.Payload})
	}
	b, err := json.Marshal(serve.AllocateRequest{Graph: gs})
	if err != nil {
		return bodyTemplate{}, err
	}
	prefix := []byte(`{"graph":{"source_rate":`)
	if !bytes.HasPrefix(b, append(slices.Clone(prefix), '1', ',')) {
		return bodyTemplate{}, fmt.Errorf("unexpected request encoding %.40q", b)
	}
	return bodyTemplate{g: g, prefix: prefix, suffix: b[len(prefix)+1:]}, nil
}

func (t bodyTemplate) body(rate float64) []byte {
	out := make([]byte, 0, len(t.prefix)+24+len(t.suffix))
	out = append(out, t.prefix...)
	out = strconv.AppendFloat(out, rate, 'g', -1, 64)
	return append(out, t.suffix...)
}

// request is one scheduled request of a probe. Times are offsets from
// the probe's start; latency runs from due, not from sending.
type request struct {
	graph  int     // index into the templates: hot set first, then the cold pool
	factor float64 // source-rate factor; 1 for a hot repeat
	body   []byte
	due    time.Duration

	sent             bool
	pick, send, done time.Duration
	status           int
	resp             []byte
	err              error
}

func (q *request) isHit() bool { return q.factor == 1 }

func (q *request) latencyMS() float64 {
	if !q.sent || q.err != nil || q.status != http.StatusOK {
		return math.Inf(1)
	}
	return ms(q.done - q.due)
}

// probe is one fixed-rate, fixed-length stretch of open-loop Poisson load.
type probe struct {
	name string
	rate float64
	dur  time.Duration
	reqs []*request
}

// loadgen sends each probe's requests on schedule over at most
// serveConns keep-alive connections.
type loadgen struct {
	d       *daemon
	client  *http.Client
	tpl     []bodyTemplate
	nHot    int
	rng     *rand.Rand
	uniq    int // unique-request counter: every miss has its own rate
	traceID bool
}

func newLoadgen(st *serveState, seed int64) *loadgen {
	tr := &http.Transport{MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns, DisableCompression: true}
	return &loadgen{d: st.d, client: &http.Client{Transport: tr, Timeout: 60 * time.Second}, tpl: st.tpl, nHot: st.nHot,
		rng: rand.New(rand.NewSource(seed))}
}

// schedule draws a probe's Poisson arrivals and pre-encodes its bodies:
// hot repeats and unique requests on cold graphs alternate.
func (lg *loadgen) schedule(name string, rate float64, dur time.Duration) *probe {
	p := &probe{name: name, rate: rate, dur: dur}
	t := 0.0
	for {
		t += lg.rng.ExpFloat64() / rate
		if t >= dur.Seconds() {
			return p
		}
		q := &request{graph: lg.rng.Intn(lg.nHot), factor: 1, due: time.Duration(t * float64(time.Second))}
		if len(p.reqs)%2 == 1 {
			lg.uniq++
			q.graph = lg.nHot + lg.rng.Intn(len(lg.tpl)-lg.nHot)
			q.factor = 1 + float64(lg.uniq)*1e-9
		}
		tpl := lg.tpl[q.graph]
		q.body = tpl.body(tpl.g.SourceRate * q.factor)
		p.reqs = append(p.reqs, q)
	}
}

// run sends the probe. Requests not sent by cutoff are dropped.
func (lg *loadgen) run(p *probe, cutoff time.Duration) {
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < serveConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(p.reqs) {
					return
				}
				q := p.reqs[i]
				q.pick = time.Since(start)
				if q.pick > cutoff {
					continue
				}
				if wait := q.due - q.pick; wait > 0 {
					time.Sleep(wait)
				}
				lg.send(p, i, q, start)
			}
		}()
	}
	wg.Wait()
}

func (lg *loadgen) send(p *probe, i int, q *request, start time.Time) {
	req, err := http.NewRequest(http.MethodPost, lg.d.base+"/allocate", bytes.NewReader(q.body))
	if err != nil {
		q.err = err
		return
	}
	req.Header.Set("Content-Type", "application/json")
	if lg.traceID {
		kind := "h"
		if !q.isHit() {
			kind = "m"
		}
		req.Header.Set("X-Trace-Id", fmt.Sprintf("pb-%s-%s-%d", p.name, kind, i))
	}
	q.sent = true
	q.send = time.Since(start)
	resp, err := lg.client.Do(req)
	if err != nil {
		q.err = err
		q.done = time.Since(start)
		return
	}
	q.resp, q.err = io.ReadAll(resp.Body)
	q.done = time.Since(start)
	resp.Body.Close()
	q.status = resp.StatusCode
}

// probeResult summarises one probe.
type probeResult struct {
	rate               float64
	hit, miss, all     samples
	late, connWait     samples
	sent, completed    int
	p95                float64
	onTime, pass       bool
	scheduled, dropped int
}

func (p *probe) result() probeResult {
	r := probeResult{rate: p.rate, onTime: true}
	limit := p.dur + time.Duration(limitMS*float64(time.Millisecond))
	for _, q := range p.reqs {
		r.scheduled++
		lat := q.latencyMS()
		r.all = append(r.all, lat)
		if !q.sent {
			r.dropped++
			r.onTime = false
			continue
		}
		r.sent++
		r.late = append(r.late, ms(q.send-max(q.due, q.pick)))
		r.connWait = append(r.connWait, ms(max(0, q.pick-q.due)))
		if math.IsInf(lat, 1) {
			r.onTime = false
			continue
		}
		r.completed++
		if q.done > limit {
			r.onTime = false
		}
		if q.isHit() {
			r.hit = append(r.hit, lat)
		} else {
			r.miss = append(r.miss, lat)
		}
	}
	r.p95 = r.all.quantile(0.95)
	r.pass = r.onTime && r.p95 <= limitMS
	return r
}

// describe records the load generator's own account of a probe.
func (p *probe) describe(rep *report, r probeResult) {
	rep.notef("loadgen probe=%s arrivals=poisson rate=%g/s seconds=%.3g conns=%d scheduled=%d sent=%d completed=%d dropped=%d p95_ms=%.4g pass=%v late_ms_p95=%.4g conn_wait_ms_p95=%.4g",
		p.name, p.rate, p.dur.Seconds(), serveConns, r.scheduled, r.sent, r.completed, r.dropped, r.p95, r.pass,
		r.late.quantile(0.95), r.connWait.quantile(0.95))
}

// checkResponses applies the correctness checks to a probe's replies:
// every reply is a 200 with a placement that covers the graph and a
// relative throughput in [0,1], and every hot repeat is served from the
// cache. With counted, dropped requests count as failed too.
func checkResponses(r *report, p *probe, c sim.Cluster, st *serveState, counted bool) {
	for i, q := range p.reqs {
		if !q.sent {
			if counted {
				r.attempted++
				r.fail("%s request %d was never sent: the generator fell behind", p.name, i)
			}
			continue
		}
		r.attempted++
		if err := checkServed(q, c, st.tpl[q.graph].g); err != nil {
			r.fail("%s request %d: %v", p.name, i, err)
		}
	}
}

func checkServed(q *request, c sim.Cluster, g *stream.Graph) error {
	if q.err != nil {
		return q.err
	}
	if q.status != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", q.status, q.resp)
	}
	var resp serve.AllocateResponse
	if err := json.Unmarshal(q.resp, &resp); err != nil {
		return fmt.Errorf("decoding reply: %w", err)
	}
	p := &stream.Placement{Assign: resp.Assign, Devices: resp.Devices}
	if err := p.Validate(g); err != nil {
		return err
	}
	if p.Devices > c.Devices {
		return fmt.Errorf("placement uses %d devices, cluster has %d", p.Devices, c.Devices)
	}
	if rel := resp.RelativeThroughput; math.IsNaN(rel) || math.IsInf(rel, 0) || rel < 0 || rel > 1 {
		return fmt.Errorf("relative throughput %v outside [0,1]", rel)
	}
	if q.isHit() && !resp.Cached {
		return fmt.Errorf("hot-set repeat not served from the cache")
	}
	return nil
}

// serveState is what set-up leaves for the measurement.
type serveState struct {
	d    *daemon
	tpl  []bodyTemplate // hot set first, then the cold pool
	nHot int
	warm []serve.AllocateResponse // the hot set's first (uncached) replies
}

// setUpServe generates the graphs, encodes their bodies, starts a daemon
// and sends each hot graph once so the hot set is cached.
func setUpServe(o options, s gen.Setting, nHot, nCold int, extra ...string) (*serveState, error) {
	st := &serveState{nHot: nHot}
	for _, g := range gen.GenerateSet(s.Config, nHot+nCold, o.seed) {
		t, err := newBodyTemplate(g)
		if err != nil {
			return nil, err
		}
		st.tpl = append(st.tpl, t)
	}
	d, err := startDaemon(o.daemon, extra...)
	if err != nil {
		return nil, err
	}
	st.d = d
	warm := &probe{name: "warm"}
	for i := 0; i < nHot; i++ {
		warm.reqs = append(warm.reqs, &request{graph: i, factor: 1, body: st.tpl[i].body(st.tpl[i].g.SourceRate)})
	}
	newLoadgen(st, o.seed).run(warm, giveUp)
	for i, q := range warm.reqs {
		var ar serve.AllocateResponse
		if q.err == nil && q.status == http.StatusOK {
			q.err = json.Unmarshal(q.resp, &ar)
		}
		if q.err != nil || q.status != http.StatusOK {
			d.stop()
			return nil, fmt.Errorf("warming hot graph %d: status %d, %v %.200s", i, q.status, q.err, q.resp)
		}
		st.warm = append(st.warm, ar)
	}
	return st, nil
}

// runServeMedium is the serve-medium workload: open-loop Poisson load
// from this process on the allocserve daemon over loopback.
func runServeMedium(o options, r *report) error {
	s := gen.Medium()
	nHot, nCold := hotGraphs, coldGraphs
	if o.tiny {
		s.Config.MinNodes, s.Config.MaxNodes = 20, 30
		nHot, nCold = 4, 8
	}
	var running *daemon
	stop := func() error {
		if running == nil {
			return nil
		}
		d := running
		running = nil
		if err := d.stop(); err != nil {
			return fmt.Errorf("stopping allocserve: %w", err)
		}
		return nil
	}
	// restart stops the running daemon and sets up a fresh one.
	restart := func(extra ...string) (*serveState, error) {
		if err := stop(); err != nil {
			return nil, err
		}
		st, err := setUpServe(o, s, nHot, nCold, extra...)
		if err != nil {
			return nil, err
		}
		running = st.d
		return st, nil
	}
	defer stop()
	var st *serveState
	if err := timeSetup(r, 3, func() (time.Duration, error) {
		var err error
		if st, err = restart(); err != nil {
			return 0, err
		}
		return procCPUTime(st.d.cmd.Process.Pid)
	}); err != nil {
		return err
	}
	model := core.New(core.DefaultConfig())
	if !o.trace {
		return measureServe(o, r, st, s.Cluster, model)
	}
	return traceServe(o, r, st, s.Cluster, model, restart, stop)
}

// checkOffline requires the daemon's hot-set placements to equal offline
// Pipeline.Allocate with the same seeded model, and returns the hot
// set's mean relative throughput.
func checkOffline(r *report, st *serveState, c sim.Cluster, alloc func(g *stream.Graph) core.Allocation) float64 {
	var rel samples
	for i, ar := range st.warm {
		g := st.tpl[i].g
		r.attempted++
		a := alloc(g)
		v, err := checkPlacement(g, a.Placement, c)
		if err != nil {
			r.fail("offline hot graph %d: %v", i, err)
			continue
		}
		if !slices.Equal(a.Placement.Assign, ar.Assign) {
			r.fail("hot graph %d: served placement differs from offline Pipeline.Allocate", i)
		}
		rel = append(rel, v)
	}
	return rel.mean()
}

// checkMisses compares the first few unique requests a probe served with
// offline Pipeline.Allocate of the same graph and source rate.
func checkMisses(r *report, p *probe, st *serveState, c sim.Cluster, pipe *core.Pipeline, n int) {
	for _, q := range p.reqs {
		if n == 0 {
			return
		}
		if q.isHit() || q.status != http.StatusOK {
			continue
		}
		n--
		var ar serve.AllocateResponse
		if err := json.Unmarshal(q.resp, &ar); err != nil {
			continue // checkResponses reports it
		}
		g := st.tpl[q.graph].g
		a := pipe.Allocate(g.ScaleSourceRate(q.factor), c)
		r.attempted++
		if !slices.Equal(a.Placement.Assign, ar.Assign) {
			r.fail("%s: served placement of cold graph %d differs from offline Pipeline.Allocate", p.name, q.graph)
		}
	}
}

func measureServe(o options, r *report, st *serveState, c sim.Cluster, model *core.Model) error {
	lg := newLoadgen(st, o.seed)
	light := lg.schedule("light", lightRate, o.dur/4)
	heavy := lg.schedule("heavy", heavyRate, o.dur/4)
	alloc0, _, _, err := st.d.memstats()
	if err != nil {
		return err
	}
	cpu, err := st.d.cpuDuring(func() {
		lg.run(light, light.dur+giveUp)
		lg.run(heavy, heavy.dur+giveUp)
	})
	if err != nil {
		return err
	}
	alloc1, _, _, err := st.d.memstats()
	if err != nil {
		return err
	}
	lr, hr := light.result(), heavy.result()
	light.describe(r, lr)
	heavy.describe(r, hr)
	sent := float64(max(1, lr.sent+hr.sent))
	cpuPerReq := ms(cpu) / sent
	allocPerReq := (alloc1 - alloc0) / 1e6 / sent

	// Fixed-count bisection of fixed-length probes, geometric in rate. A
	// request not sent within the latency limit after the probe already
	// failed it, so it is dropped.
	lo, hi := bisectLo, bisectHi
	probeDur := o.dur / 2 / bisectProbes
	var bisect []*probe
	for k := 0; k < bisectProbes; k++ {
		p := lg.schedule(fmt.Sprintf("bisect%d", k), math.Sqrt(lo*hi), probeDur)
		lg.run(p, p.dur+time.Duration(limitMS*float64(time.Millisecond)))
		pr := p.result()
		p.describe(r, pr)
		if pr.pass {
			lo = p.rate
		} else {
			hi = p.rate
		}
		bisect = append(bisect, p)
	}
	maxRPS := lo
	if lo == bisectLo {
		// No bisection probe met the limit: the knee lies below the
		// bracket, so report the highest fixed rate that met it.
		maxRPS = 0
		for _, p := range []probeResult{lr, hr} {
			if p.pass {
				maxRPS = p.rate
			}
		}
	}
	rss, err := peakRSSMB(strconv.Itoa(st.d.cmd.Process.Pid))
	if err != nil {
		return err
	}

	checkResponses(r, light, c, st, true)
	checkResponses(r, heavy, c, st, true)
	for _, p := range bisect {
		checkResponses(r, p, c, st, false)
	}
	pipe := &core.Pipeline{Model: model, Placer: placer.Metis{Seed: 1}}
	quality := checkOffline(r, st, c, func(g *stream.Graph) core.Allocation { return pipe.Allocate(g, c) })
	checkMisses(r, light, st, c, pipe, 4)

	r.set("cpu_ms_per_op", cpuPerReq, lr.sent+hr.sent)
	r.set("alloc_mb_per_op", allocPerReq, lr.sent+hr.sent)
	r.set("quality", quality, len(st.warm))
	r.detailf("peak_rss_mb", rss, "MB", 1)
	r.notef("loadgen arrivals=poisson conns=%d light=%g/s heavy=%g/s limit_p95_ms=%g probes=%d (light, heavy, %d bisection of %.3gs over [%g, %g]/s) hot=%d cold=%d",
		serveConns, lightRate, heavyRate, limitMS, 2+bisectProbes, bisectProbes, probeDur.Seconds(), bisectLo, bisectHi, st.nHot, len(st.tpl)-st.nHot)
	r.detailf("serve_max_rps", maxRPS, "req/s", bisectProbes)
	r.detailf("serve_hit_p50_ms.light", lr.hit.median(), "ms", len(lr.hit))
	r.detailf("serve_hit_p95_ms.heavy", hr.hit.quantile(0.95), "ms", len(hr.hit))
	r.detailf("serve_miss_p50_ms.light", lr.miss.median(), "ms", len(lr.miss))
	r.detailf("serve_miss_p95_ms.light", lr.miss.quantile(0.95), "ms", len(lr.miss))
	r.detailf("serve_miss_p50_ms.heavy", hr.miss.median(), "ms", len(hr.miss))
	r.detailf("serve_miss_p95_ms.heavy", hr.miss.quantile(0.95), "ms", len(hr.miss))
	r.detailf("serve_rel_throughput_mean", quality, "T/I", len(st.warm))
	return nil
}

// traceServe runs a light probe on the untraced daemon, restarts it
// with -trace-out, and runs light and heavy probes tagged with trace
// ids. Per-layer figures come from the daemon's spans, /metrics and
// /debug/vars, from timing the wire layer's public functions here, and
// from traced offline allocations of the hot set.
func traceServe(o options, r *report, st *serveState, c sim.Cluster, model *core.Model,
	restart func(...string) (*serveState, error), stop func() error) error {
	third := o.dur / 3
	base := newLoadgen(st, o.seed)
	bp := base.schedule("untraced", lightRate, third)
	baseCPU, err := st.d.cpuDuring(func() { base.run(bp, bp.dur+giveUp) })
	if err != nil {
		return err
	}
	br := bp.result()
	bp.describe(r, br)
	checkResponses(r, bp, c, st, true)

	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	tracePath, err := filepath.Abs(filepath.Join(o.out, fmt.Sprintf("serve-trace-seed%d.json", o.seed)))
	if err != nil {
		return err
	}
	if st, err = restart("-trace-out", tracePath); err != nil {
		return err
	}
	m0, err := st.d.scrape()
	if err != nil {
		return err
	}
	alloc0, gc0, _, err := st.d.memstats()
	if err != nil {
		return err
	}
	lg := newLoadgen(st, o.seed)
	lg.traceID = true
	var res []probeResult
	var cpus []time.Duration
	for _, p := range []*probe{lg.schedule("light", lightRate, third), lg.schedule("heavy", heavyRate, third)} {
		cpu, err := st.d.cpuDuring(func() { lg.run(p, p.dur+giveUp) })
		if err != nil {
			return err
		}
		cpus = append(cpus, cpu)
		pr := p.result()
		p.describe(r, pr)
		checkResponses(r, p, c, st, true)
		res = append(res, pr)
	}
	m1, err := st.d.scrape()
	if err != nil {
		return err
	}
	alloc1, gc1, gcFrac, err := st.d.memstats()
	if err != nil {
		return err
	}
	// Stopping the daemon makes it write its trace file.
	if err := stop(); err != nil {
		return err
	}

	delta := func(k string) float64 { return m1[k] - m0[k] }
	reqs := delta("serve_requests_total")
	hits, misses := delta("serve_cache_hits_total"), delta("serve_cache_misses_total")
	if hits+misses > 0 {
		r.set("serve.cache_hit_frac", hits/(hits+misses), int(hits+misses))
	}
	if cnt := delta("serve_batch_size_count"); cnt > 0 {
		r.set("serve.batch_size_mean", delta("serve_batch_size_sum")/cnt, int(cnt))
	}
	r.set("serve.server_p95_ms", histQuantile(m0, m1, "serve_latency_ms", 0.95), int(reqs))
	if reqs > 0 {
		r.set("serve.shed_frac", delta("serve_shed_total")/reqs, int(reqs))
		r.set("go.alloc_mb_per_op", (alloc1-alloc0)/1e6/reqs, int(reqs))
		r.set("go.gc_cycles_per_op", (gc1-gc0)/reqs, int(reqs))
	}
	r.set("serve.errors", delta("serve_errors_total"), int(reqs))
	r.set("go.gc_cpu_frac", gcFrac, int(reqs))

	queue, forward, err := readServeSpans(tracePath)
	if err != nil {
		return err
	}
	r.set("serve.queue_wait_ms_p50", queue.median(), len(queue))
	r.set("serve.queue_wait_ms_p95", queue.quantile(0.95), len(queue))
	r.set("serve.forward_ms", forward.mean(), len(forward))

	var late, connWait samples
	sent, completed := 0, 0
	for _, pr := range res {
		late = append(late, pr.late...)
		connWait = append(connWait, pr.connWait...)
		sent += pr.sent
		completed += pr.completed
	}
	r.set("loadgen.late_ms_p95", late.quantile(0.95), len(late))
	r.set("loadgen.conn_wait_ms_p95", connWait.quantile(0.95), len(connWait))
	r.set("loadgen.sent", float64(sent), sent)
	r.set("loadgen.completed", float64(completed), completed)
	// The light probes on the untraced and the traced daemon send the same
	// requests; tracing overhead is the daemon's CPU per request between them.
	if baseCPU > 0 && br.sent > 0 && res[0].sent > 0 {
		r.set("trace.overhead_frac", (ms(cpus[0])/float64(res[0].sent))/(ms(baseCPU)/float64(br.sent))-1, res[0].sent)
	}

	decode, fingerprint := timeWireLayer(st.tpl[:st.nHot], c)
	r.set("serve.decode_ms", decode.mean(), len(decode))
	r.set("serve.fingerprint_us", fingerprint.mean(), len(fingerprint))

	// The miss path's offline layers, traced on the hot set: the same
	// replay alloc-large uses, and the check that served equals offline.
	tr := newTracer()
	tp := &timedPlacer{inner: placer.Metis{Seed: 1}, tr: tr}
	tpipe := &core.Pipeline{Model: model, Placer: tp}
	binder := nn.NewBinder(autodiff.NewTape())
	stages := stageSums{}
	var replay samples
	var replayErr error
	checkOffline(r, st, c, func(g *stream.Graph) core.Allocation {
		var a core.Allocation
		_, rep, err := tracedAllocate(tr, int64(len(replay)), tp, tpipe, binder, g, c, stages, func(x core.Allocation) { a = x })
		if err != nil && replayErr == nil {
			replayErr = err
		}
		replay = append(replay, ms(rep))
		return a
	})
	if replayErr != nil {
		return replayErr
	}
	stages.setMeans(r)
	r.set("trace.replay_ms", replay.mean(), len(replay))
	return tr.writeFile(o.spanPath())
}

// readServeSpans reads the daemon's trace file and returns the
// queue-wait and forward span durations (ms) of the probes' requests.
func readServeSpans(path string) (queue, forward samples, err error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, fmt.Errorf("reading allocserve trace: %w", err)
	}
	var f struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Dur  float64           `json:"dur"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, nil, fmt.Errorf("decoding allocserve trace: %w", err)
	}
	for _, ev := range f.TraceEvents {
		if !strings.HasPrefix(ev.Args["trace_id"], "pb-") {
			continue
		}
		switch ev.Name {
		case "queue-wait":
			queue = append(queue, ev.Dur/1e3)
		case "forward":
			forward = append(forward, ev.Dur/1e3)
		}
	}
	return queue, forward, nil
}

// timeWireLayer times, in this process, the serve package's wire work a
// request does before the cache probe: decoding and validating the body,
// and fingerprinting the request.
func timeWireLayer(tpl []bodyTemplate, c sim.Cluster) (decode, fingerprint samples) {
	for rep := 0; rep < 8; rep++ {
		for _, t := range tpl {
			body := t.body(t.g.SourceRate)
			t0 := time.Now()
			var req serve.AllocateRequest
			dec := json.NewDecoder(bytes.NewReader(body))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&req); err != nil {
				continue
			}
			g, err := req.Graph.BuildGraph()
			if err != nil {
				continue
			}
			decode = append(decode, ms(time.Since(t0)))
			t0 = time.Now()
			serve.FingerprintRequest(g, c)
			fingerprint = append(fingerprint, float64(time.Since(t0))/float64(time.Microsecond))
		}
	}
	return decode, fingerprint
}
