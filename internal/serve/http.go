// http.go is the JSON wire layer of the allocation service: POST
// /allocate takes a stream-graph spec (plus an optional cluster spec) and
// returns the placement, POST /reload hot-swaps the model, GET /healthz
// reports liveness, GET /statusz renders the human-readable operator
// page, and /metrics + /debug/vars (+ opt-in /debug/pprof) expose the
// obs registry — all on one mux served by obs.ServeHandler.
//
// Every response carries an X-Trace-Id header: adopted from the request
// when the client sent a plausible one, minted otherwise. The id rides
// the request context into the service, tagging the child spans the
// request emits, and keys the JSONL access log — so one curl's journey
// through decode → cache probe → forward lock → forward → respond is a
// single grep.
package serve

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stream"
)

// NodeSpec is one operator in the wire format.
type NodeSpec struct {
	IPT         float64 `json:"ipt"`
	Payload     float64 `json:"payload"`
	Selectivity float64 `json:"selectivity,omitempty"` // default 1
	State       float64 `json:"state,omitempty"`
	Name        string  `json:"name,omitempty"`
}

// EdgeSpec is one directed connection in the wire format.
type EdgeSpec struct {
	Src     int     `json:"src"`
	Dst     int     `json:"dst"`
	Payload float64 `json:"payload,omitempty"` // default: source node payload
}

// GraphSpec is the wire form of a stream graph.
type GraphSpec struct {
	SourceRate float64    `json:"source_rate"`
	Nodes      []NodeSpec `json:"nodes"`
	Edges      []EdgeSpec `json:"edges"`
}

// ClusterSpec is the wire form of a cluster description. Omitted fields
// fall back to the service's default cluster.
type ClusterSpec struct {
	Devices       int       `json:"devices"`
	MIPS          float64   `json:"mips,omitempty"`           // default 1.25e3 (paper)
	BandwidthMbps float64   `json:"bandwidth_mbps,omitempty"` // default from service
	Links         string    `json:"links,omitempty"`          // "nic" (default) or "pair"
	DeviceMIPS    []float64 `json:"device_mips,omitempty"`
}

// AllocateRequest is the POST /allocate body.
type AllocateRequest struct {
	Graph   GraphSpec    `json:"graph"`
	Cluster *ClusterSpec `json:"cluster,omitempty"`
}

// AllocateResponse is the POST /allocate reply.
type AllocateResponse struct {
	Assign             []int   `json:"assign"`
	Devices            int     `json:"devices"`
	NumSuper           int     `json:"num_super"`
	RelativeThroughput float64 `json:"relative_throughput"`
	Cached             bool    `json:"cached"`
	ModelVersion       uint64  `json:"model_version"`
}

// BuildGraph converts the spec into a validated stream graph with at
// least one edge (a single-operator "graph" has nothing to coarsen). A
// spec over maxRequestNodes operators or maxRequestEdges edges is
// rejected before anything is built.
func (gs *GraphSpec) BuildGraph() (*stream.Graph, error) {
	if len(gs.Nodes) == 0 {
		return nil, fmt.Errorf("graph has no nodes")
	}
	if len(gs.Edges) == 0 {
		return nil, fmt.Errorf("graph has no edges")
	}
	if len(gs.Nodes) > maxRequestNodes {
		return nil, fmt.Errorf("%d operators exceed the per-request limit %d", len(gs.Nodes), maxRequestNodes)
	}
	if len(gs.Edges) > maxRequestEdges {
		return nil, fmt.Errorf("%d edges exceed the per-request limit %d", len(gs.Edges), maxRequestEdges)
	}
	g := stream.NewGraph(gs.SourceRate)
	for _, n := range gs.Nodes {
		g.AddNode(stream.Node{IPT: n.IPT, Payload: n.Payload, Selectivity: n.Selectivity, State: n.State, Name: n.Name})
	}
	for i, e := range gs.Edges {
		if e.Src < 0 || e.Src >= len(gs.Nodes) || e.Dst < 0 || e.Dst >= len(gs.Nodes) {
			return nil, fmt.Errorf("edge %d endpoints (%d,%d) out of range", i, e.Src, e.Dst)
		}
		g.AddEdge(e.Src, e.Dst, e.Payload)
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// maxRequestDevices caps a request's device count. The simulator, the
// placers and Metis size per-device state by it (about 280 B per device
// per request), so an unbounded count lets a tiny body exhaust memory;
// 1024 is 16× the largest preset cluster. The daemon's own default
// cluster is operator input and is not capped.
const maxRequestDevices = 1024

// maxRequestNodes and maxRequestEdges cap a request's graph. A 4 MiB
// body fits 10⁵ minimal operators; encoding that many alone takes about
// half a second (BenchmarkGNNEncode/huge), before a 16-candidate sweep
// over all of them, and leaves buffers parked in the tensor arena's
// largest classes. Over 600 draws (60 seeds × 10) the xlarge preset, the
// largest the daemon serves, measured at most 1,999 operators and 20,566
// edges, so the caps leave about 4× and 3× headroom.
const (
	maxRequestNodes = 8192
	maxRequestEdges = 65536
)

// maxRequestBytes caps an /allocate body; a larger one answers 413 before
// it is decoded into memory. Encoded compactly, the gen presets' graphs
// measure 18–76 KB (medium), 82–201 KB (large) and 0.24–1.3 MB (xlarge,
// 1,000–2,000 operators, the largest the daemon serves); 4 MiB leaves
// about 3× headroom over the largest for names and whitespace.
const maxRequestBytes = 4 << 20

// bodyReadTimeout bounds reading an /allocate body: a client must send
// a body at the maxRequestBytes cap at 1.2 Mbit/s or faster. A variable
// so tests can shorten it.
var bodyReadTimeout = 30 * time.Second

// BuildCluster resolves the spec against a default cluster and validates
// the result (sim.Cluster.Validate). A device count above
// maxRequestDevices is rejected.
func (cs *ClusterSpec) BuildCluster(def sim.Cluster) (sim.Cluster, error) {
	if cs == nil {
		return def, nil
	}
	c := def
	if cs.Devices > maxRequestDevices {
		return c, fmt.Errorf("devices %d exceeds the per-request limit %d", cs.Devices, maxRequestDevices)
	}
	if cs.Devices != 0 {
		c.Devices = cs.Devices
		c.DeviceMIPS = nil
	}
	if cs.MIPS != 0 {
		c.MIPS = cs.MIPS
	}
	if cs.BandwidthMbps != 0 {
		c.Bandwidth = cs.BandwidthMbps * 1e6
	}
	switch cs.Links {
	case "":
	case "nic":
		c.Links = sim.NIC
	case "pair":
		c.Links = sim.PairLink
	default:
		return c, fmt.Errorf("unknown links model %q (want \"nic\" or \"pair\")", cs.Links)
	}
	if cs.DeviceMIPS != nil {
		c.DeviceMIPS = cs.DeviceMIPS
	}
	return c, c.Validate()
}

// AccessRecord is one JSONL access-log line: enough to join a response
// (by trace id) with its metrics, cache behaviour, and model version.
type AccessRecord struct {
	TS           string  `json:"ts"`
	TraceID      string  `json:"trace_id"`
	Status       int     `json:"status"`
	Fingerprint  string  `json:"fingerprint,omitempty"`
	Nodes        int     `json:"nodes"`
	Edges        int     `json:"edges"`
	Devices      int     `json:"devices"`
	Cached       bool    `json:"cached"`
	Shed         bool    `json:"shed,omitempty"`
	ModelVersion uint64  `json:"model_version,omitempty"`
	LatencyMS    float64 `json:"latency_ms"`
	Err          string  `json:"err,omitempty"`
}

// HandlerOpts tunes the HTTP layer beyond the required wiring.
type HandlerOpts struct {
	// AccessLog, when set, receives one AccessRecord per /allocate
	// request (every status, including sheds and bad specs).
	AccessLog *obs.JSONLWriter
	// Pprof mounts /debug/pprof/ on the observability mux (opt-in).
	Pprof bool
}

// NewHandler mounts the allocation API plus the observability
// endpoints: POST /allocate, POST /reload, GET /healthz, GET /statusz,
// GET /metrics, GET /debug/vars (and /debug/pprof/ with opts.Pprof).
// reloadPath is the checkpoint /reload re-reads ("" means re-snapshot
// the live parameters). reg should be the registry the service reports
// into.
func NewHandler(s *Service, defCluster sim.Cluster, reloadPath string, reg *obs.Registry, opts HandlerOpts) http.Handler {
	mux := http.NewServeMux()
	obsH := obs.NewHandler(reg, obs.HandlerOpts{Pprof: opts.Pprof})
	mux.Handle("/metrics", obsH)
	mux.Handle("/debug/vars", obsH)
	if opts.Pprof {
		mux.Handle("/debug/pprof/", obsH)
	}
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "ok model_version=%d\n", s.Version())
	})
	mux.HandleFunc("/statusz", func(w http.ResponseWriter, r *http.Request) {
		writeStatusz(w, s, reg)
	})
	fallbacks := reg.Counter("serve_decode_fallback_total")
	mux.HandleFunc("/allocate", func(w http.ResponseWriter, r *http.Request) {
		handleAllocate(w, r, s, defCluster, opts.AccessLog, fallbacks)
	})
	mux.HandleFunc("/reload", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		if err := s.Reload(reloadPath); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		fmt.Fprintf(w, "reloaded model_version=%d\n", s.Version())
	})
	return withTraceID(mux)
}

// withTraceID stamps every response with an X-Trace-Id — adopted from
// the request header when plausible, minted otherwise — and threads the
// id through the request context for span tagging and access logging.
func withTraceID(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Trace-Id")
		if !validTraceID(id) {
			id = MintTraceID()
		}
		w.Header().Set("X-Trace-Id", id)
		next.ServeHTTP(w, r.WithContext(WithTraceID(r.Context(), id)))
	})
}

// handleAllocate is POST /allocate: decode, validate, serve, respond —
// writing one access-log record whatever the outcome. A body over
// maxRequestBytes gets 413, a body not received within bodyReadTimeout
// 408, and an invalid spec 400. Shed requests get
// 429 + Retry-After so well-behaved clients back off; a draining service
// answers 503, and any other service failure 500. fallbacks counts the
// bodies the canonical fast path did not decode (decode.go), and the
// decode span covers reading, decoding and validating a body that
// passes.
func handleAllocate(w http.ResponseWriter, r *http.Request, s *Service, defCluster sim.Cluster, accessLog *obs.JSONLWriter, fallbacks *obs.Counter) {
	start := time.Now()
	rec := AccessRecord{TraceID: TraceIDFrom(r.Context())}
	defer func() {
		if accessLog == nil {
			return
		}
		rec.TS = start.UTC().Format(time.RFC3339Nano)
		rec.LatencyMS = float64(time.Since(start)) / float64(time.Millisecond)
		accessLog.Write(rec)
	}()
	fail := func(status int, msg string) {
		rec.Status = status
		rec.Err = msg
		http.Error(w, msg, status)
	}

	if r.Method != http.MethodPost {
		fail(http.StatusMethodNotAllowed, "POST only")
		return
	}
	decodeT0 := start
	if s.tracer != nil {
		decodeT0 = time.Now()
	}
	// A client stalling inside its body would hold the connection and
	// this goroutine, so the read is bounded. The bound stays armed on a
	// failed read, where it also bounds the server's discard of the rest.
	// A writer without read deadlines (a test recorder) reads unbounded.
	rc := http.NewResponseController(w)
	_ = rc.SetReadDeadline(time.Now().Add(bodyReadTimeout))
	var req AllocateRequest
	fast, err := decodeRequest(w, r, &req)
	if !fast {
		fallbacks.Inc()
	}
	if err != nil {
		var tooLarge *http.MaxBytesError
		switch {
		case errors.As(err, &tooLarge):
			fail(http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds %d bytes", maxRequestBytes))
		case errors.Is(err, os.ErrDeadlineExceeded):
			// A stalled upload, not a malformed one: the client may retry.
			fail(http.StatusRequestTimeout, fmt.Sprintf("request body not received within %v", bodyReadTimeout))
		default:
			fail(http.StatusBadRequest, "bad request: "+err.Error())
		}
		return
	}
	// Left armed, the bound would cancel the request's context mid-forward.
	_ = rc.SetReadDeadline(time.Time{})
	g, err := req.Graph.BuildGraph()
	if err != nil {
		fail(http.StatusBadRequest, "bad graph: "+err.Error())
		return
	}
	c, err := req.Cluster.BuildCluster(defCluster)
	if err != nil {
		fail(http.StatusBadRequest, "bad cluster: "+err.Error())
		return
	}
	s.emitSpan("decode", laneRequest, decodeT0, rec.TraceID)
	rec.Nodes = g.NumNodes()
	rec.Edges = len(g.Edges)
	rec.Devices = c.Devices

	res, err := s.AllocateCtx(r.Context(), g, c)
	switch {
	case errors.Is(err, ErrOverloaded):
		rec.Shed = true
		w.Header().Set("Retry-After", strconv.Itoa(RetryAfterSeconds))
		fail(http.StatusTooManyRequests, err.Error())
		return
	case errors.Is(err, ErrClosed):
		fail(http.StatusServiceUnavailable, err.Error()) // draining: retry elsewhere
		return
	case err != nil:
		fail(http.StatusInternalServerError, err.Error()) // e.g. a panicked forward pass
		return
	}
	rec.Status = http.StatusOK
	rec.Cached = res.Cached
	rec.ModelVersion = res.ModelVersion
	if res.Fingerprint != (Fingerprint{}) {
		rec.Fingerprint = hex.EncodeToString(res.Fingerprint[:])
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(AllocateResponse{
		Assign:             res.Assign,
		Devices:            res.Devices,
		NumSuper:           res.NumSuper,
		RelativeThroughput: res.Relative,
		Cached:             res.Cached,
		ModelVersion:       res.ModelVersion,
	})
}

// writeStatusz renders the human-readable operator page: uptime, model
// version, live quantiles, shed state, cache and traffic counters.
func writeStatusz(w http.ResponseWriter, s *Service, reg *obs.Registry) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	lat := s.LatencyQuantiles()
	qw := s.QueueWaitQuantiles()
	shed := "off"
	if s.ShedMode() {
		shed = "ON"
	}
	fmt.Fprintf(w, "allocserve status\n\n")
	fmt.Fprintf(w, "uptime:         %s\n", s.Uptime().Round(time.Second))
	fmt.Fprintf(w, "model_version:  %d\n", s.Version())
	fmt.Fprintf(w, "qps:            %v\n", reg.Gauge("serve_qps").Value())
	fmt.Fprintf(w, "inflight:       %v\n", reg.Gauge("serve_inflight").Value())
	fmt.Fprintf(w, "requests:       %d (errors %d)\n",
		reg.Counter("serve_requests_total").Value(), reg.Counter("serve_errors_total").Value())
	fmt.Fprintf(w, "\nlatency_ms (windowed):    ")
	writeQuantiles(w, lat)
	fmt.Fprintf(w, "queue_wait_ms (windowed): ")
	writeQuantiles(w, qw)
	fmt.Fprintf(w, "\nshed_mode:            %s\n", shed)
	fmt.Fprintf(w, "shed_total:           %d\n", reg.Counter("serve_shed_total").Value())
	fmt.Fprintf(w, "slo_breach_total:     %d\n", reg.Counter("serve_slo_breach_total").Value())
	fmt.Fprintf(w, "\ncache: %d entries (hits %d, misses %d)\n", s.CacheLen(),
		reg.Counter("serve_cache_hits_total").Value(), reg.Counter("serve_cache_misses_total").Value())
}

func writeQuantiles(w http.ResponseWriter, q obs.QuantileSnapshot) {
	for i, obj := range q.Objectives {
		fmt.Fprintf(w, "p%g=%.3f ", obj*100, q.Values[i])
	}
	fmt.Fprintf(w, "(n=%d)\n", q.Count)
}
