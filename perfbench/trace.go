package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/placer"
	"repro/internal/sim"
	"repro/internal/stream"
)

// span is one timed call into a layer. Spans of one allocation, request
// or training round share id; parent indexes the enclosing span (-1 for
// a root). Replayed spans re-run work the parent did inside a call the
// benchmark cannot split, so they count as the parent's children even
// though they run after it.
type span struct {
	name       string
	id         int64
	parent     int
	start, end time.Duration
	replay     bool
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, id int64, parent int, replay bool) int {
	t.spans = append(t.spans, span{name: name, id: id, parent: parent, start: time.Since(t.t0), replay: replay})
	return len(t.spans) - 1
}

func (t *tracer) finish(i int) time.Duration {
	t.spans[i].end = time.Since(t.t0)
	return t.spans[i].end - t.spans[i].start
}

// timed runs fn inside a span and returns the span's duration.
func (t *tracer) timed(name string, id int64, parent int, replay bool, fn func()) time.Duration {
	i := t.begin(name, id, parent, replay)
	fn()
	return t.finish(i)
}

func (t *tracer) dur(i int) time.Duration { return t.spans[i].end - t.spans[i].start }

// selfTime is a span's duration minus its children's.
func (t *tracer) selfTime(i int) time.Duration {
	d := t.dur(i)
	for j := i + 1; j < len(t.spans); j++ {
		if t.spans[j].parent == i {
			d -= t.dur(j)
		}
	}
	return d
}

// writeFile saves the spans as Chrome trace events: calls on lane 0,
// replays on lane 1.
func (t *tracer) writeFile(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	ev := make([]event, len(t.spans))
	for i, s := range t.spans {
		tid := 0
		if s.replay {
			tid = 1
		}
		ev[i] = event{Name: s.name, Ph: "X", TS: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3, TID: tid,
			Args: map[string]any{"id": s.id, "parent": s.parent, "replay": s.replay}}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(map[string]any{"traceEvents": ev, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

// placeCall is one partition call seen by timedPlacer.
type placeCall struct {
	coarse *stream.Graph
	place  *stream.Placement
	d      time.Duration
}

// timedPlacer wraps a placer to time and count each partition call. The
// calls it records let the traced run replay the sweep's candidates. The
// trainer scores samples concurrently, so recording takes a lock, but
// the partition calls themselves run unserialized.
type timedPlacer struct {
	inner  placer.Placer
	tr     *tracer
	replay bool // spans are marked as replays
	mu     sync.Mutex
	id     int64
	parent int
	calls  []placeCall
}

func (p *timedPlacer) Place(g *stream.Graph, c sim.Cluster) *stream.Placement {
	t0 := time.Now()
	out := p.inner.Place(g, c)
	d := time.Since(t0)
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.tr != nil {
		start := t0.Sub(p.tr.t0)
		p.tr.spans = append(p.tr.spans, span{name: "metis.partition", id: p.id, parent: p.parent, start: start, end: start + d, replay: p.replay})
	}
	p.calls = append(p.calls, placeCall{coarse: g, place: out, d: d})
	return out
}

// Name reports the wrapped placer's name.
func (p *timedPlacer) Name() string { return p.inner.Name() }

// reset starts a new traced operation.
func (p *timedPlacer) reset(id int64, parent int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.id, p.parent, p.calls = id, parent, p.calls[:0]
}

// total returns the number of partition calls since reset and their
// summed time.
func (p *timedPlacer) total() (int, time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	var d time.Duration
	for _, c := range p.calls {
		d += c.d
	}
	return len(p.calls), d
}
