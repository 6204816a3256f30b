// trace.go implements the span tracer. Spans are "complete" Chrome
// trace events (ph "X"): a name, a start timestamp, a duration, and a
// (pid, tid) lane. The exported JSON loads directly into chrome://tracing
// or https://ui.perfetto.dev, giving a per-worker timeline of the
// training phases (encode / sample / simulate / backward / all-reduce /
// checkpoint).
package obs

import (
	"encoding/json"
	"io"
	"os"
	"sync"
	"time"
)

// TraceEvent is one Chrome trace-event record. Timestamps and durations
// are microseconds relative to the tracer's start, as the trace-event
// format specifies. Args carries optional per-event metadata (e.g. the
// request trace id) that chrome://tracing shows in the detail pane.
type TraceEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// traceFile is the on-disk envelope chrome://tracing expects.
type traceFile struct {
	TraceEvents     []TraceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// Tracer collects spans in memory. All methods are safe for concurrent
// use and nil-safe: a nil tracer hands out nil spans whose End is a
// no-op, so instrumented code pays one nil check when tracing is off.
type Tracer struct {
	mu     sync.Mutex
	start  time.Time
	events []TraceEvent
}

// NewTracer returns a tracer whose clock starts now.
func NewTracer() *Tracer {
	return &Tracer{start: time.Now()}
}

// Span is one in-flight timed region. End it exactly once.
type Span struct {
	tr   *Tracer
	name string
	tid  int
	t0   time.Time
}

// StartSpan opens a span on worker lane tid. Nil tracer → nil span.
func (t *Tracer) StartSpan(name string, tid int) *Span {
	if t == nil {
		return nil
	}
	return &Span{tr: t, name: name, tid: tid, t0: time.Now()}
}

// End closes the span, recording a complete ("X") event. No-op on nil.
func (s *Span) End() {
	if s == nil || s.tr == nil {
		return
	}
	s.tr.Emit(s.name, s.tid, s.t0, time.Since(s.t0))
}

// Emit records a complete event from an externally measured interval —
// the path used when one measurement feeds both the tracer and the
// training-curve phase timings. No-op on a nil tracer.
func (t *Tracer) Emit(name string, tid int, start time.Time, d time.Duration) {
	t.EmitArgs(name, tid, start, d, nil)
}

// EmitArgs is Emit with per-event metadata attached (nil args are
// simply omitted from the JSON). No-op on a nil tracer.
func (t *Tracer) EmitArgs(name string, tid int, start time.Time, d time.Duration, args map[string]string) {
	if t == nil {
		return
	}
	ev := TraceEvent{
		Name: name,
		Ph:   "X",
		TS:   float64(start.Sub(t.start)) / float64(time.Microsecond),
		Dur:  float64(d) / float64(time.Microsecond),
		PID:  1,
		TID:  tid,
		Args: args,
	}
	t.mu.Lock()
	t.events = append(t.events, ev)
	t.mu.Unlock()
}

// Len returns the number of recorded events (0 on nil).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Events returns a copy of the recorded events.
func (t *Tracer) Events() []TraceEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]TraceEvent(nil), t.events...)
}

// WriteJSON writes the trace as Chrome trace-event JSON.
func (t *Tracer) WriteJSON(w io.Writer) error {
	events := t.Events()
	if events == nil {
		events = []TraceEvent{}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(traceFile{TraceEvents: events, DisplayTimeUnit: "ms"})
}

// WriteFile writes the trace to path (chrome://tracing-loadable).
func (t *Tracer) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
