package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestTraceJSONSchema validates the exported file against the Chrome
// trace-event schema: a top-level traceEvents array of complete ("X")
// events with non-negative microsecond timestamps and durations, and
// the (pid, tid) lanes the instrumentation assigns.
func TestTraceJSONSchema(t *testing.T) {
	tr := NewTracer()
	sp := tr.StartSpan("encode", 2)
	time.Sleep(time.Millisecond)
	sp.End()
	tr.Emit("all-reduce", 0, time.Now().Add(-2*time.Millisecond), 2*time.Millisecond)

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Name string   `json:"name"`
			Ph   string   `json:"ph"`
			TS   *float64 `json:"ts"`
			Dur  *float64 `json:"dur"`
			PID  *int     `json:"pid"`
			TID  *int     `json:"tid"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(file.TraceEvents) != 2 {
		t.Fatalf("got %d events, want 2", len(file.TraceEvents))
	}
	if file.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", file.DisplayTimeUnit)
	}
	names := map[string]bool{}
	for _, ev := range file.TraceEvents {
		names[ev.Name] = true
		if ev.Ph != "X" {
			t.Fatalf("event %q phase %q, want complete (X)", ev.Name, ev.Ph)
		}
		if ev.TS == nil || ev.Dur == nil || ev.PID == nil || ev.TID == nil {
			t.Fatalf("event %q missing required fields: %+v", ev.Name, ev)
		}
		if *ev.Dur < 0 {
			t.Fatalf("event %q negative duration %v", ev.Name, *ev.Dur)
		}
	}
	if !names["encode"] || !names["all-reduce"] {
		t.Fatalf("missing expected span names: %v", names)
	}
	// The measured span slept ~1ms; its duration must be in microseconds
	// (≥ 500µs), not nanoseconds or milliseconds.
	for _, ev := range file.TraceEvents {
		if ev.Name == "encode" && (*ev.Dur < 500 || *ev.Dur > 1e6) {
			t.Fatalf("encode dur %vµs implausible for a 1ms sleep", *ev.Dur)
		}
	}
}

func TestTracerEmptyWriteIsValidJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := NewTracer().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var file map[string]any
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatal(err)
	}
	if _, ok := file["traceEvents"].([]any); !ok {
		t.Fatalf("traceEvents must be an array even when empty: %v", file)
	}
}

func TestTracerConcurrentSpans(t *testing.T) {
	tr := NewTracer()
	var wg sync.WaitGroup
	const workers, spans = 8, 50
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < spans; i++ {
				tr.StartSpan("work", w).End()
			}
		}(w)
	}
	wg.Wait()
	if tr.Len() != workers*spans {
		t.Fatalf("recorded %d spans, want %d", tr.Len(), workers*spans)
	}
}

// TestEmitArgs pins per-event metadata: args survive the JSON
// round-trip, argless events omit the field, and nil tracers stay
// no-ops.
func TestEmitArgs(t *testing.T) {
	var nilTr *Tracer
	nilTr.EmitArgs("x", 0, time.Now(), time.Millisecond, map[string]string{"k": "v"})

	tr := NewTracer()
	t0 := time.Now()
	tr.EmitArgs("forward", 1, t0, 2*time.Millisecond, map[string]string{"trace_id": "abc123"})
	tr.Emit("plain", 1, t0, time.Millisecond)

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var file traceFile
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatal(err)
	}
	if len(file.TraceEvents) != 2 {
		t.Fatalf("%d events, want 2", len(file.TraceEvents))
	}
	if got := file.TraceEvents[0].Args["trace_id"]; got != "abc123" {
		t.Fatalf("args did not round-trip: %+v", file.TraceEvents[0])
	}
	if file.TraceEvents[1].Args != nil {
		t.Fatalf("argless event grew args: %+v", file.TraceEvents[1])
	}
	if !strings.Contains(buf.String(), `"args":{"trace_id":"abc123"}`) ||
		strings.Contains(buf.String(), `"plain","ph":"X"`) && strings.Contains(buf.String(), `"args":{}`) {
		t.Fatalf("unexpected serialization: %s", buf.String())
	}
}

func TestTracerWriteFile(t *testing.T) {
	tr := NewTracer()
	tr.StartSpan("x", 0).End()
	path := t.TempDir() + "/trace.json"
	if err := tr.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	var file traceFile
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.TraceEvents) != 1 {
		t.Fatalf("file has %d events, want 1", len(file.TraceEvents))
	}
}
