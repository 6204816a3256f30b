package stream

import (
	"encoding/json"
	"fmt"
	"io"
)

// nodeJSON and edgeJSON are the wire form of one node and one edge, the
// field names and tags the allocation service's GraphSpec decodes.
type nodeJSON struct {
	IPT         float64 `json:"ipt"`
	Payload     float64 `json:"payload"`
	Selectivity float64 `json:"selectivity"`
	State       float64 `json:"state,omitempty"`
	Name        string  `json:"name,omitempty"`
}

type edgeJSON struct {
	Src     int     `json:"src"`
	Dst     int     `json:"dst"`
	Payload float64 `json:"payload"`
}

// JSONWriter emits a JSON array of graphs one element at a time, holding
// only the element currently being written: the caller generates a graph,
// writes it, and drops it, so a dataset of huge graphs never materializes
// in memory at once. Each element carries the field names of the
// allocation service's wire form (serve.GraphSpec), which decodes it.
type JSONWriter struct {
	w      io.Writer
	n      int
	err    error
	closed bool
}

// NewJSONWriter returns a writer emitting a JSON graph array to w.
func NewJSONWriter(w io.Writer) *JSONWriter { return &JSONWriter{w: w} }

func (jw *JSONWriter) emit(s string) {
	if jw.err == nil {
		_, jw.err = io.WriteString(jw.w, s)
	}
}

func (jw *JSONWriter) emitValue(v any) {
	if jw.err != nil {
		return
	}
	b, err := json.Marshal(v)
	if err != nil {
		jw.err = err
		return
	}
	_, jw.err = jw.w.Write(b)
}

// Write appends one graph to the array. The graph is marshaled field by
// field — source rate, then each node, then each edge — so no whole-graph
// buffer is ever built.
func (jw *JSONWriter) Write(g *Graph) error {
	if jw.closed {
		return fmt.Errorf("stream: JSONWriter already closed")
	}
	if jw.n == 0 {
		jw.emit("[")
	} else {
		jw.emit(",")
	}
	jw.n++
	jw.emit(`{"source_rate":`)
	jw.emitValue(g.SourceRate)
	jw.emit(`,"nodes":`)
	if len(g.Nodes) == 0 {
		jw.emit("null")
	} else {
		for i, n := range g.Nodes {
			if i == 0 {
				jw.emit("[")
			} else {
				jw.emit(",")
			}
			jw.emitValue(nodeJSON(n))
		}
		jw.emit("]")
	}
	jw.emit(`,"edges":`)
	if len(g.Edges) == 0 {
		jw.emit("null")
	} else {
		for i, e := range g.Edges {
			if i == 0 {
				jw.emit("[")
			} else {
				jw.emit(",")
			}
			jw.emitValue(edgeJSON(e))
		}
		jw.emit("]")
	}
	jw.emit("}")
	return jw.err
}

// Close terminates the array (emitting "[]" when nothing was written) and
// writes a trailing newline.
func (jw *JSONWriter) Close() error {
	if jw.closed {
		return jw.err
	}
	jw.closed = true
	if jw.n == 0 {
		jw.emit("[]")
	} else {
		jw.emit("]")
	}
	jw.emit("\n")
	return jw.err
}
