// infer.go is the model's tape-free forward pass for serving: the same
// merge probabilities EdgeProbs records on the autodiff tape, computed
// directly over the fused tensor kernels with scratch from a pooled
// tensor.Scope. Every kernel call mirrors its tape twin — including the
// materialized transposed projection copies that the tape's MatMul∘
// Transpose pairs produce — so for identical parameter values the output
// is bit-identical to the training path. That is what makes "served
// placement == offline CoarsenAllocate placement" a testable claim.
package core

import (
	"sync"

	"repro/internal/gnn"
	"repro/internal/nn"
	"repro/internal/sim"
	"repro/internal/stream"
	"repro/internal/tensor"
)

// scopePool recycles inference scopes (and their borrow lists) across
// requests; each goroutine drives its own scope.
var scopePool = sync.Pool{
	New: func() any { return tensor.NewScope() },
}

// InferProbsInto computes merge probabilities for pre-built features
// without recording an autodiff tape, reading parameters through r (a
// nn.Snapshot for serving, nn.LiveValues{} for the live model). The
// result is copied into out, which must have length f.Edge.Rows.
func (mo *Model) InferProbsInto(r nn.ValueReader, f *gnn.Features, out []float64) []float64 {
	sc := scopePool.Get().(*tensor.Scope)
	defer func() {
		sc.Release()
		scopePool.Put(sc)
	}()

	h := mo.Enc.EncodeInfer(sc, r, f) // N×2M

	transposed := func(p *nn.Param) *tensor.Matrix {
		v := r.Value(p)
		return tensor.TransposeInto(v, sc.Get(v.Cols, v.Rows))
	}
	e := f.Edge.Rows
	// Endpoint projections: project every node once, then gather per
	// edge, as the tape's GatherMatMul does.
	gatherProjected := func(p *nn.Param, idx []int) *tensor.Matrix {
		wT := transposed(p)
		proj := tensor.MatMulInto(h, wT, sc.Get(h.Rows, wT.Cols))
		return tensor.GatherRowsInto(proj, idx, sc.Get(e, wT.Cols))
	}
	hHead := gatherProjected(mo.wHead, f.Src) // E×M
	hTail := gatherProjected(mo.wTail, f.Dst) // E×M

	var eProj *tensor.Matrix
	if mo.Cfg.UseEdgeCollapse {
		wEdgeT := transposed(mo.wEdge)
		eProj = tensor.MatMulInto(f.Edge, wEdgeT, sc.Get(e, wEdgeT.Cols)) // E×EdgeDim
	} else {
		eProj = sc.GetZeroed(e, mo.Cfg.EdgeDim)
	}

	cat := tensor.ConcatColsInto(sc.Get(e, hHead.Cols+hTail.Cols+eProj.Cols), hHead, hTail, eProj)
	w1mT := transposed(mo.w1m)
	hEdge := tensor.MatMulInto(cat, w1mT, sc.Get(e, w1mT.Cols))
	p := mo.head.Infer(sc, r, hEdge) // E×1, sigmoid
	copy(out, p.Data)
	return out
}

// InferProbs is the feature-building convenience over InferProbsInto.
func (mo *Model) InferProbs(g *stream.Graph, c sim.Cluster, r nn.ValueReader) []float64 {
	f := gnn.BuildFeatures(g, c)
	return mo.InferProbsInto(r, f, make([]float64, g.NumEdges()))
}
