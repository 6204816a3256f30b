// infer.go is the encoder's tape-free forward pass for serving. It mirrors
// Encode kernel-for-kernel — the same fused tensor kernels, the same
// operand order, the same materialized W1ᵀ/W2ᵀ copies — so for identical
// parameter values the returned embeddings are bit-identical to the
// training-path forward pass. Scratch comes from the caller's tensor.Scope
// instead of the tape, so a reused scope performs no steady-state
// allocation.
package gnn

import (
	"repro/internal/nn"
	"repro/internal/tensor"
)

// EncodeInfer computes the N×2M node representations without recording an
// autodiff tape. The returned matrix is owned by sc and is valid until
// sc.Release.
func (e *Encoder) EncodeInfer(sc *tensor.Scope, r nn.ValueReader, f *Features) *tensor.Matrix {
	n := f.Node.Rows
	m := e.M
	f.EnsureCSR()
	h := e.In.InferTanh(sc, r, f.Node) // N×2M, fused affine+tanh

	w1 := r.Value(e.W1)
	w2 := r.Value(e.W2)
	w1T := tensor.TransposeInto(w1, sc.Get(w1.Cols, w1.Rows)) // 2M×M
	w2T := tensor.TransposeInto(w2, sc.Get(w2.Cols, w2.Rows)) // 2M×M

	// Loop-invariant edge-feature projections, as in Encode.
	var efUp, efDown *tensor.Matrix
	if e.UseEdgeFeatures {
		weUp, weDown := r.Value(e.WeUp), r.Value(e.WeDown)
		efUp = tensor.MatMulT2Into(f.Edge, weUp, sc.Get(f.Edge.Rows, weUp.Rows))       // E×M
		efDown = tensor.MatMulT2Into(f.Edge, weDown, sc.Get(f.Edge.Rows, weDown.Rows)) // E×M
	}

	for k := 0; k < e.K; k++ {
		// One node projection P = h·W1ᵀ per hop, shared by both
		// directions, as in Encode.
		proj := tensor.MatMulInto(h, w1T, sc.Get(n, m))

		// Upstream messages: gather the head node's projected row (+ edge
		// features), mean-pool at the tail; downstream mirrors it. Each
		// direction is one fused CSR kernel that folds every message into
		// its bucket as it is computed, so the E×M message matrix never
		// exists on the serving path (per-row arithmetic and per-bucket
		// accumulation order match the tape path bit-for-bit).
		aggIn := tensor.GatherAddTanhSegMeanCSRInto(proj, f.Src, efUp, f.InOff, f.InEdge, sc.Get(n, m))
		aggOut := tensor.GatherAddTanhSegMeanCSRInto(proj, f.Dst, efDown, f.OutOff, f.OutEdge, sc.Get(n, m))

		// [own half : aggregated messages] → next half: the fused kernel
		// assembles each concatenated row in scratch, copying the same
		// values the tape path feeds its product kernel.
		nextUp := tensor.ConcatMatMulTanhInto(h, 0, m, aggIn, w2T, sc.Get(n, m))
		nextDown := tensor.ConcatMatMulTanhInto(h, m, 2*m, aggOut, w2T, sc.Get(n, m))
		h = tensor.ConcatColsInto(sc.Get(n, 2*m), nextUp, nextDown)
	}
	return h
}
