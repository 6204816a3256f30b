// fused.go records fused tape ops: single tape entries for op chains that
// the GNN encoder and the linear layers run on every step. Fusing cuts
// both tape entries (fewer node structs, fewer backward closures) and
// memory traffic (intermediates like the E×2M gathered neighbor matrix or
// the transposed weight copy are never materialized). Each fused backward
// decomposes into the same blocked tensor kernels the unfused ops use, so
// gradients match the unfused composition to rounding.
package autodiff

import (
	"fmt"

	"repro/internal/tensor"
)

// MatMulT2 records a·bᵀ without materializing the transpose — the
// building block for y = x·Wᵀ layers and qᵀk attention scores.
func (t *Tape) MatMulT2(a, b *Node) *Node {
	v := tensor.MatMulT2Into(a.Value, b.Value, t.newVal(a.Value.Rows, b.Value.Rows))
	return t.pushOwned(v, anyGrad(a, b), func(g *tensor.Matrix) {
		if a.reqG {
			d := tensor.MatMulInto(g, b.Value, tensor.Get(g.Rows, b.Value.Cols)) // dA = G·B
			a.accum(d)
			tensor.Put(d)
		}
		if b.reqG {
			d := tensor.MatMulT1Into(g, a.Value, tensor.Get(g.Cols, a.Value.Cols)) // dB = Gᵀ·A
			b.accum(d)
			tensor.Put(d)
		}
	})
}

// MatMulTanh records tanh(a·b) as one tape entry: the activation runs in
// the kernel's store loop and the linear pre-activation is never stored.
func (t *Tape) MatMulTanh(a, b *Node) *Node {
	v := tensor.MatMulTanhInto(a.Value, b.Value, t.newVal(a.Value.Rows, b.Value.Cols))
	return t.pushOwned(v, anyGrad(a, b), func(g *tensor.Matrix) {
		d := tensor.TanhGradInto(g, v, tensor.Get(g.Rows, g.Cols)) // dZ = G ⊙ (1-y²)
		if a.reqG {
			da := tensor.MatMulT2Into(d, b.Value, tensor.Get(d.Rows, b.Value.Rows))
			a.accum(da)
			tensor.Put(da)
		}
		if b.reqG {
			db := tensor.MatMulT1Into(a.Value, d, tensor.Get(a.Value.Cols, d.Cols))
			b.accum(db)
			tensor.Put(db)
		}
		tensor.Put(d)
	})
}

// GatherMatMulAddTanh records tanh(gather(a, idx)·b + add) — one GNN
// message transform — as a single tape entry. add may be nil to skip the
// additive term (the edge-feature ablation). The gathered matrix is never
// materialized in the forward pass: rows of a are read in place through
// idx, and the weight gradient reads them the same way in the backward
// pass.
func (t *Tape) GatherMatMulAddTanh(a *Node, idx []int, b, add *Node) *Node {
	var addM *tensor.Matrix
	req := anyGrad(a, b)
	if add != nil {
		addM = add.Value
		req = req || add.reqG
	}
	if len(idx) == 0 {
		// Edgeless graph: a 0×cols result with no gradient flow, matching
		// the unfused gather→matmul composition.
		return t.pushOwned(t.newVal(0, b.Value.Cols), req, func(*tensor.Matrix) {})
	}
	v := tensor.GatherMatMulAddTanhInto(a.Value, idx, b.Value, addM, t.newVal(len(idx), b.Value.Cols))
	return t.pushOwned(v, req, func(g *tensor.Matrix) {
		d := tensor.TanhGradInto(g, v, tensor.Get(g.Rows, g.Cols))
		if add != nil {
			add.accum(d)
		}
		if b.reqG {
			db := tensor.GatherMatMulT1Into(a.Value, idx, d, tensor.Get(a.Value.Cols, d.Cols))
			b.accum(db)
			tensor.Put(db)
		}
		if a.reqG {
			dg := tensor.MatMulT2Into(d, b.Value, tensor.Get(d.Rows, b.Value.Rows)) // per-edge dH rows
			ds := tensor.GetZeroed(a.Value.Rows, a.Value.Cols)
			tensor.ScatterAddRowsPar(ds, dg, idx)
			a.accum(ds)
			tensor.Put(ds)
			tensor.Put(dg)
		}
		tensor.Put(d)
	})
}

// GatherMatMul records gather(a, idx)·b — the edge head's per-edge
// projection of its endpoint embeddings — as one tape entry. The forward
// pass projects every row of a once (a·b into transient scratch) and
// gathers the projected rows, so a node with many incident edges is
// multiplied once rather than once per edge. Each product row depends
// only on its own input row, so the value is bit-identical to
// MatMul(GatherRows(a, idx), b), and the backward pass is that pair's
// arithmetic: dB = gather(a, idx)ᵀ·G read in place, and dA scatters
// G·bᵀ over idx.
func (t *Tape) GatherMatMul(a *Node, idx []int, b *Node) *Node {
	if a.Value.Cols != b.Value.Rows {
		panic(fmt.Sprintf("autodiff: gather-matmul shape mismatch %dx%d · %dx%d",
			a.Value.Rows, a.Value.Cols, b.Value.Rows, b.Value.Cols))
	}
	proj := tensor.MatMulInto(a.Value, b.Value, tensor.Get(a.Value.Rows, b.Value.Cols))
	v := tensor.GatherRowsInto(proj, idx, t.newVal(len(idx), b.Value.Cols))
	tensor.Put(proj)
	return t.pushOwned(v, anyGrad(a, b), func(g *tensor.Matrix) {
		if a.reqG {
			dg := tensor.MatMulT2Into(g, b.Value, tensor.Get(g.Rows, b.Value.Rows)) // per-row dA = G·Bᵀ
			ds := tensor.GetZeroed(a.Value.Rows, a.Value.Cols)
			tensor.ScatterAddRowsPar(ds, dg, idx)
			a.accum(ds)
			tensor.Put(ds)
			tensor.Put(dg)
		}
		if b.reqG {
			db := tensor.GatherMatMulT1Into(a.Value, idx, g, tensor.Get(a.Value.Cols, g.Cols))
			b.accum(db)
			tensor.Put(db)
		}
	})
}

// Affine records y = x·wᵀ + bias (w is out×in, bias 1×out) as one tape
// entry — the fused forward pass of nn.Linear, with no transposed weight
// copy on the tape.
func (t *Tape) Affine(x, w, bias *Node) *Node {
	checkAffine(x, w, bias)
	v := tensor.MatMulT2BiasInto(x.Value, w.Value, bias.Value, t.newVal(x.Value.Rows, w.Value.Rows))
	return t.pushOwned(v, anyGrad(x, w, bias), func(g *tensor.Matrix) {
		affineBackward(x, w, bias, g)
	})
}

// AffineTanh records y = tanh(x·wᵀ + bias) as one tape entry: affine plus
// activation fused into a single kernel pass.
func (t *Tape) AffineTanh(x, w, bias *Node) *Node {
	checkAffine(x, w, bias)
	v := tensor.MatMulT2BiasTanhInto(x.Value, w.Value, bias.Value, t.newVal(x.Value.Rows, w.Value.Rows))
	return t.pushOwned(v, anyGrad(x, w, bias), func(g *tensor.Matrix) {
		d := tensor.TanhGradInto(g, v, tensor.Get(g.Rows, g.Cols))
		affineBackward(x, w, bias, d)
		tensor.Put(d)
	})
}

// affineBackward scatters the (pre-activation) gradient d of an affine op
// into its three operands: dX = D·W, dW = Dᵀ·X, dBias = column sums of D.
func affineBackward(x, w, bias *Node, d *tensor.Matrix) {
	if x.reqG {
		dx := tensor.MatMulInto(d, w.Value, tensor.Get(d.Rows, w.Value.Cols))
		x.accum(dx)
		tensor.Put(dx)
	}
	if w.reqG {
		dw := tensor.MatMulT1Into(d, x.Value, tensor.Get(d.Cols, x.Value.Cols))
		w.accum(dw)
		tensor.Put(dw)
	}
	if bias.reqG {
		db := tensor.ColSumsInto(d, tensor.Get(1, d.Cols))
		bias.accum(db)
		tensor.Put(db)
	}
}

func checkAffine(x, w, bias *Node) {
	if x.Value.Cols != w.Value.Cols {
		panic(fmt.Sprintf("autodiff: affine shape mismatch %dx%d · %dx%dᵀ",
			x.Value.Rows, x.Value.Cols, w.Value.Rows, w.Value.Cols))
	}
	if bias.Value.Rows != 1 || bias.Value.Cols != w.Value.Rows {
		panic(fmt.Sprintf("autodiff: affine bias shape %dx%d, want 1x%d",
			bias.Value.Rows, bias.Value.Cols, w.Value.Rows))
	}
}
