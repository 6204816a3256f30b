// Package autodiff implements a small reverse-mode automatic
// differentiation tape over dense matrices.
//
// The design is matrix-level rather than scalar-level: each tape node holds
// an entire tensor.Matrix, so a full GNN forward pass over a 2,000-node
// graph records only a few dozen tape entries. Backpropagation walks the
// tape in reverse creation order (creation order is a valid topological
// order because operands must exist before an op uses them).
//
// The tape is allocation-lean: op outputs, gradients, and backward
// scratch all come from the tensor arena (tensor.Get/Put), and Reset
// recycles the node slab, so a tape reused across training steps reaches
// a steady state where a forward+backward pass performs no matrix
// allocations at all. Values and gradients obtained from a tape are valid
// only until the next Reset (or, for gradients, the next Backward) —
// copy anything that must outlive the step.
//
// Gradients are validated against central finite differences in the
// package tests.
package autodiff

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// Node is one value on the tape: its forward result plus a closure that
// scatters the node's accumulated gradient into its parents.
type Node struct {
	Value   *tensor.Matrix
	grad    *tensor.Matrix
	back    func(grad *tensor.Matrix)
	reqG    bool
	ownsVal bool // Value came from the arena and is recycled on Reset
	tape    *Tape
}

// Grad returns the gradient accumulated for this node by the most recent
// Backward call, or nil if the node does not require gradients. The
// matrix is owned by the tape: it is recycled by the next Backward or
// Reset, so copy it if it must live longer.
func (n *Node) Grad() *tensor.Matrix { return n.grad }

// AddGradInto accumulates this node's gradient into dst (which must match
// the node's shape) and reports whether a gradient was present. dst is
// caller-owned: unlike Grad's return value it survives the next Reset or
// Backward, which is what lets per-replica tapes export their gradient
// vectors for a deterministic cross-replica reduction.
func (n *Node) AddGradInto(dst *tensor.Matrix) bool {
	if n.grad == nil {
		return false
	}
	tensor.AddInPlace(dst, n.grad)
	return true
}

// Tape records the forward computation. Tapes are not safe for concurrent
// use, but a single tape can be reused across training steps via Reset,
// which retains the node slab and returns every tape-owned matrix to the
// arena.
type Tape struct {
	nodes   []*Node
	spare   []*Node          // recycled node structs (high-water slab)
	scratch []*tensor.Matrix // non-node forward caches (Log clamp, softmax)
}

// NewTape returns an empty tape.
func NewTape() *Tape { return &Tape{} }

// Len returns the number of recorded nodes (useful in tests).
func (t *Tape) Len() int { return len(t.nodes) }

// Reset clears the tape for reuse: every tape-owned matrix (op outputs,
// gradients, forward caches) returns to the arena and node structs move
// to the spare slab for the next recording. Leaf and Const values are
// caller-owned and untouched. After Reset, matrices previously obtained
// from this tape's nodes must not be used.
func (t *Tape) Reset() {
	for _, n := range t.nodes {
		if n.grad != nil {
			tensor.Put(n.grad)
			n.grad = nil
		}
		if n.ownsVal {
			tensor.Put(n.Value)
			n.ownsVal = false
		}
		n.Value = nil
		n.back = nil
		n.reqG = false
		n.tape = nil
	}
	t.spare = append(t.spare, t.nodes...)
	t.nodes = t.nodes[:0]
	for _, m := range t.scratch {
		tensor.Put(m)
	}
	t.scratch = t.scratch[:0]
}

func (t *Tape) push(v *tensor.Matrix, reqG bool, back func(grad *tensor.Matrix)) *Node {
	var n *Node
	if k := len(t.spare); k > 0 {
		n = t.spare[k-1]
		t.spare[k-1] = nil
		t.spare = t.spare[:k-1]
	} else {
		n = &Node{}
	}
	n.Value, n.back, n.reqG, n.tape = v, back, reqG, t
	t.nodes = append(t.nodes, n)
	return n
}

// pushOwned records an op output whose value came from the arena.
func (t *Tape) pushOwned(v *tensor.Matrix, reqG bool, back func(grad *tensor.Matrix)) *Node {
	n := t.push(v, reqG, back)
	n.ownsVal = true
	return n
}

// newVal allocates an op-output matrix from the arena. Contents are
// unspecified; the op must fully define it.
func (t *Tape) newVal(rows, cols int) *tensor.Matrix { return tensor.Get(rows, cols) }

// newScratch allocates a tape-lifetime forward cache from the arena
// (released on Reset, not tied to a node).
func (t *Tape) newScratch(rows, cols int) *tensor.Matrix {
	m := tensor.Get(rows, cols)
	t.scratch = append(t.scratch, m)
	return m
}

// accum adds g into n's gradient (copying on first touch; g remains
// caller-owned and may be recycled immediately after the call).
func (n *Node) accum(g *tensor.Matrix) {
	if !n.reqG {
		return
	}
	if n.grad == nil {
		n.grad = tensor.Get(g.Rows, g.Cols)
		copy(n.grad.Data, g.Data)
		return
	}
	tensor.AddInPlace(n.grad, g)
}

// Const records a value that gradients do not flow into.
func (t *Tape) Const(v *tensor.Matrix) *Node {
	return t.push(v, false, nil)
}

// Leaf records a differentiable leaf (a parameter or a learnable input).
func (t *Tape) Leaf(v *tensor.Matrix) *Node {
	return t.push(v, true, nil)
}

// Backward seeds root with dL/droot = seed (or ones if nil; root must be
// 1×1 in that case) and propagates gradients to every leaf.
func (t *Tape) Backward(root *Node, seed *tensor.Matrix) {
	if root.tape != t {
		panic("autodiff: root belongs to a different tape")
	}
	// Recycle gradients from any previous backward pass.
	for _, n := range t.nodes {
		if n.grad != nil {
			tensor.Put(n.grad)
			n.grad = nil
		}
	}
	if seed == nil {
		if root.Value.Rows != 1 || root.Value.Cols != 1 {
			panic("autodiff: nil seed requires a scalar root")
		}
		root.grad = tensor.Get(1, 1)
		root.grad.Data[0] = 1
	} else {
		root.grad = tensor.Get(seed.Rows, seed.Cols)
		copy(root.grad.Data, seed.Data)
	}
	for i := len(t.nodes) - 1; i >= 0; i-- {
		n := t.nodes[i]
		if n.grad == nil || n.back == nil {
			continue
		}
		n.back(n.grad)
	}
}

func anyGrad(ns ...*Node) bool {
	for _, n := range ns {
		if n.reqG {
			return true
		}
	}
	return false
}

// MatMul records a·b.
func (t *Tape) MatMul(a, b *Node) *Node {
	v := tensor.MatMulInto(a.Value, b.Value, t.newVal(a.Value.Rows, b.Value.Cols))
	return t.pushOwned(v, anyGrad(a, b), func(g *tensor.Matrix) {
		if a.reqG {
			d := tensor.MatMulT2Into(g, b.Value, tensor.Get(g.Rows, b.Value.Rows)) // dA = G·Bᵀ
			a.accum(d)
			tensor.Put(d)
		}
		if b.reqG {
			d := tensor.MatMulT1Into(a.Value, g, tensor.Get(a.Value.Cols, g.Cols)) // dB = Aᵀ·G
			b.accum(d)
			tensor.Put(d)
		}
	})
}

// Add records a+b (same shape).
func (t *Tape) Add(a, b *Node) *Node {
	v := tensor.AddInto(a.Value, b.Value, t.newVal(a.Value.Rows, a.Value.Cols))
	return t.pushOwned(v, anyGrad(a, b), func(g *tensor.Matrix) {
		a.accum(g)
		b.accum(g)
	})
}

// Sub records a-b.
func (t *Tape) Sub(a, b *Node) *Node {
	v := tensor.SubInto(a.Value, b.Value, t.newVal(a.Value.Rows, a.Value.Cols))
	return t.pushOwned(v, anyGrad(a, b), func(g *tensor.Matrix) {
		a.accum(g)
		if b.reqG {
			d := tensor.ScaleInto(g, -1, tensor.Get(g.Rows, g.Cols))
			b.accum(d)
			tensor.Put(d)
		}
	})
}

// Mul records the Hadamard product a⊙b.
func (t *Tape) Mul(a, b *Node) *Node {
	v := tensor.MulInto(a.Value, b.Value, t.newVal(a.Value.Rows, a.Value.Cols))
	return t.pushOwned(v, anyGrad(a, b), func(g *tensor.Matrix) {
		if a.reqG {
			d := tensor.MulInto(g, b.Value, tensor.Get(g.Rows, g.Cols))
			a.accum(d)
			tensor.Put(d)
		}
		if b.reqG {
			d := tensor.MulInto(g, a.Value, tensor.Get(g.Rows, g.Cols))
			b.accum(d)
			tensor.Put(d)
		}
	})
}

// Scale records a·s for scalar constant s.
func (t *Tape) Scale(a *Node, s float64) *Node {
	v := tensor.ScaleInto(a.Value, s, t.newVal(a.Value.Rows, a.Value.Cols))
	return t.pushOwned(v, a.reqG, func(g *tensor.Matrix) {
		d := tensor.ScaleInto(g, s, tensor.Get(g.Rows, g.Cols))
		a.accum(d)
		tensor.Put(d)
	})
}

// AddRowVector records a + broadcast(bias) where bias is 1×cols.
func (t *Tape) AddRowVector(a, bias *Node) *Node {
	v := tensor.AddRowVectorInto(a.Value, bias.Value, t.newVal(a.Value.Rows, a.Value.Cols))
	return t.pushOwned(v, anyGrad(a, bias), func(g *tensor.Matrix) {
		a.accum(g)
		if bias.reqG {
			bg := tensor.ColSumsInto(g, tensor.Get(1, g.Cols))
			bias.accum(bg)
			tensor.Put(bg)
		}
	})
}

// Tanh records element-wise tanh via the specialized TanhInto kernel
// (no per-element function-pointer dispatch).
func (t *Tape) Tanh(a *Node) *Node {
	v := tensor.TanhInto(a.Value, t.newVal(a.Value.Rows, a.Value.Cols))
	return t.pushOwned(v, a.reqG, func(g *tensor.Matrix) {
		d := tensor.TanhGradInto(g, v, tensor.Get(g.Rows, g.Cols))
		a.accum(d)
		tensor.Put(d)
	})
}

// Sigmoid records element-wise logistic sigmoid via SigmoidInto.
func (t *Tape) Sigmoid(a *Node) *Node {
	v := tensor.SigmoidInto(a.Value, t.newVal(a.Value.Rows, a.Value.Cols))
	return t.pushOwned(v, a.reqG, func(g *tensor.Matrix) {
		d := tensor.SigmoidGradInto(g, v, tensor.Get(g.Rows, g.Cols))
		a.accum(d)
		tensor.Put(d)
	})
}

// ReLU records element-wise max(0, x) via ReLUInto.
func (t *Tape) ReLU(a *Node) *Node {
	v := tensor.ReLUInto(a.Value, t.newVal(a.Value.Rows, a.Value.Cols))
	return t.pushOwned(v, a.reqG, func(g *tensor.Matrix) {
		d := tensor.ReLUGradInto(g, a.Value, tensor.Get(g.Rows, g.Cols))
		a.accum(d)
		tensor.Put(d)
	})
}

// Log records element-wise natural log, clamping inputs below eps for
// numerical safety (the clamp region contributes zero gradient flow
// adjustments; gradient uses the clamped value).
func (t *Tape) Log(a *Node) *Node {
	const eps = 1e-12
	clamped := tensor.ApplyInto(a.Value, func(x float64) float64 {
		if x < eps {
			return eps
		}
		return x
	}, t.newScratch(a.Value.Rows, a.Value.Cols))
	v := tensor.ApplyInto(clamped, math.Log, t.newVal(a.Value.Rows, a.Value.Cols))
	return t.pushOwned(v, a.reqG, func(g *tensor.Matrix) {
		d := tensor.Get(g.Rows, g.Cols)
		for i, x := range clamped.Data {
			d.Data[i] = g.Data[i] / x
		}
		a.accum(d)
		tensor.Put(d)
	})
}

// Exp records element-wise e^x.
func (t *Tape) Exp(a *Node) *Node {
	v := tensor.ApplyInto(a.Value, math.Exp, t.newVal(a.Value.Rows, a.Value.Cols))
	return t.pushOwned(v, a.reqG, func(g *tensor.Matrix) {
		d := tensor.MulInto(g, v, tensor.Get(g.Rows, g.Cols))
		a.accum(d)
		tensor.Put(d)
	})
}

// ConcatCols records horizontal concatenation.
func (t *Tape) ConcatCols(ns ...*Node) *Node {
	rows := ns[0].Value.Rows
	cols := 0
	req := false
	for _, n := range ns {
		if n.Value.Rows != rows {
			panic("tensor: concat-cols row mismatch")
		}
		cols += n.Value.Cols
		req = req || n.reqG
	}
	v := t.newVal(rows, cols)
	for i := 0; i < rows; i++ {
		orow := v.Row(i)
		off := 0
		for _, n := range ns {
			copy(orow[off:off+n.Value.Cols], n.Value.Row(i))
			off += n.Value.Cols
		}
	}
	return t.pushOwned(v, req, func(g *tensor.Matrix) {
		off := 0
		for _, n := range ns {
			w := n.Value.Cols
			if n.reqG {
				d := tensor.Get(g.Rows, w)
				for i := 0; i < g.Rows; i++ {
					copy(d.Row(i), g.Row(i)[off:off+w])
				}
				n.accum(d)
				tensor.Put(d)
			}
			off += w
		}
	})
}

// SliceCols records column slice [lo, hi).
func (t *Tape) SliceCols(a *Node, lo, hi int) *Node {
	if lo < 0 || hi > a.Value.Cols || lo > hi {
		panic(fmt.Sprintf("tensor: slice-cols [%d,%d) of %d", lo, hi, a.Value.Cols))
	}
	v := t.newVal(a.Value.Rows, hi-lo)
	for i := 0; i < a.Value.Rows; i++ {
		copy(v.Row(i), a.Value.Row(i)[lo:hi])
	}
	return t.pushOwned(v, a.reqG, func(g *tensor.Matrix) {
		d := tensor.GetZeroed(a.Value.Rows, a.Value.Cols)
		for i := 0; i < g.Rows; i++ {
			copy(d.Row(i)[lo:hi], g.Row(i))
		}
		a.accum(d)
		tensor.Put(d)
	})
}

// GatherRows records row gathering: out.Row(i) = a.Row(idx[i]).
func (t *Tape) GatherRows(a *Node, idx []int) *Node {
	v := tensor.GatherRowsInto(a.Value, idx, t.newVal(len(idx), a.Value.Cols))
	return t.pushOwned(v, a.reqG, func(g *tensor.Matrix) {
		d := tensor.GetZeroed(a.Value.Rows, a.Value.Cols)
		tensor.ScatterAddRowsPar(d, g, idx)
		a.accum(d)
		tensor.Put(d)
	})
}

// SegmentMean records per-segment row averaging into `segments` rows.
func (t *Tape) SegmentMean(a *Node, seg []int, segments int) *Node {
	v := tensor.SegmentMeanInto(a.Value, seg, segments, t.newVal(segments, a.Value.Cols))
	counts := t.newScratch(1, segments)
	counts.Zero()
	for _, s := range seg {
		counts.Data[s]++
	}
	return t.pushOwned(v, a.reqG, func(g *tensor.Matrix) {
		d := tensor.Get(a.Value.Rows, a.Value.Cols)
		for i, s := range seg {
			inv := 1 / counts.Data[s]
			drow := d.Row(i)
			grow := g.Row(s)
			for j, gv := range grow {
				drow[j] = gv * inv
			}
		}
		a.accum(d)
		tensor.Put(d)
	})
}

// Transpose records aᵀ.
func (t *Tape) Transpose(a *Node) *Node {
	src := a.Value
	v := t.newVal(src.Cols, src.Rows)
	for i := 0; i < src.Rows; i++ {
		for j := 0; j < src.Cols; j++ {
			v.Data[j*src.Rows+i] = src.Data[i*src.Cols+j]
		}
	}
	return t.pushOwned(v, a.reqG, func(g *tensor.Matrix) {
		d := tensor.Get(g.Cols, g.Rows)
		for i := 0; i < g.Rows; i++ {
			for j := 0; j < g.Cols; j++ {
				d.Data[j*g.Rows+i] = g.Data[i*g.Cols+j]
			}
		}
		a.accum(d)
		tensor.Put(d)
	})
}

// Sum records the scalar (1×1) sum of all elements.
func (t *Tape) Sum(a *Node) *Node {
	v := t.newVal(1, 1)
	v.Data[0] = a.Value.Sum()
	return t.pushOwned(v, a.reqG, func(g *tensor.Matrix) {
		d := tensor.Get(a.Value.Rows, a.Value.Cols)
		d.Fill(g.Data[0])
		a.accum(d)
		tensor.Put(d)
	})
}

// LogSoftmaxRows records a numerically stable row-wise log-softmax.
func (t *Tape) LogSoftmaxRows(a *Node) *Node {
	rows, cols := a.Value.Rows, a.Value.Cols
	v := t.newVal(rows, cols)
	soft := t.newScratch(rows, cols) // softmax cached for backward
	for i := 0; i < rows; i++ {
		arow := a.Value.Row(i)
		mx := math.Inf(-1)
		for _, x := range arow {
			if x > mx {
				mx = x
			}
		}
		var z float64
		for _, x := range arow {
			z += math.Exp(x - mx)
		}
		lz := math.Log(z) + mx
		vrow, srow := v.Row(i), soft.Row(i)
		for j, x := range arow {
			vrow[j] = x - lz
			srow[j] = math.Exp(vrow[j])
		}
	}
	return t.pushOwned(v, a.reqG, func(g *tensor.Matrix) {
		d := tensor.Get(rows, cols)
		for i := 0; i < rows; i++ {
			grow, srow, drow := g.Row(i), soft.Row(i), d.Row(i)
			var gs float64
			for _, gv := range grow {
				gs += gv
			}
			for j := range drow {
				drow[j] = grow[j] - srow[j]*gs
			}
		}
		a.accum(d)
		tensor.Put(d)
	})
}

// PickCols records out[i,0] = a[i, idx[i]] — used to pick the chosen
// action's log-probability from a row of logits.
func (t *Tape) PickCols(a *Node, idx []int) *Node {
	if len(idx) != a.Value.Rows {
		panic(fmt.Sprintf("autodiff: pick-cols index length %d != rows %d", len(idx), a.Value.Rows))
	}
	v := t.newVal(len(idx), 1)
	for i, j := range idx {
		v.Data[i] = a.Value.At(i, j)
	}
	return t.pushOwned(v, a.reqG, func(g *tensor.Matrix) {
		d := tensor.GetZeroed(a.Value.Rows, a.Value.Cols)
		for i, j := range idx {
			d.Set(i, j, g.Data[i])
		}
		a.accum(d)
		tensor.Put(d)
	})
}
