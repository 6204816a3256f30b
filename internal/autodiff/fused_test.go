package autodiff

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// Gradient checks for every fused op, against central finite differences
// through each differentiable operand.

func TestGradMatMulT2(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a := randMat(rng, 3, 5)
	b := randMat(rng, 4, 5)
	checkGrad(t, "matmulT2-left", a, func(tp *Tape, x *Node) *Node {
		return tp.Sum(tp.MatMulT2(x, tp.Const(b)))
	})
	checkGrad(t, "matmulT2-right", b, func(tp *Tape, x *Node) *Node {
		return tp.Sum(tp.MatMulT2(tp.Const(a), x))
	})
}

func TestGradMatMulTanh(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randMat(rng, 3, 6)
	b := randMat(rng, 6, 4)
	checkGrad(t, "matmul-tanh-left", a, func(tp *Tape, x *Node) *Node {
		return tp.Sum(tp.MatMulTanh(x, tp.Const(b)))
	})
	checkGrad(t, "matmul-tanh-right", b, func(tp *Tape, x *Node) *Node {
		return tp.Sum(tp.MatMulTanh(tp.Const(a), x))
	})
}

func TestGradGatherMatMulAddTanh(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	h := randMat(rng, 5, 6) // node embeddings
	w := randMat(rng, 6, 3) // message transform
	add := randMat(rng, 7, 3)
	idx := []int{0, 2, 2, 4, 1, 0, 3} // repeated rows exercise scatter-add

	checkGrad(t, "gather-matmul-add-tanh-h", h, func(tp *Tape, x *Node) *Node {
		return tp.Sum(tp.GatherMatMulAddTanh(x, idx, tp.Const(w), tp.Const(add)))
	})
	checkGrad(t, "gather-matmul-add-tanh-w", w, func(tp *Tape, x *Node) *Node {
		return tp.Sum(tp.GatherMatMulAddTanh(tp.Const(h), idx, x, tp.Const(add)))
	})
	checkGrad(t, "gather-matmul-add-tanh-add", add, func(tp *Tape, x *Node) *Node {
		return tp.Sum(tp.GatherMatMulAddTanh(tp.Const(h), idx, tp.Const(w), x))
	})
	checkGrad(t, "gather-matmul-tanh-nil-add-h", h, func(tp *Tape, x *Node) *Node {
		return tp.Sum(tp.GatherMatMulAddTanh(x, idx, tp.Const(w), nil))
	})
}

func TestGradGatherMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	h := randMat(rng, 5, 6)
	w := randMat(rng, 6, 3)
	idx := []int{0, 2, 2, 4, 1, 0, 3} // row 2 and row 0 feed two edges each
	checkGrad(t, "gather-matmul-h", h, func(tp *Tape, x *Node) *Node {
		return tp.Sum(tp.Tanh(tp.GatherMatMul(x, idx, tp.Const(w))))
	})
	checkGrad(t, "gather-matmul-w", w, func(tp *Tape, x *Node) *Node {
		return tp.Sum(tp.Tanh(tp.GatherMatMul(tp.Const(h), idx, x)))
	})
}

// TestGatherMatMulBitMatchesGatherThenMatMul pins the node-projecting
// GatherMatMul against the MatMul∘GatherRows pair it replaces: identical
// value bits, and identical gradient bits for both operands, on a
// gather that skips some rows and repeats others.
func TestGatherMatMulBitMatchesGatherThenMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const rows, k, n, edges = 30, 10, 7, 80
	h := randMat(rng, rows, k)
	w := randMat(rng, k, n)
	seed := randMat(rng, edges, n)
	idx := make([]int, edges)
	for e := range idx {
		idx[e] = rng.Intn(rows - 3) // the last three rows are never gathered
	}
	run := func(fused bool) []*tensor.Matrix {
		tp := NewTape()
		hn, wn := tp.Leaf(h), tp.Leaf(w)
		var y *Node
		if fused {
			y = tp.GatherMatMul(hn, idx, wn)
		} else {
			y = tp.MatMul(tp.GatherRows(hn, idx), wn)
		}
		tp.Backward(y, seed)
		return []*tensor.Matrix{y.Value.Clone(), hn.Grad().Clone(), wn.Grad().Clone()}
	}
	got, want := run(true), run(false)
	for i, name := range []string{"value", "dH", "dW"} {
		for j := range want[i].Data {
			if math.Float64bits(got[i].Data[j]) != math.Float64bits(want[i].Data[j]) {
				t.Fatalf("%s[%d]: gather-matmul %v vs gather-then-matmul %v", name, j, got[i].Data[j], want[i].Data[j])
			}
		}
	}
}

func TestGradAffine(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	x := randMat(rng, 4, 5)
	w := randMat(rng, 3, 5) // out×in
	bias := randMat(rng, 1, 3)

	checkGrad(t, "affine-x", x, func(tp *Tape, n *Node) *Node {
		return tp.Sum(tp.Affine(n, tp.Const(w), tp.Const(bias)))
	})
	checkGrad(t, "affine-w", w, func(tp *Tape, n *Node) *Node {
		return tp.Sum(tp.Affine(tp.Const(x), n, tp.Const(bias)))
	})
	checkGrad(t, "affine-bias", bias, func(tp *Tape, n *Node) *Node {
		return tp.Sum(tp.Affine(tp.Const(x), tp.Const(w), n))
	})
	checkGrad(t, "affine-tanh-x", x, func(tp *Tape, n *Node) *Node {
		return tp.Sum(tp.AffineTanh(n, tp.Const(w), tp.Const(bias)))
	})
	checkGrad(t, "affine-tanh-w", w, func(tp *Tape, n *Node) *Node {
		return tp.Sum(tp.AffineTanh(tp.Const(x), n, tp.Const(bias)))
	})
	checkGrad(t, "affine-tanh-bias", bias, func(tp *Tape, n *Node) *Node {
		return tp.Sum(tp.AffineTanh(tp.Const(x), tp.Const(w), n))
	})
}

// TestFusedMatchesUnfusedComposition builds the same function twice — once
// with fused ops, once composed from the primitive ops — and compares both
// values and leaf gradients within rounding tolerance.
func TestFusedMatchesUnfusedComposition(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	h := randMat(rng, 6, 8)
	w := randMat(rng, 8, 4)
	add := randMat(rng, 9, 4)
	idx := []int{0, 5, 3, 3, 1, 2, 4, 0, 5}

	run := func(fused bool) (*tensor.Matrix, *tensor.Matrix, *tensor.Matrix) {
		tp := NewTape()
		hn, wn := tp.Leaf(h), tp.Leaf(w)
		var y *Node
		if fused {
			y = tp.GatherMatMulAddTanh(hn, idx, wn, tp.Const(add))
		} else {
			y = tp.Tanh(tp.Add(tp.MatMul(tp.GatherRows(hn, idx), wn), tp.Const(add)))
		}
		root := tp.Sum(y)
		tp.Backward(root, nil)
		return y.Value.Clone(), hn.Grad().Clone(), wn.Grad().Clone()
	}
	fv, fh, fw := run(true)
	uv, uh, uw := run(false)
	const tol = 1e-12
	cmp := func(name string, got, want *tensor.Matrix) {
		for i := range want.Data {
			if math.Abs(got.Data[i]-want.Data[i]) > tol*(1+math.Abs(want.Data[i])) {
				t.Fatalf("%s[%d]: fused %g vs unfused %g", name, i, got.Data[i], want.Data[i])
			}
		}
	}
	cmp("value", fv, uv)
	cmp("dH", fh, uh)
	cmp("dW", fw, uw)
}

// TestFusedOpsDeterministic reruns a fused forward+backward pass and
// requires byte-identical values and gradients (fixed accumulation order).
func TestFusedOpsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	h := randMat(rng, 40, 16)
	w := randMat(rng, 16, 8)
	idx := make([]int, 200)
	for i := range idx {
		idx[i] = rng.Intn(40)
	}
	run := func() (*tensor.Matrix, *tensor.Matrix) {
		tp := NewTape()
		hn, wn := tp.Leaf(h), tp.Leaf(w)
		root := tp.Sum(tp.MatMulTanh(tp.GatherMatMulAddTanh(hn, idx, wn, nil), tp.Transpose(wn)))
		tp.Backward(root, nil)
		return root.Value.Clone(), hn.Grad().Clone()
	}
	v1, g1 := run()
	for rep := 0; rep < 3; rep++ {
		v2, g2 := run()
		if math.Float64bits(v1.Data[0]) != math.Float64bits(v2.Data[0]) {
			t.Fatalf("rerun %d: value differs", rep)
		}
		for i := range g1.Data {
			if math.Float64bits(g1.Data[i]) != math.Float64bits(g2.Data[i]) {
				t.Fatalf("rerun %d: grad differs at %d", rep, i)
			}
		}
	}
}
