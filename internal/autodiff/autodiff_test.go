package autodiff

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// numericGrad computes ∂f/∂x by central differences for every element of x.
func numericGrad(f func() float64, x *tensor.Matrix) *tensor.Matrix {
	const h = 1e-6
	g := tensor.New(x.Rows, x.Cols)
	for i := range x.Data {
		orig := x.Data[i]
		x.Data[i] = orig + h
		fp := f()
		x.Data[i] = orig - h
		fm := f()
		x.Data[i] = orig
		g.Data[i] = (fp - fm) / (2 * h)
	}
	return g
}

// checkGrad builds a scalar graph with build (which must re-read leaf
// values), runs Backward, and compares against finite differences.
func checkGrad(t *testing.T, name string, leaf *tensor.Matrix, build func(tp *Tape, x *Node) *Node) {
	t.Helper()
	eval := func() float64 {
		tp := NewTape()
		x := tp.Leaf(leaf)
		return build(tp, x).Value.Data[0]
	}
	tp := NewTape()
	x := tp.Leaf(leaf)
	root := build(tp, x)
	if root.Value.Rows != 1 || root.Value.Cols != 1 {
		t.Fatalf("%s: root is %dx%d, want scalar", name, root.Value.Rows, root.Value.Cols)
	}
	tp.Backward(root, nil)
	got := x.Grad()
	if got == nil {
		t.Fatalf("%s: no gradient", name)
	}
	want := numericGrad(eval, leaf)
	for i := range want.Data {
		diff := math.Abs(got.Data[i] - want.Data[i])
		scale := math.Max(1, math.Abs(want.Data[i]))
		if diff/scale > 1e-5 {
			t.Fatalf("%s: grad[%d] = %.8g, want %.8g", name, i, got.Data[i], want.Data[i])
		}
	}
}

func randMat(rng *rand.Rand, r, c int) *tensor.Matrix {
	m := tensor.New(r, c)
	m.RandUniform(rng, 1)
	return m
}

func TestGradMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randMat(rng, 3, 4)
	b := randMat(rng, 4, 2)
	checkGrad(t, "matmul-left", a, func(tp *Tape, x *Node) *Node {
		return tp.Sum(tp.MatMul(x, tp.Const(b)))
	})
	checkGrad(t, "matmul-right", b, func(tp *Tape, x *Node) *Node {
		return tp.Sum(tp.MatMul(tp.Const(a), x))
	})
}

func TestGradElementwise(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randMat(rng, 3, 3)
	checkGrad(t, "tanh", a, func(tp *Tape, x *Node) *Node { return tp.Sum(tp.Tanh(x)) })
	checkGrad(t, "sigmoid", a, func(tp *Tape, x *Node) *Node { return tp.Sum(tp.Sigmoid(x)) })
	checkGrad(t, "exp", a, func(tp *Tape, x *Node) *Node { return tp.Sum(tp.Exp(x)) })
	checkGrad(t, "scale", a, func(tp *Tape, x *Node) *Node { return tp.Sum(tp.Scale(x, -2.5)) })
	b := randMat(rng, 3, 3)
	checkGrad(t, "mul", a, func(tp *Tape, x *Node) *Node { return tp.Sum(tp.Mul(x, tp.Const(b))) })
	checkGrad(t, "sub", a, func(tp *Tape, x *Node) *Node { return tp.Sum(tp.Sub(tp.Const(b), x)) })
}

func TestGradLogPositive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := tensor.New(3, 2)
	for i := range a.Data {
		a.Data[i] = 0.1 + rng.Float64() // keep away from the clamp
	}
	checkGrad(t, "log", a, func(tp *Tape, x *Node) *Node { return tp.Sum(tp.Log(x)) })
}

func TestGradReLU(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randMat(rng, 4, 4)
	// Avoid elements near zero where ReLU is non-differentiable.
	for i := range a.Data {
		if math.Abs(a.Data[i]) < 0.05 {
			a.Data[i] = 0.1
		}
	}
	checkGrad(t, "relu", a, func(tp *Tape, x *Node) *Node { return tp.Sum(tp.ReLU(x)) })
}

func TestGradStructural(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randMat(rng, 4, 3)
	idx := []int{2, 0, 0, 3, 1}
	checkGrad(t, "gather", a, func(tp *Tape, x *Node) *Node {
		return tp.Sum(tp.Tanh(tp.GatherRows(x, idx)))
	})
	seg := []int{1, 0, 1, 0}
	checkGrad(t, "segment-mean", a, func(tp *Tape, x *Node) *Node {
		return tp.Sum(tp.Tanh(tp.SegmentMean(x, seg, 2)))
	})
	b := randMat(rng, 4, 2)
	checkGrad(t, "concat-cols", a, func(tp *Tape, x *Node) *Node {
		return tp.Sum(tp.Tanh(tp.ConcatCols(x, tp.Const(b))))
	})
	checkGrad(t, "slice-cols", a, func(tp *Tape, x *Node) *Node {
		return tp.Sum(tp.Tanh(tp.SliceCols(x, 1, 3)))
	})
	checkGrad(t, "transpose", a, func(tp *Tape, x *Node) *Node {
		return tp.Sum(tp.Tanh(tp.Transpose(x)))
	})
}

func TestGradRowOps(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := randMat(rng, 4, 3)
	bias := randMat(rng, 1, 3)
	checkGrad(t, "add-row-vector-x", a, func(tp *Tape, x *Node) *Node {
		return tp.Sum(tp.Tanh(tp.AddRowVector(x, tp.Const(bias))))
	})
	checkGrad(t, "add-row-vector-bias", bias, func(tp *Tape, x *Node) *Node {
		return tp.Sum(tp.Tanh(tp.AddRowVector(tp.Const(a), x)))
	})
	checkGrad(t, "mean", a, func(tp *Tape, x *Node) *Node {
		return tp.Scale(tp.Sum(tp.Tanh(x)), 1/float64(x.Value.Rows*x.Value.Cols))
	})
}

func TestGradLogSoftmaxAndPick(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randMat(rng, 5, 4)
	checkGrad(t, "log-softmax", a, func(tp *Tape, x *Node) *Node {
		return tp.Sum(tp.Tanh(tp.LogSoftmaxRows(x)))
	})
	idx := []int{3, 0, 2, 2, 1}
	checkGrad(t, "pick-cols", a, func(tp *Tape, x *Node) *Node {
		return tp.Sum(tp.PickCols(tp.LogSoftmaxRows(x), idx))
	})
}

func TestGradDeepComposition(t *testing.T) {
	// A miniature GNN-shaped computation: gather → matmul → tanh →
	// segment-mean → concat → matmul → sigmoid → log → sum.
	rng := rand.New(rand.NewSource(8))
	w := randMat(rng, 3, 3)
	h := randMat(rng, 4, 3)
	src := []int{0, 1, 2, 3, 0}
	dst := []int{1, 2, 3, 0, 2}
	build := func(tp *Tape, x *Node) *Node {
		msg := tp.Tanh(tp.MatMul(tp.GatherRows(tp.Const(h), src), x))
		agg := tp.SegmentMean(msg, dst, 4)
		cat := tp.ConcatCols(tp.Const(h), agg)
		w2 := tp.Const(randFixed(6, 1))
		p := tp.Sigmoid(tp.MatMul(cat, w2))
		return tp.Sum(tp.Log(p))
	}
	checkGrad(t, "deep", w, build)
}

// randFixed returns a deterministic matrix independent of call site state.
func randFixed(r, c int) *tensor.Matrix {
	rng := rand.New(rand.NewSource(99))
	m := tensor.New(r, c)
	m.RandUniform(rng, 0.7)
	return m
}

func TestBackwardAccumulatesFanOut(t *testing.T) {
	// y = sum(x) + sum(x) must give gradient 2 everywhere.
	tp := NewTape()
	xv := tensor.New(2, 2)
	xv.Fill(0.5)
	x := tp.Leaf(xv)
	y := tp.Add(tp.Sum(x), tp.Sum(x))
	tp.Backward(y, nil)
	for i, g := range x.Grad().Data {
		if g != 2 {
			t.Fatalf("grad[%d] = %g, want 2", i, g)
		}
	}
}

func TestBackwardResetsBetweenCalls(t *testing.T) {
	tp := NewTape()
	xv := tensor.New(1, 1)
	xv.Data[0] = 3
	x := tp.Leaf(xv)
	y := tp.Scale(x, 2)
	tp.Backward(y, nil)
	tp.Backward(y, nil)
	if g := x.Grad().Data[0]; g != 2 {
		t.Fatalf("grad = %g after repeated backward, want 2", g)
	}
}

func TestConstReceivesNoGrad(t *testing.T) {
	tp := NewTape()
	cv := tensor.New(2, 2)
	cv.Fill(1)
	c := tp.Const(cv)
	y := tp.Sum(tp.Tanh(c))
	tp.Backward(y, nil)
	if c.Grad() != nil {
		t.Fatal("const node accumulated a gradient")
	}
	if c.reqG {
		t.Fatal("const node requires grad")
	}
}

func TestBackwardPanicsOnNonScalarNilSeed(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-scalar root with nil seed")
		}
	}()
	tp := NewTape()
	x := tp.Leaf(tensor.New(2, 2))
	tp.Backward(tp.Tanh(x), nil)
}
