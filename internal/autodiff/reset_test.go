package autodiff

import (
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// buildLoss assembles a small MLP-style scalar graph over the leaves,
// touching the pooled-backward paths (matmul, bias broadcast, nonlinear,
// reduction).
func buildLoss(tp *Tape, x, w1, b1, w2 *Node) *Node {
	h := tp.ReLU(tp.AddRowVector(tp.MatMul(x, w1), b1))
	sq := tp.Mul(tp.MatMul(h, w2), tp.MatMul(h, w2))
	return tp.Scale(tp.Sum(sq), 1/float64(sq.Value.Rows*sq.Value.Cols))
}

func TestTapeResetReproducesGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xv := randMat(rng, 9, 6)
	w1v := randMat(rng, 6, 8)
	b1v := randMat(rng, 1, 8)
	w2v := randMat(rng, 8, 1)

	tp := NewTape()
	run := func() (gw1, gb1, gw2 *tensor.Matrix) {
		tp.Reset()
		x := tp.Const(xv)
		w1, b1, w2 := tp.Leaf(w1v), tp.Leaf(b1v), tp.Leaf(w2v)
		tp.Backward(buildLoss(tp, x, w1, b1, w2), nil)
		// Gradients are tape-owned and recycled by the next Reset: clone
		// before reusing the tape.
		return w1.Grad().Clone(), b1.Grad().Clone(), w2.Grad().Clone()
	}

	aw1, ab1, aw2 := run()
	bw1, bb1, bw2 := run()
	for _, pair := range []struct {
		name string
		a, b *tensor.Matrix
	}{{"w1", aw1, bw1}, {"b1", ab1, bb1}, {"w2", aw2, bw2}} {
		for i := range pair.a.Data {
			if pair.a.Data[i] != pair.b.Data[i] {
				t.Fatalf("grad %s element %d differs across Reset: %g vs %g",
					pair.name, i, pair.a.Data[i], pair.b.Data[i])
			}
		}
	}
}

func TestTapeResetRetainsNodeSlab(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	xv := randMat(rng, 9, 6)
	w1v := randMat(rng, 6, 8)
	b1v := randMat(rng, 1, 8)
	w2v := randMat(rng, 8, 1)

	tp := NewTape()
	build := func() {
		x := tp.Const(xv)
		w1, b1, w2 := tp.Leaf(w1v), tp.Leaf(b1v), tp.Leaf(w2v)
		tp.Backward(buildLoss(tp, x, w1, b1, w2), nil)
	}
	build()
	n := tp.Len()
	tp.Reset()
	if tp.Len() != 0 {
		t.Fatalf("Len after Reset = %d", tp.Len())
	}
	capAfterWarm := cap(tp.nodes)
	if capAfterWarm < n {
		t.Fatalf("Cap %d < warm node count %d", capAfterWarm, n)
	}
	// A reused tape rebuilding the same graph must not regrow its slab.
	for i := 0; i < 5; i++ {
		build()
		if cap(tp.nodes) != capAfterWarm {
			t.Fatalf("tape slab regrew on reuse: cap %d → %d", capAfterWarm, cap(tp.nodes))
		}
		tp.Reset()
	}
}

func TestResetLeavesLeafValuesUntouched(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	leaf := randMat(rng, 3, 3)
	want := leaf.Clone()
	tp := NewTape()
	x := tp.Leaf(leaf)
	tp.Backward(tp.Sum(tp.Mul(x, x)), nil)
	tp.Reset()
	for i := range want.Data {
		if leaf.Data[i] != want.Data[i] {
			t.Fatalf("leaf value %d mutated by Reset: %g vs %g", i, leaf.Data[i], want.Data[i])
		}
	}
}
