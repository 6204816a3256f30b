package autodiff

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// buckets counting-sorts positions by key (ascending within a bucket),
// mirroring the CSR incidence structure stream.Graph.Adjacency provides.
func buckets(key []int, n int) ([]int32, []int) {
	offs := make([]int32, n+1)
	for _, k := range key {
		offs[k+1]++
	}
	for b := 0; b < n; b++ {
		offs[b+1] += offs[b]
	}
	members := make([]int, len(key))
	cursor := append([]int32(nil), offs[:n]...)
	for i, k := range key {
		members[cursor[k]] = i
		cursor[k]++
	}
	return offs, members
}

func TestGradSegmentMeanCSR(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	a := randMat(rng, 7, 3)
	seg := []int{0, 2, 1, 2, 0, 4, 1} // segment 3 stays empty
	offs, members := buckets(seg, 5)
	checkGrad(t, "segment-mean-csr", a, func(tp *Tape, x *Node) *Node {
		return tp.Sum(tp.SegmentMeanCSR(x, offs, members))
	})
}

func TestGradGatherMatMulAddTanhCSR(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	h := randMat(rng, 5, 6)
	w := randMat(rng, 6, 3)
	add := randMat(rng, 7, 3)
	idx := []int{0, 2, 2, 4, 1, 0, 3}
	offs, members := buckets(idx, 5)
	op := func(tp *Tape, a, b, add *Node) *Node {
		proj := tensor.MatMul(a.Value, b.Value)
		return tp.Sum(tp.GatherMatMulAddTanhCSR(a, idx, b, add, proj, offs, members))
	}
	checkGrad(t, "gather-matmul-add-tanh-csr-h", h, func(tp *Tape, x *Node) *Node {
		return op(tp, x, tp.Const(w), tp.Const(add))
	})
	checkGrad(t, "gather-matmul-add-tanh-csr-w", w, func(tp *Tape, x *Node) *Node {
		return op(tp, tp.Const(h), x, tp.Const(add))
	})
	checkGrad(t, "gather-matmul-add-tanh-csr-add", add, func(tp *Tape, x *Node) *Node {
		return op(tp, tp.Const(h), tp.Const(w), x)
	})
	checkGrad(t, "gather-matmul-tanh-csr-nil-add-h", h, func(tp *Tape, x *Node) *Node {
		return op(tp, x, tp.Const(w), nil)
	})
}

func TestGradConcatMatMulTanh(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	x := randMat(rng, 4, 6)
	y := randMat(rng, 4, 3)
	w := randMat(rng, 5, 4) // (hi-lo)+y.Cols = 2+3 rows
	checkGrad(t, "concat-matmul-tanh-x", x, func(tp *Tape, n *Node) *Node {
		return tp.Sum(tp.ConcatMatMulTanh(n, 1, 3, tp.Const(y), tp.Const(w)))
	})
	checkGrad(t, "concat-matmul-tanh-y", y, func(tp *Tape, n *Node) *Node {
		return tp.Sum(tp.ConcatMatMulTanh(tp.Const(x), 1, 3, n, tp.Const(w)))
	})
	checkGrad(t, "concat-matmul-tanh-w", w, func(tp *Tape, n *Node) *Node {
		return tp.Sum(tp.ConcatMatMulTanh(tp.Const(x), 1, 3, tp.Const(y), n))
	})
}

// TestCSROpsBitMatchSegVectorOps pins the CSR tape ops against the
// seg-vector ops they replace: identical forward bits (the CSR message op
// gathers a shared node projection instead of projecting per edge) and
// identical gradient bits (the backward decomposition is the same
// arithmetic, fed by prebuilt buckets instead of per-call bucketing).
func TestCSROpsBitMatchSegVectorOps(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const nodes, edges, k, m = 30, 90, 16, 8
	h := randMat(rng, nodes, k)
	w := randMat(rng, k, m)
	add := randMat(rng, edges, m)
	src := make([]int, edges)
	dst := make([]int, edges)
	for e := range src {
		src[e] = rng.Intn(nodes)
		dst[e] = rng.Intn(nodes)
	}
	srcOffs, srcMembers := buckets(src, nodes)
	dstOffs, dstMembers := buckets(dst, nodes)

	run := func(csr bool) (*tensor.Matrix, *tensor.Matrix, *tensor.Matrix) {
		tp := NewTape()
		hn, wn := tp.Leaf(h), tp.Leaf(w)
		var msg, agg *Node
		if csr {
			msg = tp.GatherMatMulAddTanhCSR(hn, src, wn, tp.Const(add), tensor.MatMul(h, w), srcOffs, srcMembers)
			agg = tp.SegmentMeanCSR(msg, dstOffs, dstMembers)
		} else {
			msg = tp.GatherMatMulAddTanh(hn, src, wn, tp.Const(add))
			agg = tp.SegmentMean(msg, dst, nodes)
		}
		tp.Backward(tp.Sum(agg), nil)
		return agg.Value.Clone(), hn.Grad().Clone(), wn.Grad().Clone()
	}
	cv, ch, cw := run(true)
	uv, uh, uw := run(false)
	bitEq := func(name string, got, want *tensor.Matrix) {
		for i := range want.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
				t.Fatalf("%s[%d]: csr %v vs seg-vector %v", name, i, got.Data[i], want.Data[i])
			}
		}
	}
	bitEq("value", cv, uv)
	bitEq("dH", ch, uh)
	bitEq("dW", cw, uw)
}

// TestConcatMatMulTanhMatchesChain pins the fused op against the
// SliceCols → ConcatCols → MatMulTanh chain it replaces: bit-identical
// forward, rounding-identical gradients (the chain accumulates leaf
// gradients in a different tape order).
func TestConcatMatMulTanhMatchesChain(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	const rows, width, aggW, outW = 12, 10, 7, 5
	x := randMat(rng, rows, width)
	y := randMat(rng, rows, aggW)
	w := randMat(rng, 3+aggW, outW) // slice [2,5) of x
	run := func(fused bool) (*tensor.Matrix, *tensor.Matrix, *tensor.Matrix, *tensor.Matrix) {
		tp := NewTape()
		xn, yn, wn := tp.Leaf(x), tp.Leaf(y), tp.Leaf(w)
		var out *Node
		if fused {
			out = tp.ConcatMatMulTanh(xn, 2, 5, yn, wn)
		} else {
			out = tp.MatMulTanh(tp.ConcatCols(tp.SliceCols(xn, 2, 5), yn), wn)
		}
		tp.Backward(tp.Sum(out), nil)
		return out.Value.Clone(), xn.Grad().Clone(), yn.Grad().Clone(), wn.Grad().Clone()
	}
	fv, fx, fy, fw := run(true)
	uv, ux, uy, uw := run(false)
	for i := range uv.Data {
		if math.Float64bits(fv.Data[i]) != math.Float64bits(uv.Data[i]) {
			t.Fatalf("value[%d]: fused %v vs chain %v", i, fv.Data[i], uv.Data[i])
		}
	}
	const tol = 1e-12
	cmp := func(name string, got, want *tensor.Matrix) {
		for i := range want.Data {
			if math.Abs(got.Data[i]-want.Data[i]) > tol*(1+math.Abs(want.Data[i])) {
				t.Fatalf("%s[%d]: fused %g vs chain %g", name, i, got.Data[i], want.Data[i])
			}
		}
	}
	cmp("dX", fx, ux)
	cmp("dY", fy, uy)
	cmp("dW", fw, uw)
}
