// kernels.go is the throughput layer of the tensor package: register- and
// cache-blocked matrix-product kernels, unrolled axpy/dot micro-kernels,
// specialized activation loops, and fused gather/bias/activation variants
// used by the autodiff tape's fused ops.
//
// Determinism contract: every kernel fixes its floating-point accumulation
// order independently of blocking, packing, worker count and CPU. Products
// accumulate over k in ascending quads (k, k+1, k+2, k+3 summed as one
// expression) starting at k=0, with scalar remainder steps in ascending
// order; dot products use four fixed lanes reduced as (s0+s1)+(s2+s3).
// Parallel fan-out only ever splits output rows, and each output element
// is owned by exactly one worker, so results are bit-identical run-to-run
// and across GOMAXPROCS values. The cache-blocked packed path chooses
// panel heights that are multiples of the unroll factor, which makes its
// quad boundaries — and therefore its results — bit-identical to the
// unpacked path as well. The AVX2 loops of simd_amd64.s, used when the
// CPU has AVX2 and FMA, run the same IEEE operations in the same order
// per lane and hand NaN sums to the scalar loops, and their tanh is
// math.Tanh bit for bit, so results are identical with and without them.
package tensor

import (
	"fmt"
	"math"

	"repro/internal/parallel"
)

// Blocking parameters for the packed MatMul path. kcPanel must stay a
// multiple of 4 so packed and unpacked quad boundaries coincide (see the
// determinism contract above).
const (
	kcPanel = 128 // rows of B per packed panel
	ncPanel = 256 // columns of B per packed panel
)

// packMinElems gates panel packing: below this element count B fits in
// cache and the copy would cost more than it saves. Variable (not const)
// so tests can force the packed path on small shapes.
var packMinElems = 1 << 15

// useAVX2 selects the AVX2+FMA loops of simd_amd64.s for the
// multiple-of-4 prefix of tanhRow, quadAxpy, quadAxpySet, productRow and
// dotRows. It is set once at start-up; the scalar Go below covers
// remainders and every other CPU, and both paths give bit-identical
// results. Tests flip it.
var useAVX2 = hasAVX2FMA()

// Dot returns the inner product x·y over four independent accumulator
// lanes (fixed reduction order, so the result is deterministic).
func Dot(x, y []float64) float64 {
	if len(y) != len(x) {
		panic("tensor: dot length mismatch")
	}
	var s [1]float64
	dotRows(x, y, s[:])
	return s[0]
}

// dotRows sets out[j] = Dot(x, b[j*k:(j+1)*k]) for every j, k = len(x):
// one row of a·bᵀ.
func dotRows(x, b, out []float64) {
	k := len(x)
	b = b[:len(out)*k]
	if useAVX2 && k > 0 && len(out) > 0 {
		// The vector loop adds the product first in every lane, while the
		// compiled dotScalar adds lane 3's accumulator first. That decides
		// only which payload survives when two NaNs meet, so NaN results
		// are recomputed.
		if dotRowsAVX2(&x[0], k, &b[0], len(out), &out[0]) {
			for j, v := range out {
				if v != v {
					out[j] = dotScalar(x, b[j*k:(j+1)*k])
				}
			}
		}
		return
	}
	for j := range out {
		out[j] = dotScalar(x, b[j*k:(j+1)*k])
	}
}

// dotScalar is Dot in scalar Go: four lanes over the multiple-of-4 prefix,
// reduced as (s0+s1)+(s2+s3), then the remainder in ascending order.
func dotScalar(x, y []float64) float64 {
	n := len(x)
	y = y[:n]
	var s0, s1, s2, s3 float64
	k := 0
	for ; k+4 <= n; k += 4 {
		s0 += x[k] * y[k]
		s1 += x[k+1] * y[k+1]
		s2 += x[k+2] * y[k+2]
		s3 += x[k+3] * y[k+3]
	}
	s := (s0 + s1) + (s2 + s3)
	for ; k < n; k++ {
		s += x[k] * y[k]
	}
	return s
}

// Axpy computes y += alpha·x with a 4×-unrolled loop.
func Axpy(alpha float64, x, y []float64) {
	n := len(x)
	if len(y) != n {
		panic("tensor: axpy length mismatch")
	}
	y = y[:n]
	k := 0
	for ; k+4 <= n; k += 4 {
		y[k] += alpha * x[k]
		y[k+1] += alpha * x[k+1]
		y[k+2] += alpha * x[k+2]
		y[k+3] += alpha * x[k+3]
	}
	for ; k < n; k++ {
		y[k] += alpha * x[k]
	}
}

// quadAxpy accumulates o += a0·b0 + a1·b1 + a2·b2 + a3·b3 in one pass —
// the register-blocked inner step shared by every product kernel. The
// four products sum left-to-right inside a single expression, which pins
// the accumulation order. The vector loop returns at the first columns
// whose quad sum is NaN, so this scalar loop, as with the vector loops
// off, decides which payload survives when two NaNs meet.
func quadAxpy(a0, a1, a2, a3 float64, b0, b1, b2, b3, o []float64) {
	n := len(o)
	b0, b1, b2, b3 = b0[:n], b1[:n], b2[:n], b3[:n]
	j := 0
	if useAVX2 && n >= 4 {
		j = quadAxpyAVX2(a0, a1, a2, a3, &b0[0], &b1[0], &b2[0], &b3[0], &o[0], n&^3, false)
	}
	for ; j < n; j++ {
		o[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
	}
}

// quadAxpySet is quadAxpy with assignment instead of accumulation: the
// first quad of a product defines the output row, saving a zeroing pass.
func quadAxpySet(a0, a1, a2, a3 float64, b0, b1, b2, b3, o []float64) {
	n := len(o)
	b0, b1, b2, b3 = b0[:n], b1[:n], b2[:n], b3[:n]
	j := 0
	if useAVX2 && n >= 4 {
		j = quadAxpyAVX2(a0, a1, a2, a3, &b0[0], &b1[0], &b2[0], &b3[0], &o[0], n&^3, true)
	}
	for ; j < n; j++ {
		o[j] = a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
	}
}

// tanhRow sets dst[j] = math.Tanh(src[j]) for every j of src; dst may be
// src itself.
func tanhRow(dst, src []float64) {
	n := len(src)
	dst = dst[:n]
	j := 0
	if useAVX2 && n >= 4 {
		j = n &^ 3
		tanhAVX2(&dst[0], &src[0], j)
	}
	for ; j < n; j++ {
		dst[j] = math.Tanh(src[j])
	}
}

// productRow computes orow = arow·b (b row-major with n columns packed in
// bdata), defining orow fully: the first k-quad assigns, later quads and
// the scalar remainder accumulate. With the vector loops on, one call
// runs every k-quad over the multiple-of-4 columns; if it meets a NaN
// quad sum, the quad kernels redo the row from the first quad.
func productRow(arow, bdata []float64, n int, orow []float64) {
	orow = orow[:n]
	kk := len(arow)
	bdata = bdata[:kk*n]
	if kk >= 4 {
		k4 := kk &^ 3
		j := 0
		if useAVX2 && n >= 4 && productRowAVX2(&arow[0], k4, &bdata[0], n, &orow[0], n&^3) {
			j = n &^ 3
		}
		if j < n {
			quadAxpySet(arow[0], arow[1], arow[2], arow[3],
				bdata[j:n], bdata[n+j:2*n], bdata[2*n+j:3*n], bdata[3*n+j:4*n], orow[j:])
			for k := 4; k < k4; k += 4 {
				quadAxpy(arow[k], arow[k+1], arow[k+2], arow[k+3],
					bdata[k*n+j:(k+1)*n], bdata[(k+1)*n+j:(k+2)*n],
					bdata[(k+2)*n+j:(k+3)*n], bdata[(k+3)*n+j:(k+4)*n], orow[j:])
			}
		}
		for k := k4; k < kk; k++ {
			Axpy(arow[k], bdata[k*n:(k+1)*n], orow)
		}
		return
	}
	for j := range orow {
		orow[j] = 0
	}
	for k := 0; k < kk; k++ {
		Axpy(arow[k], bdata[k*n:(k+1)*n], orow)
	}
}

// accumRow is productRow without the assigning first quad: orow += arow·b.
// Used by the packed path for every k panel after the first.
func accumRow(arow, bdata []float64, n int, orow []float64) {
	orow = orow[:n]
	kk := len(arow)
	k := 0
	for ; k+4 <= kk; k += 4 {
		quadAxpy(arow[k], arow[k+1], arow[k+2], arow[k+3],
			bdata[k*n:(k+1)*n], bdata[(k+1)*n:(k+2)*n],
			bdata[(k+2)*n:(k+3)*n], bdata[(k+3)*n:(k+4)*n], orow)
	}
	for ; k < kk; k++ {
		Axpy(arow[k], bdata[k*n:(k+1)*n], orow)
	}
}

// matMulRowsPlain computes dst rows [lo, hi) of a·b with the unpacked
// unrolled kernel (B streamed row-major straight from b.Data).
func matMulRowsPlain(a, b, dst *Matrix, lo, hi int) {
	n := b.Cols
	for i := lo; i < hi; i++ {
		productRow(a.Data[i*a.Cols:(i+1)*a.Cols], b.Data, n, dst.Data[i*n:(i+1)*n])
	}
}

// matMulRowsPacked computes dst rows [lo, hi) of a·b with cache blocking:
// B is copied one kcPanel×ncPanel panel at a time into a contiguous
// worker-local buffer, and every row of the block accumulates against the
// hot panel before the next one is packed.
func matMulRowsPacked(a, b, dst *Matrix, lo, hi int) {
	K, n := b.Rows, b.Cols
	buf := Get(1, min(kcPanel, K)*min(ncPanel, n))
	panel := buf.Data
	for jc := 0; jc < n; jc += ncPanel {
		w := min(ncPanel, n-jc)
		for kc := 0; kc < K; kc += kcPanel {
			h := min(kcPanel, K-kc)
			for t := 0; t < h; t++ {
				copy(panel[t*w:(t+1)*w], b.Data[(kc+t)*n+jc:(kc+t)*n+jc+w])
			}
			if kc == 0 {
				for i := lo; i < hi; i++ {
					productRow(a.Data[i*a.Cols+kc:i*a.Cols+kc+h], panel, w, dst.Data[i*n+jc:i*n+jc+w])
				}
			} else {
				for i := lo; i < hi; i++ {
					accumRow(a.Data[i*a.Cols+kc:i*a.Cols+kc+h], panel, w, dst.Data[i*n+jc:i*n+jc+w])
				}
			}
		}
	}
	Put(buf)
}

// MatMulInto computes a·b into dst (a.Rows×b.Cols) and returns dst. Large
// B operands take the packed cache-blocked path; either way the inner
// loops are 4×-unrolled with a fixed accumulation order, and parallel
// fan-out splits only output rows, so results are bit-identical across
// worker counts and run-to-run.
func MatMulInto(a, b, dst *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: matmul shape mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	mustShape("matmul dst", dst, a.Rows, b.Cols)
	kernel := matMulRowsPlain
	if b.Rows*b.Cols >= packMinElems {
		kernel = matMulRowsPacked
	}
	work := a.Rows * a.Cols * b.Cols
	if work < parallelThreshold {
		kernel(a, b, dst, 0, a.Rows)
		return dst
	}
	parallel.RunChunks(a.Rows, parallel.DefaultWorkers(), func(lo, hi int) {
		kernel(a, b, dst, lo, hi)
	})
	return dst
}

// MatMulTanhInto computes tanh(a·b) into dst: the activation is applied in
// the store loop while each freshly computed output row is still hot.
func MatMulTanhInto(a, b, dst *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: matmul-tanh shape mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	mustShape("matmul-tanh dst", dst, a.Rows, b.Cols)
	n := b.Cols
	rowRange := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			orow := dst.Data[i*n : (i+1)*n]
			productRow(a.Data[i*a.Cols:(i+1)*a.Cols], b.Data, n, orow)
			for j, v := range orow {
				orow[j] = math.Tanh(v)
			}
		}
	}
	work := a.Rows * a.Cols * b.Cols
	if work < parallelThreshold {
		rowRange(0, a.Rows)
		return dst
	}
	parallel.RunChunks(a.Rows, parallel.DefaultWorkers(), rowRange)
	return dst
}

// ConcatMatMulTanhInto computes tanh(concat(x[:, lo:hi], y)·b) into dst
// without materializing the slice or the concatenation: each operand row
// is assembled in a worker-local scratch and fed to the same productRow
// kernel MatMulTanhInto uses, so the result is bit-identical to slicing,
// concatenating, and calling MatMulTanhInto.
func ConcatMatMulTanhInto(x *Matrix, lo, hi int, y, b, dst *Matrix) *Matrix {
	if lo < 0 || hi > x.Cols || lo > hi {
		panic(fmt.Sprintf("tensor: concat-matmul-tanh slice [%d,%d) of %d", lo, hi, x.Cols))
	}
	k1, k2 := hi-lo, y.Cols
	if x.Rows != y.Rows {
		panic(fmt.Sprintf("tensor: concat-matmul-tanh row mismatch %d vs %d", x.Rows, y.Rows))
	}
	if b.Rows != k1+k2 {
		panic(fmt.Sprintf("tensor: concat-matmul-tanh shape mismatch %d+%d cols · %dx%d", k1, k2, b.Rows, b.Cols))
	}
	mustShape("concat-matmul-tanh dst", dst, x.Rows, b.Cols)
	n := b.Cols
	rowRange := func(rlo, rhi int) {
		buf := Get(1, k1+k2)
		crow := buf.Data
		for i := rlo; i < rhi; i++ {
			copy(crow[:k1], x.Data[i*x.Cols+lo:i*x.Cols+hi])
			copy(crow[k1:], y.Data[i*k2:(i+1)*k2])
			orow := dst.Data[i*n : (i+1)*n]
			productRow(crow, b.Data, n, orow)
			tanhRow(orow, orow)
		}
		Put(buf)
	}
	work := x.Rows * (k1 + k2) * n
	if work < parallelThreshold {
		rowRange(0, x.Rows)
		return dst
	}
	parallel.RunChunks(x.Rows, parallel.DefaultWorkers(), rowRange)
	return dst
}

// GatherMatMulInto computes gather(a, idx)·b into dst (len(idx)×b.Cols)
// without materializing the gathered matrix: each source row is read in
// place through the index indirection.
func GatherMatMulInto(a *Matrix, idx []int, b, dst *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: gather-matmul shape mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	mustShape("gather-matmul dst", dst, len(idx), b.Cols)
	checkGather(idx, a.Rows)
	n := b.Cols
	rowRange := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			r := idx[i]
			productRow(a.Data[r*a.Cols:(r+1)*a.Cols], b.Data, n, dst.Data[i*n:(i+1)*n])
		}
	}
	work := len(idx) * a.Cols * b.Cols
	if work < parallelThreshold {
		rowRange(0, len(idx))
		return dst
	}
	parallel.RunChunks(len(idx), parallel.DefaultWorkers(), rowRange)
	return dst
}

// GatherMatMulAddTanhInto computes tanh(gather(a, idx)·b + add) into dst —
// the fused forward step of one GNN message transform: gather reads rows
// in place, the additive term (nil to skip) and the activation are applied
// in the store loop, and no intermediate matrix is ever materialized.
func GatherMatMulAddTanhInto(a *Matrix, idx []int, b, add, dst *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: gather-matmul-add-tanh shape mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	mustShape("gather-matmul-add-tanh dst", dst, len(idx), b.Cols)
	if add != nil {
		mustShape("gather-matmul-add-tanh add", add, len(idx), b.Cols)
	}
	checkGather(idx, a.Rows)
	n := b.Cols
	rowRange := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			r := idx[i]
			orow := dst.Data[i*n : (i+1)*n]
			productRow(a.Data[r*a.Cols:(r+1)*a.Cols], b.Data, n, orow)
			if add != nil {
				arow := add.Data[i*n : (i+1)*n]
				for j, v := range orow {
					orow[j] = math.Tanh(v + arow[j])
				}
			} else {
				for j, v := range orow {
					orow[j] = math.Tanh(v)
				}
			}
		}
	}
	work := len(idx) * a.Cols * b.Cols
	if work < parallelThreshold {
		rowRange(0, len(idx))
		return dst
	}
	parallel.RunChunks(len(idx), parallel.DefaultWorkers(), rowRange)
	return dst
}

// GatherAddTanhInto computes tanh(gather(p, idx) + add) into dst — the GNN
// message transform once the node rows are already projected (p = h·W):
// row i reads p.Row(idx[i]) in place, adds add.Row(i) (nil to skip) and
// applies the activation. With p from MatMulInto(h, w) the result is
// bit-identical to GatherMatMulAddTanhInto(h, idx, w, add), because each
// product row depends only on its own input row; a node feeding many
// edges is projected once instead of once per edge.
func GatherAddTanhInto(p *Matrix, idx []int, add, dst *Matrix) *Matrix {
	n := p.Cols
	mustShape("gather-add-tanh dst", dst, len(idx), n)
	if add != nil {
		mustShape("gather-add-tanh add", add, len(idx), n)
	}
	checkGather(idx, p.Rows)
	rowRange := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			r := idx[i]
			prow := p.Data[r*n : (r+1)*n]
			orow := dst.Data[i*n : (i+1)*n]
			if add != nil {
				arow := add.Data[i*n : (i+1)*n]
				for j, v := range prow {
					orow[j] = v + arow[j]
				}
				prow = orow
			}
			tanhRow(orow, prow)
		}
	}
	if len(idx)*n < parallelThreshold {
		rowRange(0, len(idx))
		return dst
	}
	parallel.RunChunks(len(idx), parallel.DefaultWorkers(), rowRange)
	return dst
}

// MatMulT1Into computes aᵀ·b into dst (a.Cols×b.Cols) and returns dst.
// The i dimension (a's rows) is register-blocked by 4 with a fixed
// ascending order; parallel fan-out splits dst rows, so every output
// element accumulates in the same order at any worker count.
func MatMulT1Into(a, b, dst *Matrix) *Matrix {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: matmulT1 shape mismatch %dx%d ᵀ· %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	mustShape("matmulT1 dst", dst, a.Cols, b.Cols)
	colRange := func(lo, hi int) { matMulT1Range(a.Data, a.Cols, b, dst, lo, hi, nil) }
	work := a.Rows * a.Cols * b.Cols
	if work < parallelThreshold {
		colRange(0, a.Cols)
		return dst
	}
	parallel.RunChunks(a.Cols, parallel.DefaultWorkers(), colRange)
	return dst
}

// GatherMatMulT1Into computes gather(a, idx)ᵀ·b into dst (a.Cols×b.Cols) —
// the weight-gradient half of the fused gather∘matmul backward pass,
// again without materializing the gathered matrix.
func GatherMatMulT1Into(a *Matrix, idx []int, b, dst *Matrix) *Matrix {
	if len(idx) != b.Rows {
		panic(fmt.Sprintf("tensor: gather-matmulT1 shape mismatch %d rows ᵀ· %dx%d", len(idx), b.Rows, b.Cols))
	}
	mustShape("gather-matmulT1 dst", dst, a.Cols, b.Cols)
	checkGather(idx, a.Rows)
	colRange := func(lo, hi int) { matMulT1Range(a.Data, a.Cols, b, dst, lo, hi, idx) }
	work := len(idx) * a.Cols * b.Cols
	if work < parallelThreshold {
		colRange(0, a.Cols)
		return dst
	}
	parallel.RunChunks(a.Cols, parallel.DefaultWorkers(), colRange)
	return dst
}

// matMulT1Range fills dst rows [lo, hi) of aᵀ·b, optionally reading a's
// rows through idx (gather fusion). The first i-quad assigns each dst row
// so no zeroing pass is needed; remaining quads and the scalar tail
// accumulate in ascending i order.
func matMulT1Range(aData []float64, aCols int, b, dst *Matrix, lo, hi int, idx []int) {
	rows, n := b.Rows, b.Cols
	arow := func(i int) []float64 {
		r := i
		if idx != nil {
			r = idx[i]
		}
		return aData[r*aCols : (r+1)*aCols]
	}
	if rows < 4 {
		for k := lo; k < hi; k++ {
			orow := dst.Data[k*n : (k+1)*n]
			for j := range orow {
				orow[j] = 0
			}
		}
		for i := 0; i < rows; i++ {
			a0, b0 := arow(i), b.Data[i*n:(i+1)*n]
			for k := lo; k < hi; k++ {
				Axpy(a0[k], b0, dst.Data[k*n:(k+1)*n])
			}
		}
		return
	}
	a0, a1, a2, a3 := arow(0), arow(1), arow(2), arow(3)
	b0, b1, b2, b3 := b.Data[0:n], b.Data[n:2*n], b.Data[2*n:3*n], b.Data[3*n:4*n]
	for k := lo; k < hi; k++ {
		quadAxpySet(a0[k], a1[k], a2[k], a3[k], b0, b1, b2, b3, dst.Data[k*n:(k+1)*n])
	}
	i := 4
	for ; i+4 <= rows; i += 4 {
		a0, a1, a2, a3 = arow(i), arow(i+1), arow(i+2), arow(i+3)
		b0, b1, b2, b3 = b.Data[i*n:(i+1)*n], b.Data[(i+1)*n:(i+2)*n], b.Data[(i+2)*n:(i+3)*n], b.Data[(i+3)*n:(i+4)*n]
		for k := lo; k < hi; k++ {
			quadAxpy(a0[k], a1[k], a2[k], a3[k], b0, b1, b2, b3, dst.Data[k*n:(k+1)*n])
		}
	}
	for ; i < rows; i++ {
		av, bv := arow(i), b.Data[i*n:(i+1)*n]
		for k := lo; k < hi; k++ {
			Axpy(av[k], bv, dst.Data[k*n:(k+1)*n])
		}
	}
}

// MatMulT2Into computes a·bᵀ into dst (a.Rows×b.Rows) and returns dst.
// Each output element is an unrolled four-lane dot product.
func MatMulT2Into(a, b, dst *Matrix) *Matrix {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmulT2 shape mismatch %dx%d · %dx%dᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	mustShape("matmulT2 dst", dst, a.Rows, b.Rows)
	rowRange := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			arow := a.Data[i*a.Cols : (i+1)*a.Cols]
			orow := dst.Data[i*b.Rows : (i+1)*b.Rows]
			dotRows(arow, b.Data, orow)
		}
	}
	work := a.Rows * a.Cols * b.Rows
	if work < parallelThreshold {
		rowRange(0, a.Rows)
		return dst
	}
	parallel.RunChunks(a.Rows, parallel.DefaultWorkers(), rowRange)
	return dst
}

// affineKind selects the epilogue of the fused affine kernel.
type affineKind int

const (
	affinePlain affineKind = iota
	affineTanh
)

// matMulT2BiasInto computes f(a·bᵀ + bias) into dst where bias is 1×b.Rows
// and f is the selected epilogue — the fused forward pass of nn.Linear
// (y = x·Wᵀ + b), with no transposed weight copy and, for affineTanh, the
// activation applied in the store loop.
func matMulT2BiasInto(a, b, bias, dst *Matrix, kind affineKind) *Matrix {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: affine shape mismatch %dx%d · %dx%dᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if bias.Rows != 1 || bias.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: affine bias shape %dx%d, want 1x%d", bias.Rows, bias.Cols, b.Rows))
	}
	mustShape("affine dst", dst, a.Rows, b.Rows)
	bd := bias.Data
	rowRange := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			arow := a.Data[i*a.Cols : (i+1)*a.Cols]
			orow := dst.Data[i*b.Rows : (i+1)*b.Rows]
			dotRows(arow, b.Data, orow)
			for j := range orow {
				orow[j] += bd[j]
			}
			if kind == affineTanh {
				tanhRow(orow, orow)
			}
		}
	}
	work := a.Rows * a.Cols * b.Rows
	if work < parallelThreshold {
		rowRange(0, a.Rows)
		return dst
	}
	parallel.RunChunks(a.Rows, parallel.DefaultWorkers(), rowRange)
	return dst
}

// MatMulT2BiasInto computes a·bᵀ + broadcast(bias) into dst.
func MatMulT2BiasInto(a, b, bias, dst *Matrix) *Matrix {
	return matMulT2BiasInto(a, b, bias, dst, affinePlain)
}

// MatMulT2BiasTanhInto computes tanh(a·bᵀ + broadcast(bias)) into dst.
func MatMulT2BiasTanhInto(a, b, bias, dst *Matrix) *Matrix {
	return matMulT2BiasInto(a, b, bias, dst, affineTanh)
}

// checkGather validates gather indices against the source row count.
func checkGather(idx []int, rows int) {
	for _, r := range idx {
		if r < 0 || r >= rows {
			panic(fmt.Sprintf("tensor: gather row %d out of range [0,%d)", r, rows))
		}
	}
}

// TanhInto computes element-wise tanh of a into dst (dst may alias a).
func TanhInto(a, dst *Matrix) *Matrix {
	mustShape("tanh dst", dst, a.Rows, a.Cols)
	tanhRow(dst.Data, a.Data)
	return dst
}

// SigmoidInto computes the element-wise logistic sigmoid of a into dst
// (dst may alias a).
func SigmoidInto(a, dst *Matrix) *Matrix {
	mustShape("sigmoid dst", dst, a.Rows, a.Cols)
	for i, v := range a.Data {
		dst.Data[i] = 1 / (1 + math.Exp(-v))
	}
	return dst
}

// ReLUInto computes element-wise max(0, x) of a into dst (dst may alias a).
func ReLUInto(a, dst *Matrix) *Matrix {
	mustShape("relu dst", dst, a.Rows, a.Cols)
	for i, v := range a.Data {
		if v > 0 {
			dst.Data[i] = v
		} else {
			dst.Data[i] = 0
		}
	}
	return dst
}

// TanhGradInto computes dst = g ⊙ (1 - y²) where y = tanh(x) is the
// forward output — the backward loop of every fused-tanh op.
func TanhGradInto(g, y, dst *Matrix) *Matrix {
	mustSameShape("tanh-grad", g, y)
	mustShape("tanh-grad dst", dst, g.Rows, g.Cols)
	yd := y.Data
	for i, gv := range g.Data {
		yv := yd[i]
		dst.Data[i] = gv * (1 - yv*yv)
	}
	return dst
}

// SigmoidGradInto computes dst = g ⊙ y ⊙ (1 - y) for forward output y.
func SigmoidGradInto(g, y, dst *Matrix) *Matrix {
	mustSameShape("sigmoid-grad", g, y)
	mustShape("sigmoid-grad dst", dst, g.Rows, g.Cols)
	yd := y.Data
	for i, gv := range g.Data {
		yv := yd[i]
		dst.Data[i] = gv * yv * (1 - yv)
	}
	return dst
}

// ReLUGradInto computes dst = g where x > 0, else 0, for forward input x.
func ReLUGradInto(g, x, dst *Matrix) *Matrix {
	mustSameShape("relu-grad", g, x)
	mustShape("relu-grad dst", dst, g.Rows, g.Cols)
	xd := x.Data
	for i, gv := range g.Data {
		if xd[i] > 0 {
			dst.Data[i] = gv
		} else {
			dst.Data[i] = 0
		}
	}
	return dst
}

// ColSumsInto sums a's rows into the 1×a.Cols vector dst (the bias
// gradient of an affine layer).
func ColSumsInto(a, dst *Matrix) *Matrix {
	mustShape("col-sums dst", dst, 1, a.Cols)
	for j := range dst.Data {
		dst.Data[j] = 0
	}
	for i := 0; i < a.Rows; i++ {
		Axpy(1, a.Data[i*a.Cols:(i+1)*a.Cols], dst.Data)
	}
	return dst
}
