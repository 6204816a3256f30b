// csr.go holds the CSR-native segment kernels: variants of SegmentMean /
// ScatterAddRows that take a prebuilt bucket structure (offsets + member
// row ids, as produced by stream.Graph.Adjacency or bucketByKey) instead
// of re-bucketing a segment-id vector on every call.
//
// Determinism contract (see kernels.go): members inside one bucket must be
// ascending, matching the order bucketByKey produces. Each bucket then
// accumulates in exactly the order the seg-vector kernels use, so every
// CSR kernel is bit-identical to its seg-vector twin at any GOMAXPROCS.
package tensor

import (
	"fmt"

	"repro/internal/parallel"
)

// checkCSR validates a bucket structure against the member row universe.
func checkCSR(op string, offs []int32, members []int, rows int) {
	if len(offs) == 0 {
		panic("tensor: " + op + " empty offsets")
	}
	if int(offs[len(offs)-1]) != len(members) || offs[0] != 0 {
		panic(fmt.Sprintf("tensor: %s offsets cover [%d,%d), want [0,%d)", op, offs[0], offs[len(offs)-1], len(members)))
	}
	for _, i := range members {
		if i < 0 || i >= rows {
			panic(fmt.Sprintf("tensor: %s member row %d out of range [0,%d)", op, i, rows))
		}
	}
}

// SegmentMeanCSRInto averages rows of a per bucket into dst
// ((len(offs)-1)×a.Cols): dst.Row(s) is the mean of a.Row(i) over i in
// members[offs[s]:offs[s+1]], zero for empty buckets. With buckets built
// from the same segment vector, the result is bit-identical to
// SegmentMeanInto — but the bucketing happens once per graph instead of
// once per call.
func SegmentMeanCSRInto(a *Matrix, offs []int32, members []int, dst *Matrix) *Matrix {
	segments := len(offs) - 1
	mustShape("segment-mean-csr dst", dst, segments, a.Cols)
	checkCSR("segment-mean-csr", offs, members, a.Rows)
	segRange := func(lo, hi int) {
		for s := lo; s < hi; s++ {
			orow := dst.Row(s)
			for j := range orow {
				orow[j] = 0
			}
			mlo, mhi := offs[s], offs[s+1]
			if mlo == mhi {
				continue
			}
			for _, i := range members[mlo:mhi] {
				arow := a.Row(i)
				for j, v := range arow {
					orow[j] += v
				}
			}
			inv := 1 / float64(mhi-mlo)
			for j := range orow {
				orow[j] *= inv
			}
		}
	}
	if len(members)*a.Cols < parallelThreshold {
		segRange(0, segments)
		return dst
	}
	parallel.RunChunks(segments, parallel.DefaultWorkers(), segRange)
	return dst
}

// ScatterAddRowsCSR adds src.Row(i) into dst.Row(s) for every i in bucket
// s — the CSR twin of ScatterAddRowsPar(dst, src, idx) with buckets built
// from idx. Every dst row is owned by one worker and members ascend, so
// the result is bit-identical to the serial scatter at any GOMAXPROCS.
func ScatterAddRowsCSR(dst, src *Matrix, offs []int32, members []int) {
	if len(offs)-1 != dst.Rows || src.Cols != dst.Cols {
		panic("tensor: scatter-add-csr shape mismatch")
	}
	checkCSR("scatter-add-csr", offs, members, src.Rows)
	rowRange := func(lo, hi int) {
		for s := lo; s < hi; s++ {
			mlo, mhi := offs[s], offs[s+1]
			if mlo == mhi {
				continue
			}
			drow := dst.Row(s)
			for _, i := range members[mlo:mhi] {
				srow := src.Row(i)
				for j, v := range srow {
					drow[j] += v
				}
			}
		}
	}
	if len(members)*src.Cols < parallelThreshold {
		rowRange(0, dst.Rows)
		return
	}
	parallel.RunChunks(dst.Rows, parallel.DefaultWorkers(), rowRange)
}
