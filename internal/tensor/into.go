// into.go provides destination-passing variants of the element-wise and
// reduction kernels. Each …Into fully defines dst (no kernel reads stale
// dst contents), so a dst obtained from the arena's Get — whose contents
// are unspecified — is always safe. The matrix-product and fused kernels
// live in kernels.go.
//
// Element-wise kernels (AddInto, SubInto, MulInto, ScaleInto, ApplyInto,
// AddRowVectorInto) permit dst to alias an input. The matrix-product
// kernels do not: dst must not overlap a or b.
package tensor

import (
	"fmt"

	"repro/internal/parallel"
)

// AddInto computes a+b into dst (dst may alias a or b) and returns dst.
func AddInto(a, b, dst *Matrix) *Matrix {
	mustSameShape("add", a, b)
	mustShape("add dst", dst, a.Rows, a.Cols)
	for i, v := range a.Data {
		dst.Data[i] = v + b.Data[i]
	}
	return dst
}

// SubInto computes a-b into dst (dst may alias a or b) and returns dst.
func SubInto(a, b, dst *Matrix) *Matrix {
	mustSameShape("sub", a, b)
	mustShape("sub dst", dst, a.Rows, a.Cols)
	for i, v := range a.Data {
		dst.Data[i] = v - b.Data[i]
	}
	return dst
}

// MulInto computes the Hadamard product a⊙b into dst (dst may alias a or
// b) and returns dst.
func MulInto(a, b, dst *Matrix) *Matrix {
	mustSameShape("mul", a, b)
	mustShape("mul dst", dst, a.Rows, a.Cols)
	for i, v := range a.Data {
		dst.Data[i] = v * b.Data[i]
	}
	return dst
}

// ScaleInto computes a·s into dst (dst may alias a) and returns dst.
func ScaleInto(a *Matrix, s float64, dst *Matrix) *Matrix {
	mustShape("scale dst", dst, a.Rows, a.Cols)
	for i, v := range a.Data {
		dst.Data[i] = v * s
	}
	return dst
}

// AddRowVectorInto computes a + broadcast(v) into dst (dst may alias a)
// and returns dst. v is 1×a.Cols.
func AddRowVectorInto(a, v, dst *Matrix) *Matrix {
	if v.Rows != 1 || v.Cols != a.Cols {
		panic(fmt.Sprintf("tensor: add-row-vector shape mismatch %dx%d + %dx%d", a.Rows, a.Cols, v.Rows, v.Cols))
	}
	mustShape("add-row-vector dst", dst, a.Rows, a.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		orow := dst.Row(i)
		for j, av := range arow {
			orow[j] = av + v.Data[j]
		}
	}
	return dst
}

// ApplyInto maps f over every element of a into dst (dst may alias a) and
// returns dst.
func ApplyInto(a *Matrix, f func(float64) float64, dst *Matrix) *Matrix {
	mustShape("apply dst", dst, a.Rows, a.Cols)
	for i, v := range a.Data {
		dst.Data[i] = f(v)
	}
	return dst
}

// GatherRowsInto copies a.Row(idx[i]) into dst.Row(i) and returns dst.
func GatherRowsInto(a *Matrix, idx []int, dst *Matrix) *Matrix {
	mustShape("gather dst", dst, len(idx), a.Cols)
	for i, r := range idx {
		if r < 0 || r >= a.Rows {
			panic(fmt.Sprintf("tensor: gather row %d out of range [0,%d)", r, a.Rows))
		}
		copy(dst.Row(i), a.Row(r))
	}
	return dst
}

// SegmentMeanInto averages the rows of a per segment id into dst
// (segments×a.Cols) and returns dst. Large inputs are parallelized over
// segment blocks: every dst row is owned by one worker and members are
// accumulated in ascending row order, so the result is bit-identical to
// the serial kernel.
func SegmentMeanInto(a *Matrix, seg []int, segments int, dst *Matrix) *Matrix {
	if len(seg) != a.Rows {
		panic("tensor: segment-mean index length mismatch")
	}
	mustShape("segment-mean dst", dst, segments, a.Cols)
	for _, s := range seg {
		if s < 0 || s >= segments {
			panic(fmt.Sprintf("tensor: segment id %d out of range [0,%d)", s, segments))
		}
	}
	if a.Rows*a.Cols < parallelThreshold {
		dst.Zero()
		counts := Get(1, segments)
		cd := counts.Data
		for i := range cd {
			cd[i] = 0
		}
		for i, s := range seg {
			cd[s]++
			orow := dst.Row(s)
			arow := a.Row(i)
			for j, v := range arow {
				orow[j] += v
			}
		}
		for s := 0; s < segments; s++ {
			if cd[s] == 0 {
				continue
			}
			inv := 1 / cd[s]
			orow := dst.Row(s)
			for j := range orow {
				orow[j] *= inv
			}
		}
		Put(counts)
		return dst
	}
	// Parallel path: bucket member rows per segment (counting sort keeps
	// them in ascending row order), then fan out over segment blocks.
	offs, members := bucketByKey(seg, segments)
	parallel.RunChunks(segments, parallel.DefaultWorkers(), func(clo, chi int) {
		for s := clo; s < chi; s++ {
			orow := dst.Row(s)
			for j := range orow {
				orow[j] = 0
			}
			lo, hi := offs[s], offs[s+1]
			if lo == hi {
				continue
			}
			for _, i := range members[lo:hi] {
				arow := a.Row(int(i))
				for j, v := range arow {
					orow[j] += v
				}
			}
			inv := 1 / float64(hi-lo)
			for j := range orow {
				orow[j] *= inv
			}
		}
	})
	return dst
}

// ScatterAddRowsPar adds each row i of src into dst.Row(idx[i]), fanning
// out over destination-row blocks for large inputs. Every dst row is
// owned by one worker and source rows are applied in ascending order, so
// the result is bit-identical to the serial ScatterAddRows.
func ScatterAddRowsPar(dst, src *Matrix, idx []int) {
	if src.Rows != len(idx) || src.Cols != dst.Cols {
		panic("tensor: scatter-add shape mismatch")
	}
	if src.Rows*src.Cols < parallelThreshold {
		ScatterAddRows(dst, src, idx)
		return
	}
	for _, r := range idx {
		if r < 0 || r >= dst.Rows {
			panic(fmt.Sprintf("tensor: scatter row %d out of range [0,%d)", r, dst.Rows))
		}
	}
	offs, members := bucketByKey(idx, dst.Rows)
	parallel.RunChunks(dst.Rows, parallel.DefaultWorkers(), func(clo, chi int) {
		for r := clo; r < chi; r++ {
			lo, hi := offs[r], offs[r+1]
			if lo == hi {
				continue
			}
			drow := dst.Row(r)
			for _, i := range members[lo:hi] {
				srow := src.Row(int(i))
				for j, v := range srow {
					drow[j] += v
				}
			}
		}
	})
}

// bucketByKey counting-sorts the indices [0, len(key)) by key value,
// preserving ascending index order inside each bucket. It returns the
// bucket offsets (len buckets+1) and the sorted index list.
func bucketByKey(key []int, buckets int) ([]int32, []int32) {
	offs := make([]int32, buckets+1)
	for _, k := range key {
		offs[k+1]++
	}
	for b := 0; b < buckets; b++ {
		offs[b+1] += offs[b]
	}
	members := make([]int32, len(key))
	cursor := make([]int32, buckets)
	copy(cursor, offs[:buckets])
	for i, k := range key {
		members[cursor[k]] = int32(i)
		cursor[k]++
	}
	return offs, members
}

func mustShape(op string, m *Matrix, rows, cols int) {
	if m.Rows != rows || m.Cols != cols {
		panic(fmt.Sprintf("tensor: %s shape mismatch: have %dx%d, want %dx%d", op, m.Rows, m.Cols, rows, cols))
	}
}
