// Package tensor implements dense float64 matrices with the handful of
// kernels the neural substrate needs: matrix multiply (goroutine
// row-blocked for large shapes), transpose-multiplies, element-wise maps,
// row gather/scatter, and segment reductions.
//
// Matrices are row-major over a flat slice; Matrix values are cheap to pass
// by pointer and are never shared mutably between goroutines by the callers
// in this repository.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Matrix is a dense row-major rows×cols matrix of float64.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// New returns a zeroed rows×cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromSlice wraps data (length rows*cols) without copying.
func FromSlice(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: data length %d != %d*%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// FromRows builds a matrix by copying a slice of equal-length rows.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return New(0, 0)
	}
	cols := len(rows[0])
	m := New(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			panic("tensor: ragged rows")
		}
		copy(m.Data[i*cols:(i+1)*cols], r)
	}
	return m
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view (not a copy) of row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Zero clears all elements in place.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Fill sets every element to v.
func (m *Matrix) Fill(v float64) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// SameShape reports whether m and o have identical dimensions.
func (m *Matrix) SameShape(o *Matrix) bool { return m.Rows == o.Rows && m.Cols == o.Cols }

// parallelThreshold is the flop count above which kernels fan out.
const parallelThreshold = 1 << 16

// MatMul returns m·o. Panics on shape mismatch.
func MatMul(a, b *Matrix) *Matrix {
	return MatMulInto(a, b, &Matrix{Rows: a.Rows, Cols: b.Cols, Data: make([]float64, a.Rows*b.Cols)})
}

// Transpose returns mᵀ as a new matrix.
func (m *Matrix) Transpose() *Matrix {
	t := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Data[j*m.Rows+i] = m.Data[i*m.Cols+j]
		}
	}
	return t
}

// AddInPlace accumulates b into a.
func AddInPlace(a, b *Matrix) {
	mustSameShape("add-in-place", a, b)
	for i, v := range b.Data {
		a.Data[i] += v
	}
}

// ScatterAddRows adds each row i of src into dst.Row(idx[i]).
func ScatterAddRows(dst, src *Matrix, idx []int) {
	if src.Rows != len(idx) || src.Cols != dst.Cols {
		panic("tensor: scatter-add shape mismatch")
	}
	for i, r := range idx {
		drow := dst.Row(r)
		srow := src.Row(i)
		for j, v := range srow {
			drow[j] += v
		}
	}
}

// SegmentMean averages the rows of a whose segment id equals s, for each
// s in [0, segments); segments with no members yield zero rows. Large
// inputs are parallelized over segment blocks (see SegmentMeanInto).
func SegmentMean(a *Matrix, seg []int, segments int) *Matrix {
	return SegmentMeanInto(a, seg, segments, New(segments, a.Cols))
}

// Sum returns the sum of all elements.
func (m *Matrix) Sum() float64 {
	var s float64
	for _, v := range m.Data {
		s += v
	}
	return s
}

// MaxAbs returns the largest absolute element value (0 for empty matrices).
func (m *Matrix) MaxAbs() float64 {
	var mx float64
	for _, v := range m.Data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// RandUniform fills m with uniform values in [-scale, scale).
func (m *Matrix) RandUniform(rng *rand.Rand, scale float64) {
	for i := range m.Data {
		m.Data[i] = (rng.Float64()*2 - 1) * scale
	}
}

// XavierInit fills m with the Glorot-uniform initialization for a layer
// with fanIn inputs and fanOut outputs.
func (m *Matrix) XavierInit(rng *rand.Rand, fanIn, fanOut int) {
	scale := math.Sqrt(6 / float64(fanIn+fanOut))
	m.RandUniform(rng, scale)
}

// Equal reports element-wise equality within tolerance eps.
func Equal(a, b *Matrix, eps float64) bool {
	if !a.SameShape(b) {
		return false
	}
	for i, v := range a.Data {
		if math.Abs(v-b.Data[i]) > eps {
			return false
		}
	}
	return true
}

func mustSameShape(op string, a, b *Matrix) {
	if !a.SameShape(b) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

// String renders small matrices for debugging.
func (m *Matrix) String() string {
	if m.Rows*m.Cols > 64 {
		return fmt.Sprintf("Matrix(%dx%d)", m.Rows, m.Cols)
	}
	s := fmt.Sprintf("Matrix(%dx%d)[", m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		if i > 0 {
			s += "; "
		}
		for j := 0; j < m.Cols; j++ {
			if j > 0 {
				s += " "
			}
			s += fmt.Sprintf("%.4g", m.At(i, j))
		}
	}
	return s + "]"
}
