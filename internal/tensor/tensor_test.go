package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewAndAccessors(t *testing.T) {
	m := New(2, 3)
	if m.Rows != 2 || m.Cols != 3 || len(m.Data) != 6 {
		t.Fatalf("bad shape %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 {
		t.Fatalf("At(1,2) = %g", m.At(1, 2))
	}
	if m.Row(1)[2] != 7 {
		t.Fatal("Row view mismatch")
	}
}

func TestFromRowsAndClone(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 1 {
		t.Fatal("clone aliases original")
	}
}

func TestMatMulSmall(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	got := MatMul(a, b)
	want := FromRows([][]float64{{19, 22}, {43, 50}})
	if !Equal(got, want, 1e-12) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestMatMulParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Large enough to cross parallelThreshold.
	a := New(80, 90)
	b := New(90, 70)
	a.RandUniform(rng, 1)
	b.RandUniform(rng, 1)
	got := MatMul(a, b)
	// Naive reference.
	want := New(80, 70)
	for i := 0; i < 80; i++ {
		for j := 0; j < 70; j++ {
			var s float64
			for k := 0; k < 90; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			want.Set(i, j, s)
		}
	}
	if !Equal(got, want, 1e-9) {
		t.Fatal("parallel matmul diverges from reference")
	}
}

func TestMatMulTransposedVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := New(5, 7)
	b := New(5, 4)
	a.RandUniform(rng, 1)
	b.RandUniform(rng, 1)
	// aᵀ·b == Transpose(a)·b
	if !Equal(MatMulT1Into(a, b, New(a.Cols, b.Cols)), MatMul(a.Transpose(), b), 1e-12) {
		t.Fatal("MatMulT1Into mismatch")
	}
	c := New(6, 7)
	c.RandUniform(rng, 1)
	// a·cᵀ == a·Transpose(c)
	if !Equal(MatMulT2Into(a, c, New(a.Rows, c.Rows)), MatMul(a, c.Transpose()), 1e-12) {
		t.Fatal("MatMulT2Into mismatch")
	}
}

func TestMatMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MatMul(New(2, 3), New(2, 3))
}

func TestElementwiseOps(t *testing.T) {
	a := FromRows([][]float64{{1, -2}})
	b := FromRows([][]float64{{3, 4}})
	if !Equal(AddInto(a, b, New(1, 2)), FromRows([][]float64{{4, 2}}), 0) {
		t.Fatal("add")
	}
	if !Equal(SubInto(a, b, New(1, 2)), FromRows([][]float64{{-2, -6}}), 0) {
		t.Fatal("sub")
	}
	if !Equal(MulInto(a, b, New(1, 2)), FromRows([][]float64{{3, -8}}), 0) {
		t.Fatal("mul")
	}
	if !Equal(ScaleInto(a, 2, New(1, 2)), FromRows([][]float64{{2, -4}}), 0) {
		t.Fatal("scale")
	}
	if !Equal(ReLUInto(a, New(1, 2)), FromRows([][]float64{{1, 0}}), 0) {
		t.Fatal("relu")
	}
	s := SigmoidInto(FromRows([][]float64{{0}}), New(1, 1))
	if math.Abs(s.At(0, 0)-0.5) > 1e-12 {
		t.Fatal("sigmoid(0) != 0.5")
	}
}

func TestAddInPlace(t *testing.T) {
	a := FromRows([][]float64{{1, 2}})
	AddInPlace(a, FromRows([][]float64{{10, 20}}))
	if a.At(0, 1) != 22 {
		t.Fatal("add in place")
	}
}

func TestAddRowVector(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	v := FromRows([][]float64{{10, 20}})
	got := AddRowVectorInto(a, v, New(2, 2))
	want := FromRows([][]float64{{11, 22}, {13, 24}})
	if !Equal(got, want, 0) {
		t.Fatal("add row vector")
	}
}

func TestGatherScatter(t *testing.T) {
	a := FromRows([][]float64{{1, 1}, {2, 2}, {3, 3}})
	g := GatherRowsInto(a, []int{2, 2, 0}, New(3, 2))
	want := FromRows([][]float64{{3, 3}, {3, 3}, {1, 1}})
	if !Equal(g, want, 0) {
		t.Fatal("gather")
	}
	dst := New(3, 2)
	ScatterAddRows(dst, g, []int{2, 2, 0})
	if dst.At(2, 0) != 6 || dst.At(0, 0) != 1 || dst.At(1, 0) != 0 {
		t.Fatalf("scatter: %v", dst)
	}
}

func TestSegmentMean(t *testing.T) {
	a := FromRows([][]float64{{2, 0}, {4, 0}, {10, 6}})
	got := SegmentMean(a, []int{0, 0, 1}, 3)
	want := FromRows([][]float64{{3, 0}, {10, 6}, {0, 0}})
	if !Equal(got, want, 1e-12) {
		t.Fatalf("segment mean: %v", got)
	}
}

func TestReductions(t *testing.T) {
	a := FromRows([][]float64{{3, -4}})
	if a.Sum() != -1 {
		t.Fatal("sum")
	}
	if a.MaxAbs() != 4 {
		t.Fatal("maxabs")
	}
}

// Property: (A·B)ᵀ == Bᵀ·Aᵀ for random small matrices.
func TestQuickMatMulTransposeIdentity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, k, c := 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(6)
		a, b := New(r, k), New(k, c)
		a.RandUniform(rng, 2)
		b.RandUniform(rng, 2)
		lhs := MatMul(a, b).Transpose()
		rhs := MatMul(b.Transpose(), a.Transpose())
		return Equal(lhs, rhs, 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: SegmentMean preserves the column-wise weighted sum:
// Σ_s count_s · mean_s == Σ_rows.
func TestQuickSegmentMeanConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 1 + rng.Intn(20)
		segs := 1 + rng.Intn(5)
		a := New(rows, 3)
		a.RandUniform(rng, 2)
		idx := make([]int, rows)
		counts := make([]float64, segs)
		for i := range idx {
			idx[i] = rng.Intn(segs)
			counts[idx[i]]++
		}
		sm := SegmentMean(a, idx, segs)
		for j := 0; j < 3; j++ {
			var direct, viaMean float64
			for i := 0; i < rows; i++ {
				direct += a.At(i, j)
			}
			for s := 0; s < segs; s++ {
				viaMean += sm.At(s, j) * counts[s]
			}
			if math.Abs(direct-viaMean) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestXavierInitRange(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := New(10, 20)
	m.XavierInit(rng, 20, 10)
	bound := math.Sqrt(6.0 / 30)
	for _, v := range m.Data {
		if math.Abs(v) > bound {
			t.Fatalf("value %g exceeds Xavier bound %g", v, bound)
		}
	}
	if m.MaxAbs() == 0 {
		t.Fatal("Xavier produced all zeros")
	}
}
