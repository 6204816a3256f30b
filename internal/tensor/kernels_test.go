package tensor

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// Naive references for the fused kernels (scalar ascending-k loops).

func naiveGatherMatMul(a *Matrix, idx []int, b *Matrix) *Matrix {
	g := GatherRowsInto(a, idx, New(len(idx), a.Cols))
	out := New(len(idx), b.Cols)
	for i := 0; i < g.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < g.Cols; k++ {
				s += g.Data[i*g.Cols+k] * b.Data[k*b.Cols+j]
			}
			out.Data[i*b.Cols+j] = s
		}
	}
	return out
}

func approxEqual(t *testing.T, name string, got, want *Matrix, tol float64) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", name, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if math.Abs(got.Data[i]-want.Data[i]) > tol*(1+math.Abs(want.Data[i])) {
			t.Fatalf("%s: element %d = %g, want %g", name, i, got.Data[i], want.Data[i])
		}
	}
}

func randMat(rng *rand.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	m.RandUniform(rng, 1)
	return m
}

func randIdx(rng *rand.Rand, n, max int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = rng.Intn(max)
	}
	return idx
}

// TestBlockedKernelsMatchNaive is the property test for every blocked /
// fused product kernel: randomized shapes, deliberately including
// dimensions that are not multiples of the 4× unroll factor or the panel
// sizes, compared against scalar references within a tight tolerance.
func TestBlockedKernelsMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const tol = 1e-12
	shapes := [][3]int{
		{1, 1, 1}, {2, 3, 2}, {3, 4, 5}, {5, 7, 3}, {4, 8, 4},
		{6, 6, 6}, {7, 9, 11}, {13, 5, 17}, {33, 2, 9}, {1, 100, 1},
	}
	// Plus randomized shapes with remainder dims in every position.
	for trial := 0; trial < 20; trial++ {
		shapes = append(shapes, [3]int{1 + rng.Intn(60), 1 + rng.Intn(60), 1 + rng.Intn(60)})
	}
	for _, sh := range shapes {
		m, k, n := sh[0], sh[1], sh[2]
		a := randMat(rng, m, k)
		b := randMat(rng, k, n)
		approxEqual(t, "MatMulInto", MatMulInto(a, b, Get(m, n)), refMatMul(a, b), tol)

		at := randMat(rng, k, m)
		approxEqual(t, "MatMulT1Into", MatMulT1Into(at, b, Get(m, n)), refMatMulT1(at, b), tol)

		b2 := randMat(rng, n, k)
		approxEqual(t, "MatMulT2Into", MatMulT2Into(a, b2, Get(m, n)), refMatMulT2(a, b2), tol)

		// Fused tanh: tanh of the naive product.
		want := refMatMul(a, b)
		for i, v := range want.Data {
			want.Data[i] = math.Tanh(v)
		}
		approxEqual(t, "MatMulTanhInto", MatMulTanhInto(a, b, Get(m, n)), want, tol)

		// Gather fusion: random edge list over a's rows.
		e := 1 + rng.Intn(3*m)
		idx := randIdx(rng, e, m)

		add := randMat(rng, e, n)
		wantG := naiveGatherMatMul(a, idx, b)
		for i, v := range wantG.Data {
			wantG.Data[i] = math.Tanh(v + add.Data[i])
		}
		approxEqual(t, "GatherMatMulAddTanhInto",
			GatherMatMulAddTanhInto(a, idx, b, add, Get(e, n)), wantG, tol)

		wantG2 := naiveGatherMatMul(a, idx, b)
		for i, v := range wantG2.Data {
			wantG2.Data[i] = math.Tanh(v)
		}
		approxEqual(t, "GatherMatMulAddTanhInto(nil)",
			GatherMatMulAddTanhInto(a, idx, b, nil, Get(e, n)), wantG2, tol)

		// Gather-T1: gather(a, idx)ᵀ·g == T1 of the materialized gather.
		gm := randMat(rng, e, n)
		gathered := GatherRowsInto(a, idx, New(e, a.Cols))
		approxEqual(t, "GatherMatMulT1Into",
			GatherMatMulT1Into(a, idx, gm, Get(k, n)), refMatMulT1(gathered, gm), tol)

		// Affine: x·wᵀ + bias, with and without the tanh epilogue.
		w := randMat(rng, n, k)
		bias := randMat(rng, 1, n)
		wantAff := refMatMulT2(a, w)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				wantAff.Data[i*n+j] += bias.Data[j]
			}
		}
		approxEqual(t, "MatMulT2BiasInto", MatMulT2BiasInto(a, w, bias, Get(m, n)), wantAff, tol)
		wantAffT := wantAff.Clone()
		for i, v := range wantAffT.Data {
			wantAffT.Data[i] = math.Tanh(v)
		}
		approxEqual(t, "MatMulT2BiasTanhInto", MatMulT2BiasTanhInto(a, w, bias, Get(m, n)), wantAffT, tol)
	}
}

// TestPackedPathMatchesUnpacked forces the cache-blocked packed MatMul on
// shapes that would normally take the plain path and asserts bitwise
// equality: the panel sizes are multiples of the unroll factor, so the
// two paths share one accumulation order.
func TestPackedPathMatchesUnpacked(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	saved := packMinElems
	defer func() { packMinElems = saved }()
	for _, sh := range [][3]int{{9, 130, 37}, {33, 300, 270}, {5, 515, 259}, {64, 48, 24}} {
		m, k, n := sh[0], sh[1], sh[2]
		a := randMat(rng, m, k)
		b := randMat(rng, k, n)
		packMinElems = 1 << 62
		plain := MatMulInto(a, b, New(m, n))
		packMinElems = 0
		packed := MatMulInto(a, b, New(m, n))
		for i := range plain.Data {
			if plain.Data[i] != packed.Data[i] {
				t.Fatalf("%dx%dx%d: packed path diverges at %d: %g vs %g",
					m, k, n, i, packed.Data[i], plain.Data[i])
			}
		}
	}
}

// TestKernelDeterminism runs each blocked kernel repeatedly on the same
// inputs — including across different GOMAXPROCS values, which changes
// the parallel chunking — and requires byte-identical output every time.
func TestKernelDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	// Big enough to cross parallelThreshold and engage the fan-out.
	m, k, n := 120, 70, 50
	a := randMat(rng, m, k)
	b := randMat(rng, k, n)
	at := randMat(rng, k, m)
	b2 := randMat(rng, n, k)
	idx := randIdx(rng, 300, m)
	add := randMat(rng, 300, n)

	type run func() *Matrix
	kernels := map[string]run{
		"MatMulInto":           func() *Matrix { return MatMulInto(a, b, New(m, n)) },
		"MatMulT1Into":         func() *Matrix { return MatMulT1Into(at, b, New(m, n)) },
		"MatMulT2Into":         func() *Matrix { return MatMulT2Into(a, b2, New(m, n)) },
		"MatMulTanhInto":       func() *Matrix { return MatMulTanhInto(a, b, New(m, n)) },
		"GatherMatMulAddTanh":  func() *Matrix { return GatherMatMulAddTanhInto(a, idx, b, add, New(300, n)) },
		"GatherMatMulT1Into":   func() *Matrix { return GatherMatMulT1Into(a, idx, add, New(k, n)) },
		"MatMulT2BiasTanhInto": func() *Matrix { return MatMulT2BiasTanhInto(a, randSeeded(n, k), randSeeded1(n), New(m, n)) },
		"MatMulInto(packed)":   func() *Matrix { defer setPack(setPack(0)); return MatMulInto(a, b, New(m, n)) },
	}
	saved := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(saved)
	for name, fn := range kernels {
		runtime.GOMAXPROCS(saved)
		base := fn()
		for rep := 0; rep < 3; rep++ {
			got := fn()
			for i := range base.Data {
				if math.Float64bits(got.Data[i]) != math.Float64bits(base.Data[i]) {
					t.Fatalf("%s: rerun %d differs at element %d", name, rep, i)
				}
			}
		}
		for _, procs := range []int{1, 4, 8} {
			runtime.GOMAXPROCS(procs)
			got := fn()
			for i := range base.Data {
				if math.Float64bits(got.Data[i]) != math.Float64bits(base.Data[i]) {
					t.Fatalf("%s: GOMAXPROCS=%d differs at element %d", name, procs, i)
				}
			}
		}
	}
}

// setPack swaps packMinElems and returns the old value (defer-friendly).
func setPack(v int) int {
	old := packMinElems
	packMinElems = v
	return old
}

// randSeeded/randSeeded1 return fixed pseudo-random matrices so map-ordered
// kernel closures in TestKernelDeterminism stay self-consistent.
func randSeeded(rows, cols int) *Matrix { return randMat(rand.New(rand.NewSource(5)), rows, cols) }
func randSeeded1(cols int) *Matrix      { return randMat(rand.New(rand.NewSource(6)), 1, cols) }

// TestActivationIntoKernels checks the specialized activation loops and
// their gradient kernels against direct formulas, including aliasing
// (dst == src) for the forward loops.
func TestActivationIntoKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randMat(rng, 7, 13)
	g := randMat(rng, 7, 13)

	tanh := TanhInto(a, New(7, 13))
	sig := SigmoidInto(a, New(7, 13))
	relu := ReLUInto(a, New(7, 13))
	for i, x := range a.Data {
		if want := 1 / (1 + math.Exp(-x)); sig.Data[i] != want {
			t.Fatalf("SigmoidInto[%d]", i)
		}
		if want := math.Max(x, 0); relu.Data[i] != want {
			t.Fatalf("ReLUInto[%d]", i)
		}
	}

	tg := TanhGradInto(g, tanh, New(7, 13))
	sg := SigmoidGradInto(g, sig, New(7, 13))
	rg := ReLUGradInto(g, a, New(7, 13))
	for i := range a.Data {
		if want := g.Data[i] * (1 - tanh.Data[i]*tanh.Data[i]); tg.Data[i] != want {
			t.Fatalf("TanhGradInto[%d]", i)
		}
		if want := g.Data[i] * sig.Data[i] * (1 - sig.Data[i]); sg.Data[i] != want {
			t.Fatalf("SigmoidGradInto[%d]", i)
		}
		want := g.Data[i]
		if a.Data[i] <= 0 {
			want = 0
		}
		if rg.Data[i] != want {
			t.Fatalf("ReLUGradInto[%d]", i)
		}
	}

	// TanhInto is math.Tanh bit for bit at every length 0–67, out of place
	// and aliased (dst == src), on values that reach all three branches.
	for n := 0; n <= 67; n++ {
		x := New(1, n)
		for i := range x.Data {
			x.Data[i] = rng.NormFloat64() * []float64{0.3, 3, 30}[i%3]
		}
		out := TanhInto(x, New(1, n))
		in := x.Clone()
		TanhInto(in, in)
		for i, v := range x.Data {
			want := math.Float64bits(math.Tanh(v))
			if math.Float64bits(out.Data[i]) != want || math.Float64bits(in.Data[i]) != want {
				t.Fatalf("TanhInto(n=%d)[%d] = %#016x (aliased %#016x), math.Tanh %#016x", n, i,
					math.Float64bits(out.Data[i]), math.Float64bits(in.Data[i]), want)
			}
		}
	}
}

// dotRef is Dot's specified order: four lanes over the multiple-of-4
// prefix, reduced as (s0+s1)+(s2+s3), then the remainder in order.
func dotRef(x, y []float64) float64 {
	var lane [4]float64
	k := 0
	for ; k+4 <= len(x); k += 4 {
		for l := range lane {
			lane[l] += x[k+l] * y[k+l]
		}
	}
	s := (lane[0] + lane[1]) + (lane[2] + lane[3])
	for ; k < len(x); k++ {
		s += x[k] * y[k]
	}
	return s
}

// TestMicroKernels covers Dot / Axpy / ColSumsInto on remainder lengths.
func TestMicroKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for n := 0; n <= 67; n++ {
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
		}
		if got, want := Dot(x, y), dotRef(x, y); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Dot(n=%d) = %#016x, want %#016x", n, math.Float64bits(got), math.Float64bits(want))
		}
		y2 := append([]float64(nil), y...)
		Axpy(0.5, x, y2)
		for i := range y2 {
			if want := y[i] + 0.5*x[i]; y2[i] != want {
				t.Fatalf("Axpy(n=%d)[%d] = %g, want %g", n, i, y2[i], want)
			}
		}
	}
	a := randMat(rng, 6, 9)
	cs := ColSumsInto(a, New(1, 9))
	for j := 0; j < 9; j++ {
		var want float64
		for i := 0; i < 6; i++ {
			want += a.Data[i*9+j]
		}
		if math.Abs(cs.Data[j]-want) > 1e-12 {
			t.Fatalf("ColSumsInto[%d] = %g, want %g", j, cs.Data[j], want)
		}
	}
}
