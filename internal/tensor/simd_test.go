package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The vector loops must reproduce the scalar loops bit for bit: these
// tests compare Float64bits, never a tolerance. On a CPU without
// AVX2+FMA only the scalar path exists and they skip.

func requireAVX2(t *testing.T) {
	t.Helper()
	if !useAVX2 {
		t.Skip("CPU lacks AVX2+FMA: only the scalar loops run")
	}
}

// scalarOnly runs f with the vector loops switched off.
func scalarOnly(f func()) {
	useAVX2 = false
	defer func() { useAVX2 = true }()
	f()
}

// halfMaxLog is math.tanh's ±1 cutoff, spelled as in math/tanh.go.
const halfMaxLog = 0.5 * 8.8029691931113054295988e+01

// specialValues holds signed zeros, infinities, NaNs of both signs with
// several payloads (quiet and signaling), subnormals and range extremes.
func specialValues() []float64 {
	bits := []uint64{
		0x0000000000000000, 0x8000000000000000, // ±0
		0x7ff0000000000000, 0xfff0000000000000, // ±Inf
		0x7ff8000000000000, 0xfff8000000000000, // quiet NaN
		0x7ff8000000000001, 0xfff800000000beef, // quiet NaN, payload
		0x7ff0000000000001, 0xfff4000000000000, // signaling NaN
		0x0000000000000001, 0x8000000000000001, // smallest subnormal
		0x000fffffffffffff, 0x800fffffffffffff, // largest subnormal
		0x0010000000000000, 0x8010000000000000, // smallest normal
		0x7fefffffffffffff, 0xffefffffffffffff, // ±MaxFloat64
		0x3ff0000000000000, 0xbff0000000000000, // ±1
	}
	v := make([]float64, len(bits))
	for i, b := range bits {
		v[i] = math.Float64frombits(b)
	}
	return v
}

// tanhInputs returns every tanh test input: the special values, the 2,000
// ulps on either side of both branch cutoffs (both signs), random values
// at scales from 1e-6 to 100, and a million random bit patterns.
func tanhInputs(rng *rand.Rand) []float64 {
	in := specialValues()
	for _, c := range []float64{0.625, halfMaxLog} {
		b := math.Float64bits(c)
		for d := uint64(0); d <= 2000; d++ {
			for _, u := range []uint64{b - d, b + d} {
				x := math.Float64frombits(u)
				in = append(in, x, -x)
			}
		}
	}
	for _, scale := range []float64{1e-6, 1e-3, 0.1, 1, 10, 100} {
		for i := 0; i < 20000; i++ {
			in = append(in, rng.NormFloat64()*scale)
		}
	}
	for i := 0; i < 1<<20; i++ {
		in = append(in, math.Float64frombits(rng.Uint64()))
	}
	return in
}

// oddSlice copies v into a fresh slice that starts at an odd element
// offset of its backing array, so no vector load is 32-byte aligned.
func oddSlice(v []float64) []float64 {
	buf := make([]float64, len(v)+3)
	s := buf[1 : 1+len(v)]
	copy(s, v)
	return s
}

func TestTanhRowMatchesMathTanh(t *testing.T) {
	requireAVX2(t)
	in := tanhInputs(rand.New(rand.NewSource(1)))
	want := make([]float64, len(in))
	for i, x := range in {
		want[i] = math.Tanh(x)
	}
	check := func(what string, got []float64, off int) {
		t.Helper()
		for i, g := range got {
			if w := want[off+i]; math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s: tanh(%v [%#016x]) = %#016x, math.Tanh gives %#016x",
					what, in[off+i], math.Float64bits(in[off+i]), math.Float64bits(g), math.Float64bits(w))
			}
		}
	}
	// Each special value in each of the four vector lanes.
	for i, v := range in[:len(specialValues())] {
		for lane := 0; lane < 4; lane++ {
			row := oddSlice([]float64{0.5, -3, 50, 1e-3})
			row[lane] = v
			src := oddSlice(row)
			tanhRow(row, row)
			for j, x := range src {
				if w := math.Tanh(x); math.Float64bits(row[j]) != math.Float64bits(w) {
					t.Fatalf("special %d in lane %d: tanh(%v) = %#016x, math.Tanh gives %#016x",
						i, lane, x, math.Float64bits(row[j]), math.Float64bits(w))
				}
			}
		}
	}
	// Walk the inputs in rows of every length 0–67, at odd offsets, once
	// into a separate dst and once in place.
	for off, row := 0, 0; off < len(in); off, row = off+row%68, row+1 {
		n := min(row%68, len(in)-off)
		src := oddSlice(in[off : off+n])
		dst := oddSlice(make([]float64, n))
		tanhRow(dst, src)
		check("dst != src", dst, off)
		tanhRow(src, src)
		check("dst == src", src, off)
	}
}

// valueDraw is one distribution of test values; rounds scales how many
// cases a test draws from it.
type valueDraw struct {
	name   string
	rounds int
	next   func() float64
}

// productDraws yields values for the product and dot tests: random values
// at each scale, random bit patterns, and draws from the special values
// (dense in NaNs and infinities, so two NaNs often meet in one sum).
func productDraws(rng *rand.Rand) []valueDraw {
	specials := specialValues()
	var draws []valueDraw
	for _, scale := range []float64{1e-6, 1e-3, 0.1, 1, 10, 100} {
		draws = append(draws, valueDraw{fmt.Sprintf("normal×%g", scale), 1,
			func() float64 { return rng.NormFloat64() * scale }})
	}
	return append(draws,
		valueDraw{"bits", 20, func() float64 { return math.Float64frombits(rng.Uint64()) }},
		valueDraw{"specials", 1, func() float64 { return specials[rng.Intn(len(specials))] }},
	)
}

func fillOdd(n int, next func() float64) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = next()
	}
	return oddSlice(v)
}

// requireSameBits fails unless got and want agree in every Float64bits.
func requireSameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d = %#016x, scalar path %#016x",
				what, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// TestQuadAxpyMatchesScalar covers quadAxpy and quadAxpySet at every
// length 0–67; the random bit patterns alone fill about seven million
// values.
func TestQuadAxpyMatchesScalar(t *testing.T) {
	requireAVX2(t)
	rng := rand.New(rand.NewSource(2))
	for _, d := range productDraws(rng) {
		for r := 0; r < 30*d.rounds; r++ {
			for n := 0; n <= 67; n++ {
				var a [4]float64
				var b [4][]float64
				for i := range a {
					a[i], b[i] = d.next(), fillOdd(n, d.next)
				}
				o := fillOdd(n, d.next)
				got, want := oddSlice(o), oddSlice(o)
				quadAxpy(a[0], a[1], a[2], a[3], b[0], b[1], b[2], b[3], got)
				scalarOnly(func() { quadAxpy(a[0], a[1], a[2], a[3], b[0], b[1], b[2], b[3], want) })
				requireSameBits(t, fmt.Sprintf("quadAxpy %s n=%d", d.name, n), got, want)
				quadAxpySet(a[0], a[1], a[2], a[3], b[0], b[1], b[2], b[3], got)
				scalarOnly(func() { quadAxpySet(a[0], a[1], a[2], a[3], b[0], b[1], b[2], b[3], want) })
				requireSameBits(t, fmt.Sprintf("quadAxpySet %s n=%d", d.name, n), got, want)
			}
		}
	}
}

// TestProductRowMatchesScalar covers productRow's whole-row vector loop,
// including its handover to the quad kernels at a NaN quad sum.
func TestProductRowMatchesScalar(t *testing.T) {
	requireAVX2(t)
	rng := rand.New(rand.NewSource(4))
	for _, d := range productDraws(rng) {
		for r := 0; r < 40*d.rounds; r++ {
			for n := 0; n <= 67; n++ {
				kk := rng.Intn(14)
				a, b := fillOdd(kk, d.next), fillOdd(kk*n, d.next)
				got, want := oddSlice(make([]float64, n)), oddSlice(make([]float64, n))
				productRow(a, b, n, got)
				scalarOnly(func() { productRow(a, b, n, want) })
				requireSameBits(t, fmt.Sprintf("productRow %s k=%d n=%d", d.name, kk, n), got, want)
			}
		}
	}
}

// TestDotRowsMatchScalar covers Dot (one row) and dotRows with one to
// nine rows, so both the four-row and the single-row vector loops run.
func TestDotRowsMatchScalar(t *testing.T) {
	requireAVX2(t)
	rng := rand.New(rand.NewSource(3))
	for _, d := range productDraws(rng) {
		for r := 0; r < 40*d.rounds; r++ {
			for k := 0; k <= 67; k++ {
				m := 1 + (r+k)%9
				x, b := fillOdd(k, d.next), fillOdd(m*k, d.next)
				got, want := oddSlice(make([]float64, m)), oddSlice(make([]float64, m))
				dotRows(x, b, got)
				scalarOnly(func() { dotRows(x, b, want) })
				what := fmt.Sprintf("dotRows %s k=%d m=%d", d.name, k, m)
				requireSameBits(t, what, got, want)
				requireSameBits(t, "Dot of "+what, []float64{Dot(x, b[:k])}, want[:1])
			}
		}
	}
}

// TestKernelsMatchScalarPath runs every exported kernel that reaches a
// vector loop with the loops on and off, on random shapes with remainder
// dimensions and values that reach all three tanh branches, and requires
// Float64bits-equal outputs.
func TestKernelsMatchScalarPath(t *testing.T) {
	requireAVX2(t)
	rng := rand.New(rand.NewSource(5))
	shapes := [][3]int{{9, 130, 37}, {5, 515, 259}, {33, 300, 70}}
	for trial := 0; trial < 30; trial++ {
		shapes = append(shapes, [3]int{1 + rng.Intn(40), 1 + rng.Intn(70), 1 + rng.Intn(40)})
	}
	for si, sh := range shapes {
		m, k, n := sh[0], sh[1], sh[2]
		scale := []float64{0.1, 1, 4}[si%3]
		mat := func(rows, cols int) *Matrix {
			x := New(rows, cols)
			x.RandUniform(rng, scale)
			return x
		}
		a, b, at, b2, bias, p := mat(m, k), mat(k, n), mat(k, m), mat(n, k), mat(1, n), mat(m, n)
		e := 1 + rng.Intn(3*m)
		idx := randIdx(rng, e, m)
		ge, add := mat(e, n), mat(e, n)
		lo := rng.Intn(k)
		hi := lo + rng.Intn(k-lo+1)
		y := mat(m, 1+rng.Intn(9))
		wc := mat(hi-lo+y.Cols, n)
		kernels := []struct {
			name string
			run  func() *Matrix
		}{
			{"MatMulInto", func() *Matrix { return MatMulInto(a, b, New(m, n)) }},
			{"MatMulInto(packed)", func() *Matrix { defer setPack(setPack(0)); return MatMulInto(a, b, New(m, n)) }},
			{"MatMulT1Into", func() *Matrix { return MatMulT1Into(at, b, New(m, n)) }},
			{"GatherMatMulT1Into", func() *Matrix { return GatherMatMulT1Into(a, idx, ge, New(k, n)) }},
			{"MatMulT2Into", func() *Matrix { return MatMulT2Into(a, b2, New(m, n)) }},
			{"MatMulT2BiasInto", func() *Matrix { return MatMulT2BiasInto(a, b2, bias, New(m, n)) }},
			{"MatMulT2BiasTanhInto", func() *Matrix { return MatMulT2BiasTanhInto(a, b2, bias, New(m, n)) }},
			{"ConcatMatMulTanhInto", func() *Matrix { return ConcatMatMulTanhInto(a, lo, hi, y, wc, New(m, n)) }},
			{"GatherAddTanhInto", func() *Matrix { return GatherAddTanhInto(p, idx, add, New(e, n)) }},
			{"GatherAddTanhInto(nil)", func() *Matrix { return GatherAddTanhInto(p, idx, nil, New(e, n)) }},
			{"TanhInto", func() *Matrix { return TanhInto(p, New(m, n)) }},
			{"TanhInto(aliased)", func() *Matrix { c := p.Clone(); return TanhInto(c, c) }},
		}
		for _, kc := range kernels {
			got := kc.run()
			var want *Matrix
			scalarOnly(func() { want = kc.run() })
			requireSameBits(t, fmt.Sprintf("%s %dx%dx%d", kc.name, m, k, n), got.Data, want.Data)
		}
	}
}
