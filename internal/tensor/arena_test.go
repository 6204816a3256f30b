package tensor

import (
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/parallel"
)

func TestArenaGetShapes(t *testing.T) {
	m := Get(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("Get(3,4) = %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	Put(m)
	// Same element count, different shape: the header must be reshaped.
	r := Get(2, 6)
	if r.Rows != 2 || r.Cols != 6 || len(r.Data) != 12 {
		t.Fatalf("Get(2,6) = %dx%d len %d", r.Rows, r.Cols, len(r.Data))
	}
	Put(r)
}

func TestArenaGetZeroed(t *testing.T) {
	m := Get(5, 5)
	for i := range m.Data {
		m.Data[i] = 42
	}
	Put(m)
	z := GetZeroed(5, 5)
	for i, v := range z.Data {
		if v != 0 {
			t.Fatalf("GetZeroed element %d = %g", i, v)
		}
	}
	Put(z)
}

func TestArenaEmptyAndNil(t *testing.T) {
	Put(nil) // must not panic
	e := Get(0, 3)
	if e.Rows != 0 || e.Cols != 3 {
		t.Fatalf("Get(0,3) = %dx%d", e.Rows, e.Cols)
	}
	Put(e) // empty matrices are ignored, must not panic
}

func TestArenaOutstandingBuffersDontAlias(t *testing.T) {
	a := Get(4, 4)
	b := Get(4, 4)
	if &a.Data[0] == &b.Data[0] {
		t.Fatal("two outstanding Gets share a backing slice")
	}
	for i := range a.Data {
		a.Data[i] = 1
	}
	for i := range b.Data {
		b.Data[i] = 2
	}
	for i := range a.Data {
		if a.Data[i] != 1 {
			t.Fatalf("write to b clobbered a at %d", i)
		}
	}
	Put(a)
	Put(b)
}

func TestArenaClassArithmetic(t *testing.T) {
	prevIdx, prevSize := 0, 0
	for n := 1; n <= 1<<16; n++ {
		idx, size := classUp(n)
		if size < n || (n > 8 && float64(size) >= 1.25*float64(n)) {
			t.Fatalf("classUp(%d) size %d: want n ≤ size < 1.25·n", n, size)
		}
		// Indices are dense and monotone: n either stays in the previous
		// class or opens the next index.
		if size == prevSize && idx != prevIdx || size != prevSize && idx != prevIdx+1 {
			t.Fatalf("classUp(%d) = index %d size %d after index %d size %d", n, idx, size, prevIdx, prevSize)
		}
		prevIdx, prevSize = idx, size
		// A class size maps to itself in both directions; any other
		// capacity files under the class below, the largest it covers.
		if i, sz := classUp(size); i != idx || sz != size || classDown(size) != idx {
			t.Fatalf("class size %d maps to classUp index %d size %d, classDown %d; want index %d", size, i, sz, classDown(size), idx)
		}
		if size != n && classDown(n) != idx-1 {
			t.Fatalf("classDown(%d) = %d, want %d", n, classDown(n), idx-1)
		}
	}
	// The largest ints stay inside the table.
	if idx, _ := classUp(math.MaxInt >> 3); idx >= numClasses {
		t.Fatalf("classUp index %d, table has %d", idx, numClasses)
	}
	if d := classDown(math.MaxInt); d >= numClasses {
		t.Fatalf("classDown(MaxInt) = %d, table has %d", d, numClasses)
	}
}

// TestArenaReusesAcrossSizes pins the point of size classes: a buffer
// returned after Get(1000) serves a Get(900) of the same class, resliced
// to exactly 900 elements. sync.Pool may drop any Put (it does so at
// random under -race), so the test retries until one reuse is seen.
func TestArenaReusesAcrossSizes(t *testing.T) {
	for try := 0; try < 100; try++ {
		a := Get(1000, 1)
		first := &a.Data[0]
		Put(a)
		b := Get(900, 1)
		if b.Rows != 900 || b.Cols != 1 || len(b.Data) != 900 {
			t.Fatalf("Get(900,1) = %dx%d len %d", b.Rows, b.Cols, len(b.Data))
		}
		reused := &b.Data[0] == first
		Put(b)
		if reused {
			return
		}
	}
	t.Fatal("a Get(900) never reused the buffer a Get(1000) returned")
}

// TestArenaFilesByCapacity pins Put's filing rule on a matrix the arena
// did not make: New(1, 9) has capacity 9, between the classes of size 8
// and 10, so it goes to class 8. It may serve a Get(1, 8) but never a
// Get(1, 10), which would reach past its capacity.
func TestArenaFilesByCapacity(t *testing.T) {
	for try := 0; try < 100; try++ {
		m := New(1, 9)
		Put(m)
		big := Get(1, 10)
		if &big.Data[0] == &m.Data[0] {
			t.Fatal("a 9-element matrix served Get(1, 10)")
		}
		small := Get(1, 8)
		reused := &small.Data[0] == &m.Data[0]
		Put(big)
		Put(small)
		if reused {
			return
		}
	}
	t.Fatal("a Get(1, 8) never reused a returned 9-element matrix")
}

// TestArenaConcurrentGetPut hammers the arena from parallel workers; under
// -race this verifies pooled buffers are never handed to two goroutines at
// once. The mixed case draws sizes that share classes, so buffers also
// move between sizes while workers race, and every Get must come back
// exactly rows×cols long.
func TestArenaConcurrentGetPut(t *testing.T) {
	for _, tc := range []struct {
		name  string
		shape func(rng *rand.Rand) (rows, cols int)
	}{
		{"one size", func(*rand.Rand) (int, int) { return 8, 8 }},
		{"mixed sizes", func(rng *rand.Rand) (int, int) { return 1 + rng.Intn(40), 1 + rng.Intn(40) }},
	} {
		var bad atomic.Int64
		err := parallel.ForEach(64, 0, func(_, w int) error {
			rng := rand.New(rand.NewSource(int64(w)))
			for iter := 0; iter < 200; iter++ {
				rows, cols := tc.shape(rng)
				m := Get(rows, cols)
				if m.Rows != rows || m.Cols != cols || len(m.Data) != rows*cols {
					bad.Add(1)
				}
				val := float64(w*1000 + iter)
				for i := range m.Data {
					m.Data[i] = val
				}
				for i := range m.Data {
					if m.Data[i] != val {
						bad.Add(1)
					}
				}
				Put(m)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if n := bad.Load(); n != 0 {
			t.Fatalf("%s: %d elements clobbered or misshapen while a buffer was owned", tc.name, n)
		}
	}
}

// Naive reference kernels (ascending-k scalar accumulation). The blocked
// production kernels use a different — but fixed — accumulation order, so
// products are compared within a tight tolerance here; bitwise
// determinism of the blocked kernels themselves is covered by
// kernels_test.go.

func refMatMul(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += a.Data[i*a.Cols+k] * b.Data[k*b.Cols+j]
			}
			out.Data[i*b.Cols+j] = s
		}
	}
	return out
}

func refMatMulT1(a, b *Matrix) *Matrix {
	out := New(a.Cols, b.Cols)
	for k := 0; k < a.Cols; k++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for i := 0; i < a.Rows; i++ {
				s += a.Data[i*a.Cols+k] * b.Data[i*b.Cols+j]
			}
			out.Data[k*b.Cols+j] = s
		}
	}
	return out
}

func refMatMulT2(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += a.Data[i*a.Cols+k] * b.Data[j*b.Cols+k]
			}
			out.Data[i*b.Rows+j] = s
		}
	}
	return out
}

func mustEqual(t *testing.T, name string, got, want *Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", name, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if math.Abs(got.Data[i]-want.Data[i]) > 1e-12*(1+math.Abs(want.Data[i])) {
			t.Fatalf("%s: element %d = %g, want %g", name, i, got.Data[i], want.Data[i])
		}
	}
}

func TestIntoKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Small shapes take the serial path; the large ones cross
	// parallelThreshold (2^16 flops) and exercise the row-blocked fan-out.
	for _, sz := range []struct{ m, k, n int }{{5, 7, 3}, {64, 80, 96}} {
		a := New(sz.m, sz.k)
		b := New(sz.k, sz.n)
		a.RandUniform(rng, 1)
		b.RandUniform(rng, 1)
		mustEqual(t, "MatMulInto", MatMulInto(a, b, Get(sz.m, sz.n)), refMatMul(a, b))

		at := New(sz.k, sz.m) // for T1: (k×m)ᵀ·(k×n)
		bt := New(sz.k, sz.n)
		at.RandUniform(rng, 1)
		bt.RandUniform(rng, 1)
		mustEqual(t, "MatMulT1Into", MatMulT1Into(at, bt, Get(sz.m, sz.n)), refMatMulT1(at, bt))

		a2 := New(sz.m, sz.k) // for T2: (m×k)·(n×k)ᵀ
		b2 := New(sz.n, sz.k)
		a2.RandUniform(rng, 1)
		b2.RandUniform(rng, 1)
		mustEqual(t, "MatMulT2Into", MatMulT2Into(a2, b2, Get(sz.m, sz.n)), refMatMulT2(a2, b2))
	}
}

func TestIntoKernelsSafeOnDirtyArenaMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := New(6, 6)
	b := New(6, 7)
	a.RandUniform(rng, 1)
	b.RandUniform(rng, 1)
	want := refMatMul(a, b)
	for _, tc := range []struct {
		name       string
		rows, cols int // shape of the poisoned buffer
	}{
		{"same size", 6, 7},
		// 48 and 42 elements share the class of size 48, so the 6×7 Get
		// sees the first 42 poisoned elements and 6 more of slack.
		{"larger buffer of the same class", 6, 8},
	} {
		// Poison a pooled buffer over its whole capacity, return it, and
		// reuse it as a destination: every Into kernel must fully define
		// dst, and the slack beyond rows×cols must stay out of reach.
		// sync.Pool may drop the Put, so retry until the buffer comes back.
		var dst *Matrix
		for try := 0; try < 100 && dst == nil; try++ {
			dirty := Get(tc.rows, tc.cols)
			full := dirty.Data[:cap(dirty.Data)]
			for i := range full {
				full[i] = 1e300
			}
			Put(dirty)
			if m := Get(6, 7); &m.Data[0] == &full[0] {
				dst = m
			} else {
				Put(m)
			}
		}
		if dst == nil {
			t.Fatalf("%s: the poisoned buffer never came back", tc.name)
		}
		if len(dst.Data) != 42 {
			t.Fatalf("%s: Get(6,7) len %d, want 42", tc.name, len(dst.Data))
		}
		mustEqual(t, "MatMulInto on dirty dst, "+tc.name, MatMulInto(a, b, dst), want)
		for i, v := range dst.Data[42:cap(dst.Data)] {
			if v != 1e300 {
				t.Fatalf("%s: kernel wrote slack element %d", tc.name, 42+i)
			}
		}
		Put(dst)
	}
}

func TestElementwiseIntoAliasing(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := New(4, 5)
	b := New(4, 5)
	a.RandUniform(rng, 1)
	b.RandUniform(rng, 1)
	want := AddInto(a, b, New(4, 5))
	got := a.Clone()
	AddInto(got, b, got) // dst aliases a
	mustEqual(t, "AddInto aliased", got, want)

	wantS := ScaleInto(a, 2.5, New(4, 5))
	gotS := a.Clone()
	ScaleInto(gotS, 2.5, gotS)
	mustEqual(t, "ScaleInto aliased", gotS, wantS)
}

func TestSegmentMeanParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const rows, cols, segments = 1100, 64, 17 // rows*cols ≥ 2^16 → parallel path
	a := New(rows, cols)
	a.RandUniform(rng, 1)
	seg := make([]int, rows)
	for i := range seg {
		seg[i] = rng.Intn(segments - 1) // segment 16 stays empty
	}
	got := SegmentMeanInto(a, seg, segments, Get(segments, cols))
	// Reference: ascending-row accumulation then one multiply by 1/count —
	// the exact order both the serial and parallel kernels use.
	want := New(segments, cols)
	counts := make([]float64, segments)
	for i, s := range seg {
		counts[s]++
		for j := 0; j < cols; j++ {
			want.Data[s*cols+j] += a.Data[i*cols+j]
		}
	}
	for s := range counts {
		if counts[s] == 0 {
			continue
		}
		inv := 1 / counts[s]
		for j := 0; j < cols; j++ {
			want.Data[s*cols+j] *= inv
		}
	}
	mustEqual(t, "SegmentMeanInto parallel", got, want)
	for j := 0; j < cols; j++ {
		if got.Data[16*cols+j] != 0 {
			t.Fatal("empty segment not zeroed")
		}
	}
	Put(got)
}

func TestScatterAddRowsParMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const rows, cols, dstRows = 1100, 64, 50 // rows*cols ≥ 2^16 → parallel path
	src := New(rows, cols)
	src.RandUniform(rng, 1)
	idx := make([]int, rows)
	for i := range idx {
		idx[i] = rng.Intn(dstRows)
	}
	base := New(dstRows, cols)
	base.RandUniform(rng, 1)

	want := base.Clone()
	ScatterAddRows(want, src, idx)
	got := base.Clone()
	ScatterAddRowsPar(got, src, idx)
	mustEqual(t, "ScatterAddRowsPar", got, want)
}

func TestIntoShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on wrong dst shape")
		}
	}()
	MatMulInto(New(2, 3), New(3, 4), New(2, 5))
}
