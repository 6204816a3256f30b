package tensor

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// segBuckets builds the CSR bucket structure for a segment vector with the
// same counting sort bucketByKey uses (ascending members per bucket).
func segBuckets(seg []int, segments int) ([]int32, []int) {
	offs := make([]int32, segments+1)
	for _, s := range seg {
		offs[s+1]++
	}
	for b := 0; b < segments; b++ {
		offs[b+1] += offs[b]
	}
	members := make([]int, len(seg))
	cursor := append([]int32(nil), offs[:segments]...)
	for i, s := range seg {
		members[cursor[s]] = i
		cursor[s]++
	}
	return offs, members
}

func mustBitEqual(t *testing.T, name string, got, want *Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", name, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: element %d = %v, want %v (bits differ)", name, i, got.Data[i], want.Data[i])
		}
	}
}

// csrShapes covers serial and parallel paths, remainder column counts, and
// sparsely populated segment spaces (empty buckets).
var csrShapes = []struct {
	rows, cols, segments int
}{
	{7, 5, 4},
	{64, 3, 70}, // more segments than rows → many empty buckets
	{300, 24, 40},
	{1100, 64, 17}, // rows*cols ≥ 2^16 → parallel path
	{3000, 31, 9},  // remainder cols on the parallel path
}

func TestSegmentMeanCSRBitIdenticalToSegVector(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, sh := range csrShapes {
		rng := rand.New(rand.NewSource(int64(sh.rows)))
		a := New(sh.rows, sh.cols)
		a.RandUniform(rng, 1)
		seg := make([]int, sh.rows)
		for i := range seg {
			seg[i] = rng.Intn(sh.segments)
		}
		want := SegmentMeanInto(a, seg, sh.segments, New(sh.segments, sh.cols))
		offs, members := segBuckets(seg, sh.segments)
		for _, procs := range []int{1, runtime.NumCPU()} {
			runtime.GOMAXPROCS(procs)
			got := SegmentMeanCSRInto(a, offs, members, New(sh.segments, sh.cols))
			mustBitEqual(t, "SegmentMeanCSRInto", got, want)
		}
	}
}

func TestScatterAddRowsCSRBitIdenticalToPar(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, sh := range csrShapes {
		rng := rand.New(rand.NewSource(int64(sh.rows + 1)))
		src := New(sh.rows, sh.cols)
		src.RandUniform(rng, 1)
		idx := make([]int, sh.rows)
		for i := range idx {
			idx[i] = rng.Intn(sh.segments)
		}
		base := New(sh.segments, sh.cols)
		base.RandUniform(rng, 1)
		want := base.Clone()
		ScatterAddRowsPar(want, src, idx)
		offs, members := segBuckets(idx, sh.segments)
		for _, procs := range []int{1, runtime.NumCPU()} {
			runtime.GOMAXPROCS(procs)
			got := base.Clone()
			ScatterAddRowsCSR(got, src, offs, members)
			mustBitEqual(t, "ScatterAddRowsCSR", got, want)
		}
	}
}

// TestGatherSegMeanCSRBitIdenticalToUnfused pins the gather-add-tanh
// kernel, fed the node projection MatMulInto(h, b), against the per-edge
// GatherMatMulAddTanhInto it replaces, row for row, and the CSR mean over
// its messages against the mean of the per-edge messages, empty buckets
// and never-gathered nodes included. The node projection runs on both the
// unpacked and the cache-blocked packed product path (K > kcPanel spans
// two panels), since MatMulInto picks the latter for wide weights.
func TestGatherSegMeanCSRBitIdenticalToUnfused(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	defer setPack(packMinElems)
	shapes := []struct{ nodes, edges, k, m, segments int }{
		{6, 9, 5, 3, 6},
		{40, 120, 12, 7, 40}, // remainder dims
		{200, 900, 48, 24, 200},
		{500, 3000, 24, 24, 500},  // parallel path (3000·24 ≥ 2^16)
		{300, 2800, 134, 31, 300}, // two k panels, remainder cols, parallel
	}
	for _, sh := range shapes {
		rng := rand.New(rand.NewSource(int64(sh.edges)))
		h := New(sh.nodes, sh.k)
		h.RandUniform(rng, 1)
		b := New(sh.k, sh.m)
		b.RandUniform(rng, 1)
		add := New(sh.edges, sh.m)
		add.RandUniform(rng, 1)
		idx := make([]int, sh.edges)
		seg := make([]int, sh.edges)
		for e := range idx {
			idx[e] = rng.Intn(sh.nodes - 1)    // the last node is never gathered
			seg[e] = rng.Intn(sh.segments - 1) // last segment stays empty
		}
		offs, members := segBuckets(seg, sh.segments)
		for _, withAdd := range []bool{true, false} {
			am := add
			if !withAdd {
				am = nil
			}
			msg := GatherMatMulAddTanhInto(h, idx, b, am, New(sh.edges, sh.m))
			want := SegmentMeanCSRInto(msg, offs, members, New(sh.segments, sh.m))
			for _, pack := range []int{1 << 62, 0} { // never pack, always pack
				setPack(pack)
				for _, procs := range []int{1, runtime.NumCPU()} {
					runtime.GOMAXPROCS(procs)
					proj := MatMulInto(h, b, New(sh.nodes, sh.m))
					got := GatherAddTanhInto(proj, idx, am, New(sh.edges, sh.m))
					mustBitEqual(t, "GatherAddTanhInto", got, msg)
					mustBitEqual(t, "SegmentMeanCSRInto", SegmentMeanCSRInto(got, offs, members, New(sh.segments, sh.m)), want)
				}
			}
		}
	}
}

func TestCSRKernelRejectsBadBuckets(t *testing.T) {
	for _, fn := range []func(){
		func() { SegmentMeanCSRInto(New(3, 2), []int32{0, 1, 3}, []int{0, 1}, New(2, 2)) }, // offsets don't cover members
		func() { SegmentMeanCSRInto(New(3, 2), []int32{0, 1, 2}, []int{0, 5}, New(2, 2)) }, // member out of range
		func() { ScatterAddRowsCSR(New(2, 2), New(3, 2), []int32{0, 1, 2}, []int{0, 9}) },  // member out of range
		func() { ScatterAddRowsCSR(New(3, 2), New(3, 2), []int32{0, 1, 2}, []int{0, 1}) },  // dst rows vs buckets
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic on malformed CSR buckets")
				}
			}()
			fn()
		}()
	}
}
