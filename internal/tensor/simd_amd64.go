package tensor

// hasAVX2FMA reports whether the CPU and the OS support the AVX2+FMA
// loops in simd_amd64.s: CPUID leaf 1 for FMA, OSXSAVE and AVX, XGETBV
// for the OS saving XMM and YMM state, and leaf 7 for AVX2. On such a CPU
// math.Exp also takes its FMA path (math/exp_amd64.go), the one tanhAVX2
// copies.
func hasAVX2FMA() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const fma, osxsave, avx = 1 << 12, 1 << 27, 1 << 28
	if _, _, ecx1, _ := cpuid(1, 0); ecx1&(fma|osxsave|avx) != fma|osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// The vector loops below run the IEEE operations of their scalar
// counterparts in kernels.go in the same order (simd_amd64.s). In tanhAVX2
// and quadAxpyAVX2, n is a positive multiple of 4.

// tanhAVX2 sets dst[i] = math.Tanh(src[i]) for i < n; dst may equal src.
//
//go:noescape
func tanhAVX2(dst, src *float64, n int)

// quadAxpyAVX2 is the vector body of quadAxpy over o[:n], or of
// quadAxpySet if set. It stops before the first four columns whose quad
// sum has a NaN lane and returns the number of columns it finished.
//
//go:noescape
func quadAxpyAVX2(a0, a1, a2, a3 float64, b0, b1, b2, b3, o *float64, n int, set bool) int

// productRowAVX2 runs productRow's k-quads [0, k4) over the columns
// [0, n4) of o, b row-major with n columns. It returns false at the first
// quad sum with a NaN lane, leaving o[:n4] partly written.
//
//go:noescape
func productRowAVX2(a *float64, k4 int, b *float64, n int, o *float64, n4 int) (ok bool)

// dotRowsAVX2 sets out[j] = Dot(x[:k], b[j*k:(j+1)*k]) for j < m, k and m
// at least 1, and reports whether any out[j] is NaN.
//
//go:noescape
func dotRowsAVX2(x *float64, k int, b *float64, m int, out *float64) (nan bool)
