//go:build !amd64

package tensor

// Without the amd64 assembly every kernel runs its scalar Go loops.

func hasAVX2FMA() bool { return false }

func tanhAVX2(dst, src *float64, n int) { panic("tensor: no vector kernels on this GOARCH") }

func quadAxpyAVX2(a0, a1, a2, a3 float64, b0, b1, b2, b3, o *float64, n int, set bool) int {
	panic("tensor: no vector kernels on this GOARCH")
}

func productRowAVX2(a *float64, k4 int, b *float64, n int, o *float64, n4 int) bool {
	panic("tensor: no vector kernels on this GOARCH")
}

func dotRowsAVX2(x *float64, k int, b *float64, m int, out *float64) bool {
	panic("tensor: no vector kernels on this GOARCH")
}
