// arena.go implements a size-classed scratch arena for matrices on the
// training hot path. Buffers are pooled by size class, so a pass over a
// graph of a different size reuses the buffers the previous graph left
// behind. Classes are exact up to 8 elements, then four per power of two,
// (4…7)·2^s, so a class is less than 1.25× any request it serves and the
// unused tail of a buffer stays under a quarter of its capacity. Each
// class is one sync.Pool in a fixed table indexed by arithmetic: a buffer
// is recycled across goroutines without a global lock and dropped by the
// GC under memory pressure (sync.Pool semantics) rather than pinned
// forever.
//
// Get reslices a pooled buffer to exactly rows×cols, so len(m.Data) is
// always rows·cols and no kernel sees the tail; Put files a buffer under
// the largest class its capacity covers. An arena buffer therefore goes
// back to its own class, a matrix built by New goes to its floor class,
// and a Get never reaches memory the Put matrix did not own.
//
// Ownership discipline: a matrix obtained from Get is owned by the caller
// until Put; after Put the buffer may be handed to any other Get of the
// same class, so retaining a reference past Put is an aliasing bug. The
// autodiff tape is the main client — it allocates every op output and
// gradient here and returns them in Tape.Reset.
package tensor

import (
	"math/bits"
	"sync"
)

// numClasses covers the class of any float64 slice length or capacity:
// classUp's and classDown's indices stay at most 4·(bits.UintSize−3)+4.
const numClasses = 4 * bits.UintSize

// pools[i] holds matrices whose capacity covers class i's size.
var pools [numClasses]sync.Pool

// classUp returns the index and size of the smallest class that holds
// n ≥ 1 elements. Indices are dense and increase with size.
func classUp(n int) (idx, size int) {
	if n <= 8 {
		return n, n
	}
	s := bits.Len(uint(n)) - 3
	m := (n + 1<<s - 1) >> s // ⌈n/2^s⌉ ∈ [4, 8]
	if m == 8 {
		m, s = 4, s+1
	}
	return 4*s + m, m << s
}

// classDown returns the index of the largest class no bigger than c ≥ 1.
func classDown(c int) int {
	if c <= 8 {
		return c
	}
	s := bits.Len(uint(c)) - 3
	return 4*s + c>>s
}

// Get returns a rows×cols matrix from the arena. The contents are
// UNSPECIFIED (stale data from a previous user); callers must fully
// overwrite it or use GetZeroed. Return it with Put when done.
func Get(rows, cols int) *Matrix {
	n := rows * cols
	if n <= 0 {
		return New(rows, cols)
	}
	idx, size := classUp(n)
	if v := pools[idx].Get(); v != nil {
		m := v.(*Matrix)
		m.Rows, m.Cols, m.Data = rows, cols, m.Data[:n]
		return m
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, n, size)}
}

// GetZeroed returns a zeroed rows×cols matrix from the arena.
func GetZeroed(rows, cols int) *Matrix {
	m := Get(rows, cols)
	m.Zero()
	return m
}

// Put returns a matrix to the arena. m must not be used afterwards. nil
// and empty matrices are ignored, so Put is safe on any Get result.
func Put(m *Matrix) {
	if m == nil || cap(m.Data) == 0 {
		return
	}
	pools[classDown(cap(m.Data))].Put(m)
}
