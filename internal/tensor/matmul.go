package tensor

import (
	"fmt"
	"runtime"
	"sync"
)

// parallelThreshold is the minimum number of multiply-accumulates before a
// kernel fans out across goroutines; below it the goroutine spawn/join
// overhead (microseconds) dominates the arithmetic. Tuned against the
// batch-parallel convolution call sites: per-sample lowering work inside a
// conv layer routinely lands in the 100K–1M MAC range, and fan-out pays off
// once at least two workers get ~a quarter-million MACs each.
const parallelThreshold = 512 * 1024

// matmulJTile is the column-tile width (in float32 elements, 1 KiB per row
// tile) for the blocked MatMul/MatMulTransA kernels. Tiling the j-loop keeps
// one output-row tile plus one B-row tile resident in L1 across the whole
// k-sweep, and lets the k×matmulJTile panel of B be reused by every output
// row in a worker's range instead of being re-streamed from memory.
const matmulJTile = 256

// ParallelChunkCount reports how many contiguous chunks ParallelChunks will
// split [0, rows) into for the given total work: 1 when the work is below
// the parallel threshold, otherwise up to GOMAXPROCS. Callers that need
// per-chunk scratch buffers size them with this.
func ParallelChunkCount(rows, work int) int {
	workers := runtime.GOMAXPROCS(0)
	if workers > rows {
		workers = rows
	}
	if workers <= 1 || work < parallelThreshold {
		return 1
	}
	span := (rows + workers - 1) / workers
	return (rows + span - 1) / span
}

// ParallelChunks partitions [0, rows) into ParallelChunkCount contiguous
// chunks, runs fn(chunk, lo, hi) on each concurrently, and waits. Each chunk
// ordinal is passed so workers can use pre-sized private scratch. Results
// are deterministic as long as fn writes only chunk-local or row-disjoint
// state.
func ParallelChunks(rows, work int, fn func(chunk, lo, hi int)) {
	chunks := ParallelChunkCount(rows, work)
	if chunks <= 1 {
		fn(0, 0, rows)
		return
	}
	span := (rows + chunks - 1) / chunks
	var wg sync.WaitGroup
	for c := 0; c*span < rows; c++ {
		lo := c * span
		hi := lo + span
		if hi > rows {
			hi = rows
		}
		wg.Add(1)
		go func(c, lo, hi int) {
			defer wg.Done()
			fn(c, lo, hi)
		}(c, lo, hi)
	}
	wg.Wait()
}

// parallelRows partitions [0, rows) into contiguous chunks, runs fn(lo, hi)
// on each, and waits. Each output row is written by exactly one goroutine,
// so results are bit-identical to the sequential loop.
func parallelRows(rows int, work int, fn func(lo, hi int)) {
	ParallelChunks(rows, work, func(_, lo, hi int) { fn(lo, hi) })
}

// MatMulSlice computes dst = a @ b over raw row-major slices, where a is
// (m, k), b is (k, n) and dst is (m, n). It is the serial blocked core the
// parallel wrappers and the batch-parallel convolution workers share: the
// j-loop is tiled (matmulJTile) so the k×tile panel of b is reused across
// every output row, and each dst element accumulates in ascending-k order so
// results are bit-identical regardless of tiling or worker count. Zero
// a-values are skipped — DropBack zeroes most weights, so the lowered filter
// matrix is sparse in practice.
func MatMulSlice(dst, a, b []float32, m, k, n int) {
	matMulRows(dst, a, b, k, n, 0, m)
}

// matMulRows computes rows [lo, hi) of dst = a @ b with the blocked kernel.
func matMulRows(dst, a, b []float32, k, n, lo, hi int) {
	for jb := 0; jb < n; jb += matmulJTile {
		je := jb + matmulJTile
		if je > n {
			je = n
		}
		for i := lo; i < hi; i++ {
			orow := dst[i*n+jb : i*n+je]
			clear(orow)
			arow := a[i*k : (i+1)*k]
			for p := 0; p < k; p++ {
				av := arow[p]
				if av == 0 {
					continue
				}
				brow := b[p*n+jb : p*n+je]
				for j := range orow {
					orow[j] += av * brow[j]
				}
			}
		}
	}
}

// MatMulRowSlice computes a single output row dst = arow @ b over raw
// slices, where arow is (k,), b is (k, n) and dst is (n,). It performs
// exactly the float operations MatMulSlice would perform for that row — same
// j-tiling, same cleared-then-ascending-k accumulation, same zero skip — so
// callers that stream the A matrix one row at a time through a bounce buffer
// (the sparse-native convolution regenerating untracked filter weights on
// the fly) produce results bit-identical to the dense (m, k) @ (k, n)
// product.
func MatMulRowSlice(dst, arow, b []float32, k, n int) {
	for jb := 0; jb < n; jb += matmulJTile {
		je := jb + matmulJTile
		if je > n {
			je = n
		}
		orow := dst[jb:je]
		clear(orow)
		for p := 0; p < k; p++ {
			av := arow[p]
			if av == 0 {
				continue
			}
			brow := b[p*n+jb : p*n+je]
			for j := range orow {
				orow[j] += av * brow[j]
			}
		}
	}
}

// MatMulTransASlice computes dst = aᵀ @ b over raw slices, where a is
// (k, m), b is (k, n) and dst is (m, n) — the input-gradient kernel
// dcols = Wᵀ @ dy. Same blocking and determinism guarantees as MatMulSlice.
func MatMulTransASlice(dst, a, b []float32, k, m, n int) {
	matMulTransARows(dst, a, b, k, m, n, 0, m)
}

// matMulTransARows computes rows [lo, hi) of dst = aᵀ @ b.
func matMulTransARows(dst, a, b []float32, k, m, n, lo, hi int) {
	for jb := 0; jb < n; jb += matmulJTile {
		je := jb + matmulJTile
		if je > n {
			je = n
		}
		for i := lo; i < hi; i++ {
			orow := dst[i*n+jb : i*n+je]
			clear(orow)
			for p := 0; p < k; p++ {
				av := a[p*m+i]
				if av == 0 {
					continue
				}
				brow := b[p*n+jb : p*n+je]
				for j := range orow {
					orow[j] += av * brow[j]
				}
			}
		}
	}
}

// MatMulTransBSlice computes dst = a @ bᵀ over raw slices, where a is
// (m, k), b is (n, k) and dst is (m, n) — the weight-gradient kernel
// dW = dy @ colsᵀ. Each dst element is an independent dot product over
// ascending k, so results are bit-identical regardless of partitioning.
func MatMulTransBSlice(dst, a, b []float32, m, k, n int) {
	matMulTransBRows(dst, a, b, k, n, 0, m)
}

// matMulTransBRows computes rows [lo, hi) of dst = a @ bᵀ.
func matMulTransBRows(dst, a, b []float32, k, n, lo, hi int) {
	for i := lo; i < hi; i++ {
		arow := a[i*k : (i+1)*k]
		orow := dst[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			brow := b[j*k : (j+1)*k]
			var s float32
			for p := range arow {
				s += arow[p] * brow[p]
			}
			orow[j] = s
		}
	}
}

// MatMul returns a @ b for a of shape (M, K) and b of shape (K, N).
func MatMul(a, b *Tensor) *Tensor {
	m, _ := matMulDims("MatMul", a, b, false)
	out := New(m, b.Shape[1])
	MatMulInto(out, a, b)
	return out
}

// MatMulInto computes dst = a @ b into a caller-owned (M, N) tensor, fanning
// output rows across goroutines when the work is large enough. dst is fully
// overwritten and must not alias a or b.
func MatMulInto(dst, a, b *Tensor) *Tensor {
	m, k := matMulDims("MatMul", a, b, false)
	n := b.Shape[1]
	checkDst("MatMulInto", dst, m, n)
	parallelRows(m, m*n*k, func(lo, hi int) {
		matMulRows(dst.Data, a.Data, b.Data, k, n, lo, hi)
	})
	return dst
}

// MatMulTransAInto computes dst = aᵀ @ b into a caller-owned (M, N) tensor.
// dst is fully overwritten and must not alias a or b.
func MatMulTransAInto(dst, a, b *Tensor) *Tensor {
	m, k := matMulDims("MatMulTransA", a, b, true)
	n := b.Shape[1]
	checkDst("MatMulTransAInto", dst, m, n)
	parallelRows(m, m*n*k, func(lo, hi int) {
		matMulTransARows(dst.Data, a.Data, b.Data, k, m, n, lo, hi)
	})
	return dst
}

// matMulDims validates the operand shapes of a matrix product, a possibly
// transposed, and returns (M, K) — the output row count and inner dimension.
func matMulDims(op string, a, b *Tensor, transA bool) (m, k int) {
	if len(a.Shape) != 2 || len(b.Shape) != 2 {
		panic(fmt.Sprintf("tensor: %s requires 2-D tensors", op))
	}
	m, k = a.Shape[0], a.Shape[1]
	if transA {
		m, k = k, m
	}
	if k != b.Shape[0] {
		panic(fmt.Sprintf("tensor: %s inner dimension mismatch %v x %v", op, a.Shape, b.Shape))
	}
	return m, k
}

// checkDst validates the output tensor of an Into-style matmul.
func checkDst(op string, dst *Tensor, m, n int) {
	if len(dst.Shape) != 2 || dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: %s destination shape %v, want (%d,%d)", op, dst.Shape, m, n))
	}
}
