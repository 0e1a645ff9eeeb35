package tensor

import (
	"math"
	"testing"
)

// garbageFill poisons a slice so tests catch kernels that rely on zeroed
// destination memory — the workspace hands out buffers with stale contents.
func garbageFill(s []float32) {
	for i := range s {
		s[i] = float32(math.NaN())
	}
}

func TestIm2ColSliceOverwritesGarbage(t *testing.T) {
	configs := []struct{ c, h, w, k, s, p int }{
		{1, 5, 5, 3, 1, 0},
		{3, 8, 8, 3, 1, 1},
		{2, 9, 7, 3, 2, 1},
		{3, 6, 6, 5, 1, 2},
	}
	for _, cfg := range configs {
		x := randTensor(31, cfg.c, cfg.h, cfg.w)
		want := Im2Col(x, cfg.k, cfg.k, cfg.s, cfg.p)
		got := make([]float32, want.Len())
		garbageFill(got)
		Im2ColSlice(got, x.Data, cfg.c, cfg.h, cfg.w, cfg.k, cfg.k, cfg.s, cfg.p)
		for i := range got {
			if math.Float32bits(got[i]) != math.Float32bits(want.Data[i]) {
				t.Fatalf("config %+v: Im2ColSlice differs at %d: %v vs %v", cfg, i, got[i], want.Data[i])
			}
		}
	}
}

func TestCol2ImSliceOverwritesGarbage(t *testing.T) {
	c, h, w, k, s, p := 2, 6, 6, 3, 1, 1
	oh := ConvOutSize(h, k, s, p)
	ow := ConvOutSize(w, k, s, p)
	cols := randTensor(37, c*k*k, oh*ow)
	want := make([]float32, c*h*w)
	Col2ImSlice(want, cols.Data, c, h, w, k, k, s, p)
	got := make([]float32, c*h*w)
	garbageFill(got)
	Col2ImSlice(got, cols.Data, c, h, w, k, k, s, p)
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("Col2ImSlice differs at %d: %v vs %v", i, got[i], want[i])
		}
	}
}

func TestMatMulSliceMatchesNaive(t *testing.T) {
	for _, dims := range [][3]int{{1, 1, 1}, {2, 3, 4}, {7, 5, 9}, {16, 16, 16}, {33, 17, 300}} {
		m, k, n := dims[0], dims[1], dims[2]
		a := randTensor(51, m, k)
		b := randTensor(52, k, n)
		want := naiveMatMul(a, b)
		got := make([]float32, m*n)
		garbageFill(got)
		MatMulSlice(got, a.Data, b.Data, m, k, n)
		for i := range got {
			if math.Abs(float64(got[i]-want.Data[i])) > 1e-4 {
				t.Fatalf("dims %v: MatMulSlice differs at %d: %v vs %v", dims, i, got[i], want.Data[i])
			}
		}
	}
}

func TestMatMulTransASliceMatchesNaive(t *testing.T) {
	k, m, n := 13, 7, 300 // n > matmulJTile exercises the tile seam
	a := randTensor(61, k, m)
	b := randTensor(62, k, n)
	want := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for p := 0; p < k; p++ {
				s += a.At(p, i) * b.At(p, j)
			}
			want.Set(s, i, j)
		}
	}
	got := make([]float32, m*n)
	garbageFill(got)
	MatMulTransASlice(got, a.Data, b.Data, k, m, n)
	for i := range got {
		if math.Abs(float64(got[i]-want.Data[i])) > 1e-4 {
			t.Fatalf("MatMulTransASlice differs at %d: %v vs %v", i, got[i], want.Data[i])
		}
	}
}

func TestMatMulTransBSliceMatchesNaive(t *testing.T) {
	m, k, n := 6, 11, 9
	a := randTensor(71, m, k)
	b := randTensor(72, n, k)
	want := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for p := 0; p < k; p++ {
				s += a.At(i, p) * b.At(j, p)
			}
			want.Set(s, i, j)
		}
	}
	got := make([]float32, m*n)
	garbageFill(got)
	MatMulTransBSlice(got, a.Data, b.Data, m, k, n)
	for i := range got {
		if math.Abs(float64(got[i]-want.Data[i])) > 1e-4 {
			t.Fatalf("MatMulTransBSlice differs at %d: %v vs %v", i, got[i], want.Data[i])
		}
	}
}

func TestMatMulIntoOverwritesGarbage(t *testing.T) {
	a := randTensor(81, 9, 14)
	b := randTensor(82, 14, 270)
	want := naiveMatMul(a, b)
	dst := New(9, 270)
	garbageFill(dst.Data)
	MatMulInto(dst, a, b)
	if !tensorsClose(dst, want, 1e-4) {
		t.Fatal("MatMulInto left stale destination values")
	}
}

func TestMatMulSliceZeroRowSkipExact(t *testing.T) {
	// Rows of a that are entirely zero must yield exactly-zero output rows
	// even when the destination held garbage — the sparse-weight fast path.
	m, k, n := 3, 5, 4
	a := New(m, k)
	for j := 0; j < k; j++ {
		a.Data[1*k+j] = float32(j + 1) // only row 1 is non-zero
	}
	b := randTensor(91, k, n)
	got := make([]float32, m*n)
	garbageFill(got)
	MatMulSlice(got, a.Data, b.Data, m, k, n)
	for j := 0; j < n; j++ {
		if got[0*n+j] != 0 || got[2*n+j] != 0 {
			t.Fatalf("zero rows not cleared: row0[%d]=%v row2[%d]=%v", j, got[j], j, got[2*n+j])
		}
	}
}

func TestParallelChunksCoversRange(t *testing.T) {
	for _, rows := range []int{1, 2, 7, 16} {
		hit := make([]int, rows)
		// Large work forces the parallel path when GOMAXPROCS allows it.
		ParallelChunks(rows, 10*parallelThreshold, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				hit[i]++
			}
		})
		for i, h := range hit {
			if h != 1 {
				t.Fatalf("rows=%d: index %d visited %d times", rows, i, h)
			}
		}
	}
}

func TestParallelChunkCountSmallWorkStaysSerial(t *testing.T) {
	if got := ParallelChunkCount(64, parallelThreshold-1); got != 1 {
		t.Fatalf("ParallelChunkCount below threshold = %d, want 1", got)
	}
}
