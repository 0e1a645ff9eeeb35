package tensor

import (
	"math"
	"runtime"
	"testing"
	"testing/quick"

	"dropback/internal/xorshift"
)

// naiveMatMul is the textbook triple loop used as the reference oracle.
func naiveMatMul(a, b *Tensor) *Tensor {
	m, k := a.Shape[0], a.Shape[1]
	n := b.Shape[1]
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for p := 0; p < k; p++ {
				s += a.At(i, p) * b.At(p, j)
			}
			out.Set(s, i, j)
		}
	}
	return out
}

func randTensor(seed uint64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = xorshift.IndexedNormal(seed, uint64(i))
	}
	return t
}

func tensorsClose(a, b *Tensor, tol float64) bool {
	if !a.SameShape(b) {
		return false
	}
	for i := range a.Data {
		if math.Abs(float64(a.Data[i]-b.Data[i])) > tol {
			return false
		}
	}
	return true
}

func TestMatMulSmallKnown(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float32{7, 8, 9, 10, 11, 12}, 3, 2)
	got := MatMul(a, b)
	want := FromSlice([]float32{58, 64, 139, 154}, 2, 2)
	if !tensorsClose(got, want, 1e-6) {
		t.Fatalf("MatMul = %v, want %v", got.Data, want.Data)
	}
}

func TestMatMulMatchesNaive(t *testing.T) {
	for _, dims := range [][3]int{{1, 1, 1}, {2, 3, 4}, {7, 5, 9}, {16, 16, 16}, {33, 17, 29}} {
		a := randTensor(1, dims[0], dims[1])
		b := randTensor(2, dims[1], dims[2])
		got := MatMul(a, b)
		want := naiveMatMul(a, b)
		if !tensorsClose(got, want, 1e-4) {
			t.Fatalf("MatMul mismatch at dims %v", dims)
		}
	}
}

func TestMatMulTransBMatchesNaive(t *testing.T) {
	a := randTensor(3, 13, 7)
	bT := randTensor(4, 11, 7) // (N, K)
	// Build b = bTᵀ to feed the oracle.
	b := New(7, 11)
	for i := 0; i < 11; i++ {
		for j := 0; j < 7; j++ {
			b.Set(bT.At(i, j), j, i)
		}
	}
	got := New(13, 11)
	garbageFill(got.Data)
	MatMulTransBSlice(got.Data, a.Data, bT.Data, 13, 7, 11)
	want := naiveMatMul(a, b)
	if !tensorsClose(got, want, 1e-4) {
		t.Fatal("MatMulTransBSlice mismatch with naive oracle")
	}
}

func TestMatMulTransAMatchesNaive(t *testing.T) {
	aT := randTensor(5, 9, 13) // (K, M)
	b := randTensor(6, 9, 5)   // (K, N)
	a := New(13, 9)
	for i := 0; i < 9; i++ {
		for j := 0; j < 13; j++ {
			a.Set(aT.At(i, j), j, i)
		}
	}
	got := New(13, 5)
	garbageFill(got.Data)
	MatMulTransAInto(got, aT, b)
	want := naiveMatMul(a, b)
	if !tensorsClose(got, want, 1e-4) {
		t.Fatal("MatMulTransAInto mismatch with naive oracle")
	}
}

func TestMatMulDimensionPanics(t *testing.T) {
	cases := []func(){
		func() { MatMul(New(2, 3), New(4, 2)) },
		func() { MatMulTransAInto(New(2, 4), New(3, 2), New(4, 4)) },
		func() { MatMulTransAInto(New(3, 4), New(4, 2), New(4, 4)) },
		func() { MatMul(New(6), New(2, 3)) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: expected dimension panic", i)
				}
			}()
			f()
		}()
	}
}

func TestMatMulParallelDeterministic(t *testing.T) {
	// Large enough to trip the parallel path; results must be bit-identical
	// to the single-threaded run.
	a := randTensor(7, 200, 150)
	b := randTensor(8, 150, 180)
	par := MatMul(a, b)
	old := runtime.GOMAXPROCS(1)
	seq := MatMul(a, b)
	runtime.GOMAXPROCS(old)
	for i := range par.Data {
		if par.Data[i] != seq.Data[i] {
			t.Fatalf("parallel result differs from sequential at %d: %v vs %v", i, par.Data[i], seq.Data[i])
		}
	}
}

func TestMatMulIdentityProperty(t *testing.T) {
	// A @ I == A for random square A.
	f := func(seed uint64) bool {
		n := int(seed%8) + 1
		a := randTensor(seed, n, n)
		id := New(n, n)
		for i := 0; i < n; i++ {
			id.Set(1, i, i)
		}
		return tensorsClose(MatMul(a, id), a, 1e-5)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3}, 3)
	b := FromSlice([]float32{4, 5, 6}, 3)
	if got := Add(a, b); !tensorsClose(got, FromSlice([]float32{5, 7, 9}, 3), 0) {
		t.Fatalf("Add = %v", got.Data)
	}
	if got := Sub(b, a); !tensorsClose(got, FromSlice([]float32{3, 3, 3}, 3), 0) {
		t.Fatalf("Sub = %v", got.Data)
	}
	if got := Mul(a, b); !tensorsClose(got, FromSlice([]float32{4, 10, 18}, 3), 0) {
		t.Fatalf("Mul = %v", got.Data)
	}
	if got := Scale(a, 2); !tensorsClose(got, FromSlice([]float32{2, 4, 6}, 3), 0) {
		t.Fatalf("Scale = %v", got.Data)
	}
	c := a.Clone()
	AddInPlace(c, b)
	if !tensorsClose(c, FromSlice([]float32{5, 7, 9}, 3), 0) {
		t.Fatalf("AddInPlace = %v", c.Data)
	}
	d := a.Clone()
	MulInPlace(d, b)
	if !tensorsClose(d, FromSlice([]float32{4, 10, 18}, 3), 0) {
		t.Fatalf("MulInPlace = %v", d.Data)
	}
	e := a.Clone()
	ScaleInPlace(e, 3)
	if !tensorsClose(e, FromSlice([]float32{3, 6, 9}, 3), 0) {
		t.Fatalf("ScaleInPlace = %v", e.Data)
	}
}

func TestAXPY(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3}, 3)
	y := FromSlice([]float32{10, 10, 10}, 3)
	AXPY(-2, x, y)
	if !tensorsClose(y, FromSlice([]float32{8, 6, 4}, 3), 0) {
		t.Fatalf("AXPY = %v", y.Data)
	}
}

func TestDot(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3}, 3)
	b := FromSlice([]float32{4, 5, 6}, 3)
	if got := Dot(a, b); math.Abs(got-32) > 1e-9 {
		t.Fatalf("Dot = %v, want 32", got)
	}
}

func TestApply(t *testing.T) {
	a := FromSlice([]float32{-1, 2, -3}, 3)
	got := Apply(a, func(v float32) float32 {
		if v < 0 {
			return 0
		}
		return v
	})
	if !tensorsClose(got, FromSlice([]float32{0, 2, 0}, 3), 0) {
		t.Fatalf("Apply = %v", got.Data)
	}
	ApplyInPlace(a, func(v float32) float32 { return -v })
	if !tensorsClose(a, FromSlice([]float32{1, -2, 3}, 3), 0) {
		t.Fatalf("ApplyInPlace = %v", a.Data)
	}
}

func TestAddRowVector(t *testing.T) {
	m := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	v := FromSlice([]float32{10, 20, 30}, 3)
	AddRowVector(m, v)
	want := FromSlice([]float32{11, 22, 33, 14, 25, 36}, 2, 3)
	if !tensorsClose(m, want, 0) {
		t.Fatalf("AddRowVector = %v", m.Data)
	}
}

func TestElementwiseSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for size mismatch")
		}
	}()
	Add(New(3), New(4))
}
