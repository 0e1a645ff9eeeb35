package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestConvOutSize(t *testing.T) {
	cases := []struct{ in, k, s, p, want int }{
		{28, 3, 1, 1, 28},
		{28, 5, 1, 0, 24},
		{32, 3, 2, 1, 16},
		{8, 2, 2, 0, 4},
		{5, 5, 1, 0, 1},
	}
	for _, c := range cases {
		if got := ConvOutSize(c.in, c.k, c.s, c.p); got != c.want {
			t.Errorf("ConvOutSize(%d,%d,%d,%d) = %d, want %d", c.in, c.k, c.s, c.p, got, c.want)
		}
	}
}

func TestConvOutSizePanics(t *testing.T) {
	for _, f := range []func(){
		func() { ConvOutSize(2, 5, 1, 0) }, // output would be negative
		func() { ConvOutSize(8, 3, 0, 0) }, // zero stride
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

// naiveConv2D computes a direct convolution of a single image as the oracle.
func naiveConv2D(x *Tensor, w *Tensor, stride, pad int) *Tensor {
	c, h, wd := x.Shape[0], x.Shape[1], x.Shape[2]
	f, _, kh, kw := w.Shape[0], w.Shape[1], w.Shape[2], w.Shape[3]
	oh := ConvOutSize(h, kh, stride, pad)
	ow := ConvOutSize(wd, kw, stride, pad)
	out := New(f, oh, ow)
	for fi := 0; fi < f; fi++ {
		for oi := 0; oi < oh; oi++ {
			for oj := 0; oj < ow; oj++ {
				var s float32
				for ci := 0; ci < c; ci++ {
					for ki := 0; ki < kh; ki++ {
						for kj := 0; kj < kw; kj++ {
							ii := oi*stride + ki - pad
							jj := oj*stride + kj - pad
							if ii < 0 || ii >= h || jj < 0 || jj >= wd {
								continue
							}
							s += x.At(ci, ii, jj) * w.At(fi, ci, ki, kj)
						}
					}
				}
				out.Set(s, fi, oi, oj)
			}
		}
	}
	return out
}

func TestIm2ColConvMatchesNaive(t *testing.T) {
	configs := []struct{ c, h, w, f, k, s, p int }{
		{1, 5, 5, 2, 3, 1, 0},
		{3, 8, 8, 4, 3, 1, 1},
		{2, 9, 7, 3, 3, 2, 1},
		{3, 6, 6, 5, 5, 1, 2},
		{1, 4, 4, 1, 2, 2, 0},
	}
	for _, cfg := range configs {
		x := randTensor(10, cfg.c, cfg.h, cfg.w)
		w := randTensor(11, cfg.f, cfg.c, cfg.k, cfg.k)
		cols := Im2Col(x, cfg.k, cfg.k, cfg.s, cfg.p)
		wm := w.Reshape(cfg.f, cfg.c*cfg.k*cfg.k)
		ym := MatMul(wm, cols)
		oh := ConvOutSize(cfg.h, cfg.k, cfg.s, cfg.p)
		ow := ConvOutSize(cfg.w, cfg.k, cfg.s, cfg.p)
		got := ym.Reshape(cfg.f, oh, ow)
		want := naiveConv2D(x, w, cfg.s, cfg.p)
		if !tensorsClose(got, want, 1e-4) {
			t.Fatalf("im2col conv mismatch for config %+v", cfg)
		}
	}
}

func TestCol2ImIsAdjointOfIm2Col(t *testing.T) {
	// <Im2Col(x), y> == <x, Col2ImSlice(y)> for all x, y — the defining property
	// of an adjoint pair, which is exactly what backprop requires.
	f := func(seed uint64) bool {
		c, h, w, k, s, p := 2, 6, 6, 3, 1, 1
		x := randTensor(seed, c, h, w)
		oh := ConvOutSize(h, k, s, p)
		ow := ConvOutSize(w, k, s, p)
		y := randTensor(seed+1, c*k*k, oh*ow)
		lhs := Dot(Im2Col(x, k, k, s, p), y)
		img := New(c, h, w)
		Col2ImSlice(img.Data, y.Data, c, h, w, k, k, s, p)
		rhs := Dot(x, img)
		return math.Abs(lhs-rhs) < 1e-3*(1+math.Abs(lhs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCol2ImShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for incompatible shape")
		}
	}()
	Col2ImSlice(make([]float32, 2*6*6), make([]float32, 16), 2, 6, 6, 3, 3, 1, 1)
}

func TestIm2ColPaddingZeros(t *testing.T) {
	// With a large pad, corner windows must include zeros only.
	x := Full(1, 1, 2, 2)
	cols := Im2Col(x, 3, 3, 1, 1)
	// Output is 2x2; the (0,0) window's top-left kernel position samples
	// padding and must be 0.
	if cols.At(0, 0) != 0 {
		t.Fatalf("padded corner = %v, want 0", cols.At(0, 0))
	}
	// The center kernel position (ki=1,kj=1) at output (0,0) samples x(0,0)=1.
	centerRow := (0*3+1)*3 + 1
	if cols.At(centerRow, 0) != 1 {
		t.Fatalf("center sample = %v, want 1", cols.At(centerRow, 0))
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	m := randTensor(20, 8, 10)
	sm := SoftmaxRows(m)
	for i := 0; i < 8; i++ {
		var s float64
		for j := 0; j < 10; j++ {
			v := sm.At(i, j)
			if v < 0 || v > 1 {
				t.Fatalf("softmax value out of [0,1]: %v", v)
			}
			s += float64(v)
		}
		if math.Abs(s-1) > 1e-5 {
			t.Fatalf("softmax row %d sums to %v", i, s)
		}
	}
}

func TestSoftmaxStableForLargeLogits(t *testing.T) {
	m := FromSlice([]float32{1000, 1001, 999}, 1, 3)
	sm := SoftmaxRows(m)
	if sm.HasNaN() {
		t.Fatal("softmax overflowed on large logits")
	}
	if sm.At(0, 1) <= sm.At(0, 0) {
		t.Fatal("softmax ordering wrong")
	}
}

func TestCrossEntropyGradient(t *testing.T) {
	logits := FromSlice([]float32{2, 1, 0.5, 0.1, 3, 0.2}, 2, 3)
	labels := []int{0, 1}
	probs := SoftmaxRows(logits)
	loss, grad := CrossEntropyFromProbs(probs, labels)
	if loss <= 0 {
		t.Fatalf("loss = %v, want positive", loss)
	}
	// Gradient rows must sum to ~0 (softmax-CE property).
	for i := 0; i < 2; i++ {
		var s float64
		for j := 0; j < 3; j++ {
			s += float64(grad.At(i, j))
		}
		if math.Abs(s) > 1e-6 {
			t.Fatalf("grad row %d sums to %v, want 0", i, s)
		}
	}
	// True-class gradient must be negative.
	if grad.At(0, 0) >= 0 || grad.At(1, 1) >= 0 {
		t.Fatal("true-class gradient must be negative")
	}
}

func TestCrossEntropyNumericalGradient(t *testing.T) {
	// Finite-difference check of dLoss/dlogits.
	logits := FromSlice([]float32{0.5, -0.2, 0.1, 0.9, -0.5, 0.3}, 2, 3)
	labels := []int{2, 0}
	lossAt := func(l *Tensor) float64 {
		loss, _ := CrossEntropyFromProbs(SoftmaxRows(l), labels)
		return loss
	}
	_, grad := CrossEntropyFromProbs(SoftmaxRows(logits), labels)
	const eps = 1e-3
	for i := range logits.Data {
		lp := logits.Clone()
		lm := logits.Clone()
		lp.Data[i] += eps
		lm.Data[i] -= eps
		numeric := (lossAt(lp) - lossAt(lm)) / (2 * eps)
		if math.Abs(numeric-float64(grad.Data[i])) > 1e-3 {
			t.Fatalf("grad[%d]: analytic %v vs numeric %v", i, grad.Data[i], numeric)
		}
	}
}

func TestArgmaxRows(t *testing.T) {
	m := FromSlice([]float32{1, 3, 2, 9, 0, -1}, 2, 3)
	got := ArgmaxRows(m)
	if got[0] != 1 || got[1] != 0 {
		t.Fatalf("ArgmaxRows = %v, want [1 0]", got)
	}
}

func TestArgmaxTieBreaksLow(t *testing.T) {
	m := FromSlice([]float32{5, 5, 5}, 1, 3)
	if got := ArgmaxRows(m); got[0] != 0 {
		t.Fatalf("tie must resolve to lowest index, got %d", got[0])
	}
}

func TestAccuracy(t *testing.T) {
	logits := FromSlice([]float32{1, 0, 0, 1}, 2, 2)
	if got := Accuracy(logits, []int{0, 1}); got != 1 {
		t.Fatalf("Accuracy = %v, want 1", got)
	}
	if got := Accuracy(logits, []int{1, 0}); got != 0 {
		t.Fatalf("Accuracy = %v, want 0", got)
	}
	if got := Accuracy(logits, []int{0, 0}); got != 0.5 {
		t.Fatalf("Accuracy = %v, want 0.5", got)
	}
}

func TestSumMean(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4}, 4)
	if got := Sum(x); got != 10 {
		t.Fatalf("Sum = %v", got)
	}
	if got := Mean(x); got != 2.5 {
		t.Fatalf("Mean = %v", got)
	}
}

func TestCrossEntropyLabelPanics(t *testing.T) {
	probs := SoftmaxRows(New(1, 3))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range label")
		}
	}()
	CrossEntropyFromProbs(probs, []int{5})
}
