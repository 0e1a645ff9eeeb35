package nn

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"dropback/internal/tensor"
	"dropback/internal/xorshift"
)

// storageCase is one weight layer built twice over identical weights, once
// on dense storage and once on CSR storage.
type storageCase struct {
	name  string
	build func(bias bool) (Layer, *Param, []int) // layer, its weight, input shape
}

// storageCases are sized so each pass crosses the ParallelChunks threshold,
// so GOMAXPROCS 4 runs several chunks.
var storageCases = []storageCase{
	{"linear", func(bias bool) (Layer, *Param, []int) {
		if bias {
			l := NewLinear("fc", 3, 300, 120)
			return l, l.W, []int{16, 300}
		}
		l := NewLinearNoBias("fc", 3, 300, 120)
		return l, l.W, []int{16, 300}
	}},
	{"conv", func(bias bool) (Layer, *Param, []int) {
		if bias {
			l := NewConv2D("conv", 3, 16, 8, 3, 1, 1)
			return l, l.W, []int{6, 16, 10, 10}
		}
		l := NewConv2DNoBias("conv", 3, 16, 8, 3, 1, 1)
		return l, l.W, []int{6, 16, 10, 10}
	}},
}

// trackedEntries picks every 7th weight as tracked. With deltas it moves
// each to a new value (every fifth of them to zero, which the zero-skipping
// kernels must treat alike) in w; without, the entries keep their init
// values, as a freshly selected set does before its first step.
func trackedEntries(w *Param, deltas bool) (idx []int32, val []float32) {
	for e := 0; e < w.Len(); e += 7 {
		if deltas {
			v := xorshift.IndexedUniform(17, uint64(e)) - 0.5
			if len(idx)%5 == 0 {
				v = 0
			}
			w.Value.Data[e] = v
		}
		idx = append(idx, int32(e))
		val = append(val, w.Value.Data[e])
	}
	return idx, val
}

// storageSignal fills t with a deterministic signal that has exact zeros
// and negative zeros in it.
func storageSignal(t *tensor.Tensor, stream uint64) {
	for i := range t.Data {
		switch i % 9 {
		case 0:
			t.Data[i] = 0
		case 4:
			t.Data[i] = float32(math.Copysign(0, -1))
		default:
			t.Data[i] = xorshift.IndexedUniform(stream, uint64(i)) - 0.5
		}
	}
}

func assertSameBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s[%d] = %x, want %x", what, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
	}
}

// TestWeightStoragesGiveSameBytes runs each weight layer over dense and
// over CSR storage holding the same weights and requires byte-equal
// outputs, input gradients and parameter gradients: W.Grad while the
// selection is live, and once it is frozen, TGrad against the dense
// gradient at the tracked indices.
func TestWeightStoragesGiveSameBytes(t *testing.T) {
	for _, c := range storageCases {
		for _, bias := range []bool{true, false} {
			for _, deltas := range []bool{false, true} {
				for _, frozen := range []bool{false, true} {
					for _, procs := range []int{1, 4} {
						name := fmt.Sprintf("%s/bias=%v/deltas=%v/frozen=%v/procs=%d", c.name, bias, deltas, frozen, procs)
						t.Run(name, func(t *testing.T) {
							defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
							dense, dw, shape := c.build(bias)
							sparse, sw, _ := c.build(bias)
							idx, val := trackedEntries(dw, deltas)
							trackedEntries(sw, deltas)
							sw.CSR = NewCSR(sw.Init, sw.Value.Shape[0], sw.Len()/sw.Value.Shape[0], idx, val)
							sw.Value = nil // the layer must not read it
							if frozen {
								sw.CSR.TGrad = make([]float32, len(idx))
							}
							// Two passes, so a kernel that leaves stale state in a
							// reused buffer shows on the second.
							for pass := uint64(0); pass < 2; pass++ {
								x := tensor.New(shape...)
								storageSignal(x, 5+pass)
								for _, p := range append(dense.Params(), sparse.Params()...) {
									p.Grad.Zero()
								}
								y := dense.Forward(x, true)
								assertSameBits(t, "y", sparse.Forward(x, true).Data, y.Data)
								dy := tensor.New(y.Shape...)
								storageSignal(dy, 9+pass)
								dx := dense.Backward(dy)
								assertSameBits(t, "dx", sparse.Backward(dy).Data, dx.Data)
								if l, ok := dense.(*Linear); ok {
									assertLinearMatchesMatMul(t, l, x, y, dy, dx)
								}
								if frozen {
									want := make([]float32, len(idx))
									for k, e := range idx {
										want[k] = dw.Grad.Data[e]
									}
									assertSameBits(t, "TGrad", sw.CSR.TGrad, want)
								} else {
									assertSameBits(t, "W.Grad", sw.Grad.Data, dw.Grad.Data)
								}
								if bias {
									assertSameBits(t, "b.Grad", sparse.Params()[1].Grad.Data, dense.Params()[1].Grad.Data)
								}
							}
						})
					}
				}
			}
		}
	}
}

// assertLinearMatchesMatMul checks a dense Linear's forward, input gradient
// and parameter gradients (accumulated once into zeroed Grads) byte for byte
// against the tensor matrix kernels on the same inputs: y = x Wᵀ + b with
// MatMulTransBSlice and AddRowVector, dx = dy W with MatMulInto, and W.Grad =
// 0 + dyᵀ x with MatMulTransAInto, so the row-walking layer kernels keep
// those kernels' float sequences.
func assertLinearMatchesMatMul(t *testing.T, l *Linear, x, y, dy, dx *tensor.Tensor) {
	t.Helper()
	wantY := tensor.New(y.Shape...)
	tensor.MatMulTransBSlice(wantY.Data, x.Data, l.W.Value.Data, x.Shape[0], l.In, l.Out)
	if l.B != nil {
		tensor.AddRowVector(wantY, l.B.Value)
	}
	assertSameBits(t, "y against MatMulTransBSlice", y.Data, wantY.Data)
	wantDx := tensor.MatMulInto(tensor.New(dx.Shape...), dy, l.W.Value)
	assertSameBits(t, "dx against MatMulInto", dx.Data, wantDx.Data)
	wantDW := tensor.New(l.W.Value.Shape...)
	tensor.AddInPlace(wantDW, tensor.MatMulTransAInto(tensor.New(l.W.Value.Shape...), dy, x))
	assertSameBits(t, "W.Grad against MatMulTransAInto", l.W.Grad.Data, wantDW.Data)
	if l.B != nil {
		wantDB := make([]float32, l.Out)
		for i := 0; i < dy.Shape[0]; i++ {
			for j, v := range dy.Data[i*l.Out : (i+1)*l.Out] {
				wantDB[j] += v
			}
		}
		assertSameBits(t, "b.Grad against a row fold", l.B.Grad.Data, wantDB)
	}
}
