package prune

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"dropback/internal/nn"
	"dropback/internal/tensor"
	"dropback/internal/xorshift"
)

// oracleVDLinear and oracleVDConv2D are the standalone variational-dropout
// layers VDLayer replaced: each runs its own matmul, im2col, bias and
// bias-gradient loops over the noisy weights and folds the weight gradient
// into θ and logα directly. They are kept as the reference the wrapper
// over nn.Linear and nn.Conv2D must match bit for bit.
type oracleVDLinear struct {
	In, Out int
	noise   *vdNoise
	B       *nn.Param
	x       *tensor.Tensor
}

func newOracleVDLinear(name string, modelSeed uint64, in, out int) *oracleVDLinear {
	theta := nn.NewParam(name+"/theta", modelSeed, xorshift.InitScaledNormal, xorshift.LeCunScale(in), out, in)
	logA := nn.NewParam(name+"/logalpha", modelSeed, xorshift.InitConstant, -8, out, in)
	return &oracleVDLinear{
		In: in, Out: out,
		noise: newVDNoise(theta, logA, xorshift.TensorSeed(modelSeed, nn.NameID(name+"/noise"))),
		B:     nn.NewParam(name+"/b", modelSeed, xorshift.InitZero, 0, out),
	}
}

func (l *oracleVDLinear) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	l.x = x
	l.noise.sampleNoisy(train, 3)
	n := x.Shape[0]
	y := tensor.New(n, l.Out)
	tensor.MatMulTransBSlice(y.Data, x.Data, l.noise.noisy, n, l.In, l.Out)
	tensor.AddRowVector(y, l.B.Value)
	return y
}

func (l *oracleVDLinear) Backward(dy *tensor.Tensor) *tensor.Tensor {
	n := dy.Shape[0]
	dW := tensor.New(l.Out, l.In)
	tensor.MatMulTransASlice(dW.Data, dy.Data, l.x.Data, n, l.Out, l.In)
	l.noise.accumulateGrads(dW.Data)
	colSums := tensor.New(l.Out)
	for i := 0; i < n; i++ {
		for j, v := range dy.Data[i*l.Out : (i+1)*l.Out] {
			colSums.Data[j] += v
		}
	}
	tensor.AddInPlace(l.B.Grad, colSums)
	return tensor.MatMul(dy, tensor.FromSlice(l.noise.noisy, l.Out, l.In))
}

func (l *oracleVDLinear) Params() []*nn.Param {
	return []*nn.Param{l.noise.Theta, l.noise.LogAlpha, l.B}
}

type oracleVDConv2D struct {
	InC, OutC      int
	K, Stride, Pad int
	noise          *vdNoise
	B              *nn.Param
	cols           []*tensor.Tensor
	inShape        []int
	outH, outW     int
}

func newOracleVDConv2D(name string, modelSeed uint64, inC, outC, k, stride, pad int) *oracleVDConv2D {
	theta := nn.NewParam(name+"/theta", modelSeed, xorshift.InitScaledNormal, xorshift.HeScale(inC*k*k), outC, inC, k, k)
	logA := nn.NewParam(name+"/logalpha", modelSeed, xorshift.InitConstant, -8, outC, inC, k, k)
	return &oracleVDConv2D{
		InC: inC, OutC: outC, K: k, Stride: stride, Pad: pad,
		noise: newVDNoise(theta, logA, xorshift.TensorSeed(modelSeed, nn.NameID(name+"/noise"))),
		B:     nn.NewParam(name+"/b", modelSeed, xorshift.InitZero, 0, outC),
	}
}

func (l *oracleVDConv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	l.inShape = append(l.inShape[:0], x.Shape...)
	l.outH = tensor.ConvOutSize(h, l.K, l.Stride, l.Pad)
	l.outW = tensor.ConvOutSize(w, l.K, l.Stride, l.Pad)
	l.noise.sampleNoisy(train, 3)
	wm := tensor.FromSlice(l.noise.noisy, l.OutC, l.InC*l.K*l.K)
	y := tensor.New(n, l.OutC, l.outH, l.outW)
	l.cols = l.cols[:0]
	perSample := l.OutC * l.outH * l.outW
	for i := 0; i < n; i++ {
		img := tensor.FromSlice(x.Data[i*l.InC*h*w:(i+1)*l.InC*h*w], l.InC, h, w)
		cols := tensor.Im2Col(img, l.K, l.K, l.Stride, l.Pad)
		l.cols = append(l.cols, cols)
		ym := tensor.MatMul(wm, cols)
		copy(y.Data[i*perSample:(i+1)*perSample], ym.Data)
	}
	for i := 0; i < n; i++ {
		for f := 0; f < l.OutC; f++ {
			b := l.B.Value.Data[f]
			base := (i*l.OutC + f) * l.outH * l.outW
			plane := y.Data[base : base+l.outH*l.outW]
			for j := range plane {
				plane[j] += b
			}
		}
	}
	return y
}

func (l *oracleVDConv2D) Backward(dy *tensor.Tensor) *tensor.Tensor {
	n := l.inShape[0]
	h, w := l.inShape[2], l.inShape[3]
	colRows := l.InC * l.K * l.K
	dWm := tensor.New(l.OutC, colRows)
	dx := tensor.New(l.inShape...)
	spatial := l.outH * l.outW
	part := tensor.New(l.OutC, colRows)
	dcols := make([]float32, colRows*spatial)
	for i := 0; i < n; i++ {
		dyM := dy.Data[i*l.OutC*spatial : (i+1)*l.OutC*spatial]
		tensor.MatMulTransBSlice(part.Data, dyM, l.cols[i].Data, l.OutC, spatial, colRows)
		tensor.AddInPlace(dWm, part)
		for f := 0; f < l.OutC; f++ {
			var s float64
			for _, v := range dyM[f*spatial : (f+1)*spatial] {
				s += float64(v)
			}
			l.B.Grad.Data[f] += float32(s)
		}
		tensor.MatMulTransASlice(dcols, l.noise.noisy, dyM, l.OutC, colRows, spatial)
		tensor.Col2ImSlice(dx.Data[i*l.InC*h*w:(i+1)*l.InC*h*w], dcols, l.InC, h, w, l.K, l.K, l.Stride, l.Pad)
	}
	l.noise.accumulateGrads(dWm.Data)
	return dx
}

func (l *oracleVDConv2D) Params() []*nn.Param {
	return []*nn.Param{l.noise.Theta, l.noise.LogAlpha, l.B}
}

type oracleLayer interface {
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	Backward(dy *tensor.Tensor) *tensor.Tensor
	Params() []*nn.Param
}

// TestVDLayerMatchesOracle drives VDLayer and the standalone oracle layers
// through the same steps — train and eval forwards mixed, logα spread
// across the prune threshold, an SGD update between steps — and demands
// bit-identical outputs, input gradients and θ, logα and bias gradients.
// Each step zeroes the registered gradients first, as Model.Step does; the
// wrapper's own weight gradient is not registered, so a wrapper that did not
// clear it would carry the previous step's gradient into θ and logα. The
// batches sit on both sides of the kernels' parallel threshold, at
// GOMAXPROCS 1 and 4.
func TestVDLayerMatchesOracle(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	type geometry struct {
		name    string
		build   func() (*VDLayer, oracleLayer)
		inShape []int // one sample's input shape
		work    int   // multiply-accumulates per sample in Forward
		batches [2]int
	}
	geoms := []geometry{
		{"linear", func() (*VDLayer, oracleLayer) {
			return NewVDLinear("o/fc", 11, 64, 32), newOracleVDLinear("o/fc", 11, 64, 32)
		}, []int{64}, 64 * 32, [2]int{3, 300}},
		{"conv/s1p1", func() (*VDLayer, oracleLayer) {
			return NewVDConv2D("o/c1", 12, 4, 8, 3, 1, 1), newOracleVDConv2D("o/c1", 12, 4, 8, 3, 1, 1)
		}, []int{4, 8, 8}, 8 * 64 * 36, [2]int{2, 32}},
		{"conv/s2p0", func() (*VDLayer, oracleLayer) {
			return NewVDConv2D("o/c2", 13, 4, 8, 3, 2, 0), newOracleVDConv2D("o/c2", 13, 4, 8, 3, 2, 0)
		}, []int{4, 9, 9}, 8 * 16 * 36, [2]int{2, 128}},
	}
	for _, g := range geoms {
		for _, procs := range []int{1, 4} {
			for bi, n := range g.batches {
				t.Run(fmt.Sprintf("%s/procs=%d/n=%d", g.name, procs, n), func(t *testing.T) {
					runtime.GOMAXPROCS(procs)
					if parallel := tensor.ParallelChunkCount(n, n*g.work) > 1; procs == 4 && parallel != (bi == 1) {
						t.Fatalf("batch %d parallel=%v, want the small batch serial and the large one fanned out", n, parallel)
					}
					checkVDAgainstOracle(t, g.build, append([]int{n}, g.inShape...))
				})
			}
		}
	}
}

func checkVDAgainstOracle(t *testing.T, build func() (*VDLayer, oracleLayer), xShape []int) {
	t.Helper()
	got, want := build()
	gotPs, wantPs := got.Params(), want.Params()
	// Spread logα over [-5, 4] so eval prunes some weights (threshold 3)
	// and training noise ranges from negligible to dominant.
	for _, la := range []*nn.Param{gotPs[1], wantPs[1]} {
		for i := range la.Value.Data {
			la.Value.Data[i] = -5 + 9*float32(xorshift.IndexedUniform(21, uint64(i)))
		}
	}
	x := tensor.New(xShape...)
	for i := range x.Data {
		x.Data[i] = xorshift.IndexedNormal(22, uint64(i))
	}
	for step, train := range []bool{true, true, false, true, false, true} {
		for k := range gotPs {
			gotPs[k].ZeroGrad()
			wantPs[k].ZeroGrad()
		}
		y := got.Forward(x, train)
		wy := want.Forward(x, train)
		bitsEqual(t, fmt.Sprintf("step %d y", step), y.Data, wy.Data)
		// Every fifth upstream gradient is zero, so the kernels' zero skips
		// run.
		dy := tensor.New(wy.Shape...)
		for i := range dy.Data {
			if i%5 != 0 {
				dy.Data[i] = xorshift.IndexedNormal(uint64(30+step), uint64(i))
			}
		}
		dx := got.Backward(dy)
		wdx := want.Backward(dy)
		bitsEqual(t, fmt.Sprintf("step %d dx", step), dx.Data, wdx.Data)
		for k, name := range []string{"θ", "logα", "b"} {
			bitsEqual(t, fmt.Sprintf("step %d %s grad", step, name), gotPs[k].Grad.Data, wantPs[k].Grad.Data)
		}
		for k := range gotPs {
			for _, p := range []*nn.Param{gotPs[k], wantPs[k]} {
				for i, g := range p.Grad.Data {
					p.Value.Data[i] -= 0.05 * g
				}
			}
		}
	}
}

func bitsEqual(t *testing.T, label string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s[%d] = %v, want %v", label, i, got[i], want[i])
		}
	}
}
