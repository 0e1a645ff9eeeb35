package prune

import (
	"math"

	"dropback/internal/nn"
	"dropback/internal/optim"
	"dropback/internal/tensor"
	"dropback/internal/xorshift"
)

// Variational dropout (Kingma et al. 2015) with the per-parameter dropout
// rates of Molchanov et al. 2017: each weight is w = θ·(1 + √α·ε) with
// ε ~ N(0,1) sampled per training step, and α = exp(logα) learned through
// the reparameterized gradient plus an approximate KL penalty that drives
// many logα large. Weights whose logα exceeds a threshold carry almost pure
// noise and are pruned (treated as zero) at inference.
//
// The paper uses this technique as the "can sparsify during training"
// baseline and reports that it works on VGG-S but fails to converge on
// Densenet and WRN; §4 attributes this to VD drastically altering the loss
// surface, which shows up as a much faster L2 diffusion in Fig 5.

// vdKL constants from Molchanov et al. 2017's approximation of the negative
// KL divergence: −DKL ≈ k1·σ(k2 + k3·logα) − 0.5·log(1 + α⁻¹) + C.
const (
	vdK1 = 0.63576
	vdK2 = 1.87320
	vdK3 = 1.48695
)

// vdKLAndGrad returns DKL (up to a constant) and dDKL/dlogα for one weight.
func vdKLAndGrad(logAlpha float64) (kl, grad float64) {
	z := vdK2 + vdK3*logAlpha
	sig := 1 / (1 + math.Exp(-z))
	alpha := math.Exp(logAlpha)
	negKL := vdK1*sig - 0.5*math.Log1p(1/alpha)
	// d(−DKL)/dlogα = k1·k3·σ(z)(1−σ(z)) + 0.5/(1+α)
	dNeg := vdK1*vdK3*sig*(1-sig) + 0.5/(1+alpha)
	return -negKL, -dNeg
}

// vdNoise owns the θ/logα parameter pair and the per-step noise state that
// both VD layer types share.
type vdNoise struct {
	Theta    *nn.Param
	LogAlpha *nn.Param
	rng      *xorshift.State64
	eps      []float32 // noise sampled in the latest training forward
	noisy    []float32 // effective noisy weights of the latest forward
}

func newVDNoise(theta, logAlpha *nn.Param, seed uint64) *vdNoise {
	return &vdNoise{
		Theta:    theta,
		LogAlpha: logAlpha,
		rng:      xorshift.NewState64(seed),
		eps:      make([]float32, theta.Len()),
		noisy:    make([]float32, theta.Len()),
	}
}

// sampleNoisy fills v.noisy with θ·(1+√α·ε) for a training step, or the
// deterministic θ masked by the pruning threshold for inference.
func (v *vdNoise) sampleNoisy(train bool, pruneThreshold float32) {
	if train {
		for i := range v.noisy {
			e := float32(v.rng.NormFloat64())
			v.eps[i] = e
			sa := float32(math.Exp(0.5 * float64(v.LogAlpha.Value.Data[i])))
			v.noisy[i] = v.Theta.Value.Data[i] * (1 + sa*e)
		}
		return
	}
	for i := range v.noisy {
		if v.LogAlpha.Value.Data[i] > pruneThreshold {
			v.noisy[i] = 0
		} else {
			v.noisy[i] = v.Theta.Value.Data[i]
		}
	}
}

// accumulateGrads folds the gradient with respect to the noisy weights back
// into θ and logα gradients.
func (v *vdNoise) accumulateGrads(dNoisy []float32) {
	for i, g := range dNoisy {
		sa := float32(math.Exp(0.5 * float64(v.LogAlpha.Value.Data[i])))
		e := v.eps[i]
		v.Theta.Grad.Data[i] += g * (1 + sa*e)
		// d noisy/d logα = θ·ε·(1/2)·√α
		v.LogAlpha.Grad.Data[i] += g * v.Theta.Value.Data[i] * e * 0.5 * sa
	}
}

// addKLGrads adds scale·dDKL/dlogα to the logα gradients.
func (v *vdNoise) addKLGrads(scale float32) {
	for i := range v.LogAlpha.Value.Data {
		_, grad := vdKLAndGrad(float64(v.LogAlpha.Value.Data[i]))
		v.LogAlpha.Grad.Data[i] += scale * float32(grad)
	}
}

// clamp bounds logα to [-10, 4] for numerical stability, as is standard in
// sparse-VD implementations.
func (v *vdNoise) clamp() {
	for i, a := range v.LogAlpha.Value.Data {
		if a < -10 {
			v.LogAlpha.Value.Data[i] = -10
		} else if a > 4 {
			v.LogAlpha.Value.Data[i] = 4
		}
	}
}

// sparsity returns (pruned, total) weight counts at the given threshold.
func (v *vdNoise) sparsity(threshold float32) (pruned, total int) {
	for _, a := range v.LogAlpha.Value.Data {
		if a > threshold {
			pruned++
		}
	}
	return pruned, v.LogAlpha.Len()
}

// VDLinear is a fully connected layer with variational-dropout weights.
type VDLinear struct {
	name    string
	In, Out int
	noise   *vdNoise
	B       *nn.Param
	x       *tensor.Tensor
	// PruneThreshold is the logα above which a weight is dropped at
	// inference (Molchanov et al. use 3).
	PruneThreshold float32
}

// NewVDLinear builds a variational-dropout fully connected layer.
func NewVDLinear(name string, modelSeed uint64, in, out int) *VDLinear {
	theta := nn.NewParam(name+"/theta", modelSeed, xorshift.InitScaledNormal, xorshift.LeCunScale(in), out, in)
	logA := nn.NewParam(name+"/logalpha", modelSeed, xorshift.InitConstant, -8, out, in)
	return &VDLinear{
		name: name, In: in, Out: out,
		noise:          newVDNoise(theta, logA, xorshift.TensorSeed(modelSeed, nn.NameID(name+"/noise"))),
		B:              nn.NewParam(name+"/b", modelSeed, xorshift.InitZero, 0, out),
		PruneThreshold: 3,
	}
}

// Name implements nn.Layer.
func (l *VDLinear) Name() string { return l.name }

// Forward implements nn.Layer.
func (l *VDLinear) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	l.x = x
	l.noise.sampleNoisy(train, l.PruneThreshold)
	w := tensor.FromSlice(l.noise.noisy, l.Out, l.In)
	y := tensor.MatMulTransB(x, w)
	tensor.AddRowVector(y, l.B.Value)
	return y
}

// Backward implements nn.Layer.
func (l *VDLinear) Backward(dy *tensor.Tensor) *tensor.Tensor {
	dW := tensor.MatMulTransA(dy, l.x)
	l.noise.accumulateGrads(dW.Data)
	tensor.AddInPlace(l.B.Grad, tensor.ColSums(dy))
	w := tensor.FromSlice(l.noise.noisy, l.Out, l.In)
	return tensor.MatMul(dy, w)
}

// Params implements nn.Layer.
func (l *VDLinear) Params() []*nn.Param {
	return []*nn.Param{l.noise.Theta, l.noise.LogAlpha, l.B}
}

// RNGState implements nn.RNGStateful: the noise stream's current position,
// so checkpoints and rollback snapshots rewind the ε draws with the weights.
func (l *VDLinear) RNGState() uint64 { return l.noise.rng.State() }

// SetRNGState implements nn.RNGStateful.
func (l *VDLinear) SetRNGState(s uint64) { l.noise.rng.SetState(s) }

// VDConv2D is a 2-D convolution with variational-dropout weights.
type VDConv2D struct {
	name           string
	InC, OutC      int
	K, Stride, Pad int
	noise          *vdNoise
	B              *nn.Param
	cols           []*tensor.Tensor
	inShape        []int
	outH, outW     int
	PruneThreshold float32
}

// NewVDConv2D builds a variational-dropout convolution layer.
func NewVDConv2D(name string, modelSeed uint64, inC, outC, k, stride, pad int) *VDConv2D {
	fanIn := inC * k * k
	theta := nn.NewParam(name+"/theta", modelSeed, xorshift.InitScaledNormal, xorshift.HeScale(fanIn), outC, inC, k, k)
	logA := nn.NewParam(name+"/logalpha", modelSeed, xorshift.InitConstant, -8, outC, inC, k, k)
	return &VDConv2D{
		name: name, InC: inC, OutC: outC, K: k, Stride: stride, Pad: pad,
		noise:          newVDNoise(theta, logA, xorshift.TensorSeed(modelSeed, nn.NameID(name+"/noise"))),
		B:              nn.NewParam(name+"/b", modelSeed, xorshift.InitZero, 0, outC),
		PruneThreshold: 3,
	}
}

// Name implements nn.Layer.
func (l *VDConv2D) Name() string { return l.name }

// Forward implements nn.Layer.
func (l *VDConv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	l.inShape = append(l.inShape[:0], x.Shape...)
	l.outH = tensor.ConvOutSize(h, l.K, l.Stride, l.Pad)
	l.outW = tensor.ConvOutSize(w, l.K, l.Stride, l.Pad)
	l.noise.sampleNoisy(train, l.PruneThreshold)
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

// Backward implements nn.Layer.
func (l *VDConv2D) Backward(dy *tensor.Tensor) *tensor.Tensor {
	n := l.inShape[0]
	h, w := l.inShape[2], l.inShape[3]
	wm := tensor.FromSlice(l.noise.noisy, l.OutC, l.InC*l.K*l.K)
	dWm := tensor.New(l.OutC, l.InC*l.K*l.K)
	dx := tensor.New(l.inShape...)
	spatial := l.outH * l.outW
	for i := 0; i < n; i++ {
		dyM := tensor.FromSlice(dy.Data[i*l.OutC*spatial:(i+1)*l.OutC*spatial], l.OutC, spatial)
		tensor.AddInPlace(dWm, tensor.MatMulTransB(dyM, l.cols[i]))
		for f := 0; f < l.OutC; f++ {
			var s float64
			row := dyM.Data[f*spatial : (f+1)*spatial]
			for _, v := range row {
				s += float64(v)
			}
			l.B.Grad.Data[f] += float32(s)
		}
		dcols := tensor.MatMulTransA(wm, dyM)
		dimg := tensor.Col2Im(dcols, l.InC, h, w, l.K, l.K, l.Stride, l.Pad)
		copy(dx.Data[i*l.InC*h*w:(i+1)*l.InC*h*w], dimg.Data)
	}
	l.noise.accumulateGrads(dWm.Data)
	return dx
}

// Params implements nn.Layer.
func (l *VDConv2D) Params() []*nn.Param {
	return []*nn.Param{l.noise.Theta, l.noise.LogAlpha, l.B}
}

// RNGState implements nn.RNGStateful (see VDLinear.RNGState).
func (l *VDConv2D) RNGState() uint64 { return l.noise.rng.State() }

// SetRNGState implements nn.RNGStateful.
func (l *VDConv2D) SetRNGState(s uint64) { l.noise.rng.SetState(s) }

// vdLayer is the coordination surface the VD controller needs.
type vdLayer interface {
	klNoise() *vdNoise
	threshold() float32
}

func (l *VDLinear) klNoise() *vdNoise  { return l.noise }
func (l *VDLinear) threshold() float32 { return l.PruneThreshold }
func (l *VDConv2D) klNoise() *vdNoise  { return l.noise }
func (l *VDConv2D) threshold() float32 { return l.PruneThreshold }

// VD coordinates the variational-dropout layers of a model: it injects the
// KL gradients before each optimizer step, clamps logα after it, and
// reports the achieved sparsity.
type VD struct {
	set    *nn.ParamSet
	layers []vdLayer
	// KLScale multiplies the KL penalty (1/dataset-size in the ELBO).
	KLScale float32
}

// NewVD collects every VD layer found in the (possibly nested) layer tree;
// set is the model's full parameter set, which Update steps.
func NewVD(set *nn.ParamSet, root nn.Layer, klScale float32) *VD {
	v := &VD{set: set, KLScale: klScale}
	nn.Walk(root, func(l nn.Layer) {
		if t, ok := l.(vdLayer); ok {
			v.layers = append(v.layers, t)
		}
	})
	return v
}

// LayerCount returns the number of VD layers under coordination.
func (v *VD) LayerCount() int { return len(v.layers) }

// BeginEpoch is a no-op.
func (v *VD) BeginEpoch(int) {}

// Update injects the KL gradient into every VD layer's logα gradient
// buffer, applies opt's step, then clamps logα in every layer. It returns
// −1: there is no tracked set to report swaps for.
func (v *VD) Update(opt *optim.SGD) int {
	for _, l := range v.layers {
		l.klNoise().addKLGrads(v.KLScale)
	}
	opt.Step(v.set)
	for _, l := range v.layers {
		l.klNoise().clamp()
	}
	return -1
}

// EndEpoch is a no-op.
func (v *VD) EndEpoch(int) {}

// Resume is a no-op: the noise streams are nn.RNGStateful, so the
// checkpoint's layer RNG map already restored them.
func (v *VD) Resume(int) {}

// Sparsity returns the pruned and total weight counts across all VD layers.
func (v *VD) Sparsity() (pruned, total int) {
	for _, l := range v.layers {
		p, t := l.klNoise().sparsity(l.threshold())
		pruned += p
		total += t
	}
	return pruned, total
}

// CompressionRatio returns total/(total−pruned); 1.0 when nothing is pruned.
func (v *VD) CompressionRatio() float64 {
	pruned, total := v.Sparsity()
	kept := total - pruned
	if kept <= 0 {
		return float64(total)
	}
	return float64(total) / float64(kept)
}
