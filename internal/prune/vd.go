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

// vdNoise owns a VD layer's θ/logα parameter pair and its per-step noise
// state.
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

// VDLayer is a fully connected or convolution layer with variational-dropout
// weights. It computes nothing itself: Forward samples the noisy weights
// into the weight an ordinary nn.Linear or nn.Conv2D reads, and Backward
// folds that weight's gradient into θ and logα.
type VDLayer struct {
	noise *vdNoise
	B     *nn.Param
	// w is the inner layer's weight: its Value is noise.noisy, and it is
	// not in the ParamSet — θ and logα are what trains.
	w     *nn.Param
	inner nn.Layer
	// PruneThreshold is the logα above which a weight is dropped at
	// inference (Molchanov et al. use 3).
	PruneThreshold float32
}

// NewVDLinear builds a variational-dropout fully connected layer.
func NewVDLinear(name string, modelSeed uint64, in, out int) *VDLayer {
	l := newVDLayer(name, modelSeed, xorshift.LeCunScale(in), out, in)
	l.inner = nn.NewLinearOver(name, in, out, l.w, l.B)
	return l
}

// NewVDConv2D builds a variational-dropout k×k convolution.
func NewVDConv2D(name string, modelSeed uint64, inC, outC, k, stride, pad int) *VDLayer {
	l := newVDLayer(name, modelSeed, xorshift.HeScale(inC*k*k), outC, inC, k, k)
	l.inner = nn.NewConv2DOver(name, inC, outC, k, stride, pad, l.w, l.B)
	return l
}

// newVDLayer builds the parameters and noise state of a VD layer whose
// weight has the given shape, output units first.
func newVDLayer(name string, modelSeed uint64, scale float32, shape ...int) *VDLayer {
	theta := nn.NewParam(name+"/theta", modelSeed, xorshift.InitScaledNormal, scale, shape...)
	logA := nn.NewParam(name+"/logalpha", modelSeed, xorshift.InitConstant, -8, shape...)
	noise := newVDNoise(theta, logA, xorshift.TensorSeed(modelSeed, nn.NameID(name+"/noise")))
	return &VDLayer{
		noise:          noise,
		B:              nn.NewParam(name+"/b", modelSeed, xorshift.InitZero, 0, shape[0]),
		w:              &nn.Param{Name: name + "/W", Value: tensor.FromSlice(noise.noisy, shape...), Grad: tensor.New(shape...)},
		PruneThreshold: 3,
	}
}

// Name implements nn.Layer.
func (l *VDLayer) Name() string { return l.inner.Name() }

// Forward implements nn.Layer. The output is the inner layer's, valid until
// the next Forward.
func (l *VDLayer) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	l.noise.sampleNoisy(train, l.PruneThreshold)
	return l.inner.Forward(x, train)
}

// Backward implements nn.Layer. The inner layer adds the noisy weights'
// gradient to w.Grad, cleared first so that it holds this step's alone.
func (l *VDLayer) Backward(dy *tensor.Tensor) *tensor.Tensor {
	l.w.ZeroGrad()
	dx := l.inner.Backward(dy)
	l.noise.accumulateGrads(l.w.Grad.Data)
	return dx
}

// Params implements nn.Layer.
func (l *VDLayer) Params() []*nn.Param {
	return []*nn.Param{l.noise.Theta, l.noise.LogAlpha, l.B}
}

// RNGState implements nn.RNGStateful: the noise stream's current position,
// so checkpoints and rollback snapshots rewind the ε draws with the weights.
func (l *VDLayer) RNGState() uint64 { return l.noise.rng.State() }

// SetRNGState implements nn.RNGStateful.
func (l *VDLayer) SetRNGState(s uint64) { l.noise.rng.SetState(s) }

// VD coordinates the variational-dropout layers of a model: it injects the
// KL gradients before each optimizer step, clamps logα after it, and
// reports the achieved sparsity.
type VD struct {
	set    *nn.ParamSet
	layers []*VDLayer
	// KLScale multiplies the KL penalty (1/dataset-size in the ELBO).
	KLScale float32
}

// NewVD collects every VD layer found in the (possibly nested) layer tree;
// set is the model's full parameter set, which Update steps.
func NewVD(set *nn.ParamSet, root nn.Layer, klScale float32) *VD {
	v := &VD{set: set, KLScale: klScale}
	nn.Walk(root, func(l nn.Layer) {
		if t, ok := l.(*VDLayer); ok {
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
		l.noise.addKLGrads(v.KLScale)
	}
	opt.Step(v.set)
	for _, l := range v.layers {
		l.noise.clamp()
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
		p, t := l.noise.sparsity(l.PruneThreshold)
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
