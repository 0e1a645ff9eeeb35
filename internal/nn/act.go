package nn

import (
	"dropback/internal/tensor"
	"dropback/internal/xorshift"
)

// ReLU is the rectified linear activation max(0, x). Its output and input
// gradient live in reusable workspace buffers: they are valid until the
// layer's next Forward/Backward call, which is exactly the single-use-per-
// step lifecycle the Layer contract already imposes.
type ReLU struct {
	name string
	mask []bool
	ws   *tensor.Workspace
}

// NewReLU returns a ReLU activation layer.
func NewReLU(name string) *ReLU { return &ReLU{name: name, ws: tensor.NewWorkspace()} }

// Name implements Layer.
func (l *ReLU) Name() string { return l.name }

// Forward implements Layer.
func (l *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if cap(l.mask) < x.Len() {
		l.mask = make([]bool, x.Len())
	}
	l.mask = l.mask[:x.Len()]
	y := l.ws.GetRaw("y", x.Shape...)
	for i, v := range x.Data {
		if v > 0 {
			y.Data[i] = v
			l.mask[i] = true
		} else {
			y.Data[i] = 0
			l.mask[i] = false
		}
	}
	return y
}

// Backward implements Layer.
func (l *ReLU) Backward(dy *tensor.Tensor) *tensor.Tensor {
	dx := l.ws.GetRaw("dx", dy.Shape...)
	for i, v := range dy.Data {
		if l.mask[i] {
			dx.Data[i] = v
		} else {
			dx.Data[i] = 0
		}
	}
	return dx
}

// Params implements Layer.
func (l *ReLU) Params() []*Param { return nil }

// PReLU is the parametric ReLU: x for x>0, a·x otherwise, with a single
// learnable slope a initialized to 0.25. The paper highlights that DropBack
// prunes PReLU slopes "out of the box" because their constant initialization
// is trivially regenerable.
type PReLU struct {
	name string
	A    *Param
	x    *tensor.Tensor
	ws   *tensor.Workspace
}

// NewPReLU returns a parametric ReLU with one shared learnable slope.
func NewPReLU(name string, modelSeed uint64) *PReLU {
	return NewPReLUOver(name, NewParam(name+"/a", modelSeed, xorshift.InitConstant, 0.25, 1))
}

// NewPReLUOver returns a parametric ReLU over an existing one-element slope
// parameter, which Model.Replica shares between replicas.
func NewPReLUOver(name string, a *Param) *PReLU {
	return &PReLU{name: name, A: a, ws: tensor.NewWorkspace()}
}

// Name implements Layer.
func (l *PReLU) Name() string { return l.name }

// Forward implements Layer.
func (l *PReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	l.x = x
	a := l.A.Value.Data[0]
	y := l.ws.GetRaw("y", x.Shape...)
	for i, v := range x.Data {
		if v > 0 {
			y.Data[i] = v
		} else {
			y.Data[i] = a * v
		}
	}
	return y
}

// Backward implements Layer.
func (l *PReLU) Backward(dy *tensor.Tensor) *tensor.Tensor {
	a := l.A.Value.Data[0]
	dx := l.ws.GetRaw("dx", dy.Shape...)
	var da float64
	for i, g := range dy.Data {
		if l.x.Data[i] > 0 {
			dx.Data[i] = g
		} else {
			dx.Data[i] = a * g
			da += float64(g) * float64(l.x.Data[i])
		}
	}
	l.A.Grad.Data[0] += float32(da)
	return dx
}

// Params implements Layer.
func (l *PReLU) Params() []*Param { return []*Param{l.A} }

// Dropout zeroes activations with probability P during training and scales
// the survivors by 1/(1−P) (inverted dropout), so inference is the identity.
// Masks are index-addressed: the mask row of the g-th training sample the
// layer has seen is drawn from a xorshift stream seeded from (seed, g), so
// its only random state is the count of training samples forwarded so far.
// A shard starting at sample g therefore needs only that count set to g to
// draw exactly the rows a full-batch pass would.
type Dropout struct {
	name    string
	P       float32
	seed    uint64
	samples uint64 // training samples forwarded so far
	mask    []float32
	ws      *tensor.Workspace
}

// NewDropout returns a dropout layer with drop probability p in [0, 1).
func NewDropout(name string, seed uint64, p float32) *Dropout {
	if p < 0 || p >= 1 {
		panic("nn: dropout probability must be in [0,1)")
	}
	return &Dropout{name: name, P: p, seed: seed, ws: tensor.NewWorkspace()}
}

// Name implements Layer.
func (l *Dropout) Name() string { return l.name }

// RNGState implements RNGStateful: the number of training samples
// forwarded so far, which fixes every later mask row.
func (l *Dropout) RNGState() uint64 { return l.samples }

// SetRNGState implements RNGStateful.
func (l *Dropout) SetRNGState(s uint64) { l.samples = s }

// AdvanceSamples counts n samples as forwarded without drawing their masks.
// A non-positive n advances nothing.
func (l *Dropout) AdvanceSamples(n int) {
	if n > 0 {
		l.samples += uint64(n)
	}
}

// Forward implements Layer. Every training-mode call advances the sample
// count by the batch size, P = 0 included; inference leaves it alone.
func (l *Dropout) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if !train {
		l.mask = nil
		return x
	}
	n, g := x.Shape[0], l.samples
	l.samples += uint64(n)
	if l.P == 0 {
		l.mask = nil
		return x
	}
	if cap(l.mask) < x.Len() {
		l.mask = make([]float32, x.Len())
	}
	l.mask = l.mask[:x.Len()]
	scale := 1 / (1 - l.P)
	y := l.ws.GetRaw("y", x.Shape...)
	f := x.Len() / n
	var rng xorshift.State64
	for r := 0; r < n; r++ {
		rng.SetState(xorshift.TensorSeed(l.seed, g+uint64(r)))
		for i := r * f; i < (r+1)*f; i++ {
			if rng.Float32() < l.P {
				l.mask[i] = 0
				y.Data[i] = 0
			} else {
				l.mask[i] = scale
				y.Data[i] = x.Data[i] * scale
			}
		}
	}
	return y
}

// Backward implements Layer.
func (l *Dropout) Backward(dy *tensor.Tensor) *tensor.Tensor {
	if l.mask == nil {
		return dy
	}
	dx := l.ws.GetRaw("dx", dy.Shape...)
	for i, g := range dy.Data {
		dx.Data[i] = g * l.mask[i]
	}
	return dx
}

// Params implements Layer.
func (l *Dropout) Params() []*Param { return nil }
