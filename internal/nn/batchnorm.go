package nn

import (
	"fmt"
	"math"

	"dropback/internal/tensor"
	"dropback/internal/xorshift"
)

// BatchNorm normalizes activations per channel using batch statistics during
// training and tracked running statistics at inference. It handles both
// (N, C) inputs (after fully connected layers) and (N, C, H, W) inputs
// (after convolutions), normalizing over all non-channel axes.
//
// Gamma is initialized to the constant 1 and beta to 0, so DropBack can
// regenerate untracked BN parameters trivially — the property the paper
// calls out as unique ("layers like batch normalization ... are also pruned
// by DropBack").
type BatchNorm struct {
	name     string
	C        int
	Momentum float32
	Eps      float32
	Gamma    *Param
	Beta     *Param

	RunningMean []float32
	RunningVar  []float32

	// cached forward state; xhat lives in the workspace and is rebuilt by
	// every training Forward, so steady-state steps allocate nothing.
	xhat   *tensor.Tensor
	invStd []float32
	shape  []int
	ws     *tensor.Workspace
}

// NewBatchNorm builds a batch-normalization layer over c channels.
func NewBatchNorm(name string, modelSeed uint64, c int) *BatchNorm {
	variance := make([]float32, c)
	for i := range variance {
		variance[i] = 1
	}
	bn := NewBatchNormOver(name, c, 1e-5,
		NewParam(name+"/gamma", modelSeed, xorshift.InitConstant, 1, c),
		NewParam(name+"/beta", modelSeed, xorshift.InitZero, 0, c),
		make([]float32, c), variance)
	bn.Momentum = 0.9
	return bn
}

// NewBatchNormOver builds a batch-normalization layer over existing scale
// and shift parameters and running statistics, which Model.Replica shares
// between replicas; inference only reads them.
func NewBatchNormOver(name string, c int, eps float32, gamma, beta *Param, mean, variance []float32) *BatchNorm {
	return &BatchNorm{
		name: name, C: c, Eps: eps, Gamma: gamma, Beta: beta,
		RunningMean: mean, RunningVar: variance, ws: tensor.NewWorkspace(),
	}
}

// Name implements Layer.
func (l *BatchNorm) Name() string { return l.name }

// channelGeometry returns (groups, spatial) such that the element at
// (g, c, s) has flat index (g*C+c)*spatial+s. For (N, C): spatial = 1.
func (l *BatchNorm) channelGeometry(shape []int) (groups, spatial int) {
	switch len(shape) {
	case 2:
		if shape[1] != l.C {
			panic(fmt.Sprintf("nn: batchnorm %q expected %d channels, got %v", l.name, l.C, shape))
		}
		return shape[0], 1
	case 4:
		if shape[1] != l.C {
			panic(fmt.Sprintf("nn: batchnorm %q expected %d channels, got %v", l.name, l.C, shape))
		}
		return shape[0], shape[2] * shape[3]
	default:
		panic(fmt.Sprintf("nn: batchnorm %q supports 2-D or 4-D input, got %v", l.name, shape))
	}
}

// Forward implements Layer.
func (l *BatchNorm) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	groups, spatial := l.channelGeometry(x.Shape)
	m := groups * spatial // elements per channel
	y := l.ws.GetRaw("y", x.Shape...)
	l.shape = append(l.shape[:0], x.Shape...)
	if train {
		if cap(l.invStd) < l.C {
			l.invStd = make([]float32, l.C)
		}
		l.invStd = l.invStd[:l.C]
		l.xhat = l.ws.GetRaw("xhat", x.Shape...)
		for c := 0; c < l.C; c++ {
			var sum, sumSq float64
			for g := 0; g < groups; g++ {
				base := (g*l.C + c) * spatial
				for s := 0; s < spatial; s++ {
					v := float64(x.Data[base+s])
					sum += v
					sumSq += v * v
				}
			}
			mean := sum / float64(m)
			variance := sumSq/float64(m) - mean*mean
			if variance < 0 {
				variance = 0
			}
			inv := float32(1 / math.Sqrt(variance+float64(l.Eps)))
			l.invStd[c] = inv
			mu := float32(mean)
			gamma, beta := l.Gamma.Value.Data[c], l.Beta.Value.Data[c]
			for g := 0; g < groups; g++ {
				base := (g*l.C + c) * spatial
				for s := 0; s < spatial; s++ {
					xh := (x.Data[base+s] - mu) * inv
					l.xhat.Data[base+s] = xh
					y.Data[base+s] = gamma*xh + beta
				}
			}
			l.RunningMean[c] = l.Momentum*l.RunningMean[c] + (1-l.Momentum)*mu
			l.RunningVar[c] = l.Momentum*l.RunningVar[c] + (1-l.Momentum)*float32(variance)
		}
		return y
	}
	for c := 0; c < l.C; c++ {
		inv := float32(1 / math.Sqrt(float64(l.RunningVar[c])+float64(l.Eps)))
		mu := l.RunningMean[c]
		gamma, beta := l.Gamma.Value.Data[c], l.Beta.Value.Data[c]
		for g := 0; g < groups; g++ {
			base := (g*l.C + c) * spatial
			for s := 0; s < spatial; s++ {
				y.Data[base+s] = gamma*(x.Data[base+s]-mu)*inv + beta
			}
		}
	}
	return y
}

// Backward implements Layer.
func (l *BatchNorm) Backward(dy *tensor.Tensor) *tensor.Tensor {
	if l.xhat == nil {
		panic(fmt.Sprintf("nn: batchnorm %q Backward before training Forward", l.name))
	}
	groups, spatial := l.channelGeometry(l.shape)
	m := float64(groups * spatial)
	dx := l.ws.GetRaw("dx", l.shape...)
	for c := 0; c < l.C; c++ {
		gamma := l.Gamma.Value.Data[c]
		inv := l.invStd[c]
		var sumDy, sumDyXhat float64
		for g := 0; g < groups; g++ {
			base := (g*l.C + c) * spatial
			for s := 0; s < spatial; s++ {
				d := float64(dy.Data[base+s])
				sumDy += d
				sumDyXhat += d * float64(l.xhat.Data[base+s])
			}
		}
		l.Beta.Grad.Data[c] += float32(sumDy)
		l.Gamma.Grad.Data[c] += float32(sumDyXhat)
		// dx = gamma*inv/m * (m*dy − sum(dy) − xhat*sum(dy*xhat))
		k := float64(gamma) * float64(inv) / m
		for g := 0; g < groups; g++ {
			base := (g*l.C + c) * spatial
			for s := 0; s < spatial; s++ {
				d := float64(dy.Data[base+s])
				xh := float64(l.xhat.Data[base+s])
				dx.Data[base+s] = float32(k * (m*d - sumDy - xh*sumDyXhat))
			}
		}
	}
	return dx
}

// Params implements Layer.
func (l *BatchNorm) Params() []*Param { return []*Param{l.Gamma, l.Beta} }
