package nn

import (
	"fmt"

	"dropback/internal/tensor"
)

// Replica returns a model that computes exactly what m computes, over the
// same weights: a fresh layer tree with its own workspaces and cached
// activations, whose every parameter is a new Param sharing the source's
// Value and CSR storage (and each BatchNorm its running statistics). A
// replica gets a private Grad only where the source parameter has one, and
// its own slab-emission binding; its parameter set has the source's layout.
// Dropout layers start at the source's sample count, and no telemetry
// recorder is installed.
//
// This is how one model becomes several concurrent ones — the W-worker
// trainer's shards and the serving pool's sparse executors — since a Model
// is single-goroutine-only. Replicas may run Forward concurrently with each
// other and the source while nothing writes the shared weights. A
// training-mode BatchNorm pass updates the shared running statistics, so
// replicas of a batch-norm model must not train concurrently. Layer types
// outside this package, variational dropout among them, are rejected.
func (m *Model) Replica() (*Model, error) {
	params := make(map[*Param]*Param, len(m.Set.Params()))
	net, err := replicaLayer(m.Net, params)
	if err != nil {
		return nil, err
	}
	r := &Model{Net: net, Set: NewParamSet(), Seed: m.Seed}
	for _, p := range m.Set.Params() {
		q, ok := params[p]
		if !ok {
			return nil, fmt.Errorf("nn: parameter %q is not reachable from the model's layers", p.Name)
		}
		r.Set.Register(q)
	}
	return r, nil
}

// replicaParam returns p's replica, made once per source parameter so a
// parameter shared between layers stays shared in the replica.
func replicaParam(p *Param, params map[*Param]*Param) *Param {
	if p == nil {
		return nil
	}
	if q, ok := params[p]; ok {
		return q
	}
	q := &Param{Name: p.Name, ID: p.ID, Value: p.Value, CSR: p.CSR, Init: p.Init}
	if p.Grad != nil {
		q.Grad = tensor.New(p.Grad.Shape...)
	}
	params[p] = q
	return q
}

// replicaLayers replicates each layer of ls.
func replicaLayers(ls []Layer, params map[*Param]*Param) ([]Layer, error) {
	out := make([]Layer, len(ls))
	for i, l := range ls {
		r, err := replicaLayer(l, params)
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

// replicaLayer builds one layer's replica and, for containers, its
// children's.
func replicaLayer(l Layer, params map[*Param]*Param) (Layer, error) {
	switch t := l.(type) {
	case *Sequential:
		children, err := replicaLayers(t.layers, params)
		if err != nil {
			return nil, err
		}
		return NewSequential(t.name, children...), nil
	case *Residual:
		parts, err := replicaLayers([]Layer{t.Body, t.Shortcut}, params)
		if err != nil {
			return nil, err
		}
		return NewResidual(t.name, parts[0], parts[1]), nil
	case *DenseBlock:
		units, err := replicaLayers(t.Units, params)
		if err != nil {
			return nil, err
		}
		return NewDenseBlock(t.name, t.InC, t.Growth, units...), nil
	case *Identity:
		return NewIdentity(t.name), nil
	case *Flatten:
		return NewFlatten(t.name), nil
	case *ReLU:
		return NewReLU(t.name), nil
	case *Dropout:
		d := NewDropout(t.name, t.seed, t.P)
		d.samples = t.samples
		return d, nil
	case *MaxPool2D:
		return NewMaxPool2D(t.name, t.K, t.Stride), nil
	case *AvgPool2D:
		return NewAvgPool2D(t.name, t.K, t.Stride), nil
	case *GlobalAvgPool2D:
		return NewGlobalAvgPool2D(t.name), nil
	case *PReLU:
		return NewPReLUOver(t.name, replicaParam(t.A, params)), nil
	case *BatchNorm:
		bn := NewBatchNormOver(t.name, t.C, t.Eps, replicaParam(t.Gamma, params), replicaParam(t.Beta, params),
			t.RunningMean, t.RunningVar)
		bn.Momentum = t.Momentum
		return bn, nil
	case *Linear:
		return NewLinearOver(t.name, t.In, t.Out, replicaParam(t.W, params), replicaParam(t.B, params)), nil
	case *Conv2D:
		return NewConv2DOver(t.name, t.InC, t.OutC, t.KH, t.Stride, t.Pad,
			replicaParam(t.W, params), replicaParam(t.B, params)), nil
	default:
		return nil, fmt.Errorf("nn: cannot replicate layer %q of type %T", l.Name(), l)
	}
}
