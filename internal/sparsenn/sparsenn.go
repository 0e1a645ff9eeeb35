// Package sparsenn executes frozen post-training models directly on the
// pruned weight budget: the compiled Plan holds the tracked weights of a
// sparse.Artifact as per-layer nn.CSR storage (the encoding the sparse
// trainer updates), and each executor runs the ordinary nn layers over it,
// which regenerate every untracked weight row by row as they compute — the
// model is never densified.
//
// This is the inference half of the paper's deployment contract made
// literal. Applying an artifact to a dense model regenerates all N weights
// into DRAM and then reads them back on every forward pass; computing on the
// artifact itself keeps only the k tracked weights (plus batch-norm
// statistics and the tiny materialized bias/gamma/beta vectors) resident,
// and re-derives the other N−k values inside the kernel loops at ~1.5 pJ
// each instead of a 640 pJ DRAM fetch (see internal/energy).
//
// Correctness contract: the sparse forward pass is bit-identical to
// Artifact.Apply followed by a dense forward. Regeneration is deterministic
// — an untracked weight regenerates to exactly the value Apply would have
// written — and nn.Linear and nn.Conv2D run one kernel over either storage,
// so exact equality holds by construction and is enforced by tests.
//
// Sharing contract: a Plan is immutable after Compile and is shared by every
// Executor built from it — one copy of the tracked weights per process, not
// per replica. Each Executor owns only its layers' activation scratch
// (workspaces), so it is single-goroutine-only like any nn.Model, but adding
// a replica costs activation memory alone.
package sparsenn

import (
	"fmt"
	"sort"

	"dropback/internal/nn"
	"dropback/internal/sparse"
	"dropback/internal/tensor"
)

// Plan is the compiled, immutable sparse execution form of one artifact
// applied to one architecture. It holds everything inference needs — CSR
// weights, materialized small parameter vectors, batch-norm statistics,
// and the layer topology — and is shared by every Executor built from it.
type Plan struct {
	total   int       // total trainable scalars
	tracked int       // artifact entries (stored weights)
	root    layerSpec // builds one executor's layer tree
	// weightBytes is the resident footprint of all weight state in the plan:
	// CSR payloads, materialized small vectors, and BN statistics.
	weightBytes int
	// bnBytes is the BN-statistics share of weightBytes, used to mirror
	// Artifact.DenseStorageBytes in DenseWeightBytes.
	bnBytes int
}

// TotalParams returns the model's total trainable scalar count.
func (p *Plan) TotalParams() int { return p.total }

// TrackedWeights returns the number of explicitly stored weights.
func (p *Plan) TrackedWeights() int { return p.tracked }

// WeightBytes returns the resident weight-state footprint of the plan: the
// bytes that must stay in memory to serve inference, shared across every
// executor. This is the number statsz reports as shared weight bytes.
func (p *Plan) WeightBytes() int { return p.weightBytes }

// DenseWeightBytes returns the resident weight footprint of the densified
// alternative: one full float32 copy of every parameter plus the same BN
// statistics, per replica.
func (p *Plan) DenseWeightBytes() int { return 4*p.total + p.bnBytes }

// Compile builds a Plan from a freshly constructed prototype model and a
// sparse artifact. The prototype supplies the architecture, parameter layout,
// and initialization recipes; its current weight values are ignored, exactly
// as Artifact.Apply ignores them (everything is regenerated, then overlaid).
// The prototype is not retained: once Compile returns it can be dropped, so
// the transient dense allocation does not outlive compilation.
//
// The artifact must match the prototype the way Apply requires — same seed,
// same total parameter count — and its entries must be strictly ascending
// (which sparse.Compress guarantees).
func Compile(m *nn.Model, art *sparse.Artifact) (*Plan, error) {
	if m.Seed != art.ModelSeed {
		return nil, fmt.Errorf("sparsenn: model seed %d does not match artifact seed %d", m.Seed, art.ModelSeed)
	}
	if m.Set.Total() != art.TotalParams {
		return nil, fmt.Errorf("sparsenn: model has %d parameters, artifact describes %d", m.Set.Total(), art.TotalParams)
	}
	for i, e := range art.Entries {
		if int(e.Index) >= art.TotalParams {
			return nil, fmt.Errorf("sparsenn: entry index %d out of range", e.Index)
		}
		if i > 0 && e.Index <= art.Entries[i-1].Index {
			return nil, fmt.Errorf("sparsenn: artifact entries not strictly ascending at %d", i)
		}
	}
	c := &compiler{
		set:     m.Set,
		entries: art.Entries,
		index:   make(map[*nn.Param]int, len(m.Set.Params())),
		bns:     art.BNs,
	}
	for i, p := range m.Set.Params() {
		c.index[p] = i
	}
	root, err := c.layer(m.Net)
	if err != nil {
		return nil, err
	}
	return &Plan{
		total:       art.TotalParams,
		tracked:     len(art.Entries),
		root:        root,
		weightBytes: c.weightBytes,
		bnBytes:     c.bnBytes,
	}, nil
}

// compiler carries the per-Compile state: the prototype's parameter address
// space, the artifact payload, and the resident-bytes accounting.
type compiler struct {
	set         *nn.ParamSet
	entries     []sparse.Entry
	index       map[*nn.Param]int
	bns         []nn.BNStats
	weightBytes int
	bnBytes     int
}

// span returns the artifact entries covering parameter p, plus p's base
// offset in the global address space.
func (c *compiler) span(p *nn.Param) (ents []sparse.Entry, base int) {
	base = c.set.Offset(c.index[p])
	end := base + p.Len()
	lo := sort.Search(len(c.entries), func(i int) bool { return int(c.entries[i].Index) >= base })
	hi := sort.Search(len(c.entries), func(i int) bool { return int(c.entries[i].Index) >= end })
	return c.entries[lo:hi], base
}

// csr builds the CSR storage of a big weight parameter seen as a (rows,
// cols) matrix — (Out, In) for Linear, (OutC, InC·KH·KW) for Conv2D — as a
// parameter with no dense value. Untracked elements are not stored
// anywhere: FillRow regenerates them from the initialization stream, which
// is exactly what Artifact.Apply writes into a dense model.
func (c *compiler) csr(p *nn.Param, rows, cols int) (*nn.Param, error) {
	if p.Len() != rows*cols {
		return nil, fmt.Errorf("sparsenn: parameter %q has %d elements, want %d×%d", p.Name, p.Len(), rows, cols)
	}
	ents, base := c.span(p)
	idx := make([]int32, len(ents))
	val := make([]float32, len(ents))
	for t, e := range ents {
		idx[t] = int32(int(e.Index) - base)
		val[t] = e.Value
	}
	w := nn.NewCSR(p.Init, rows, cols, idx, val)
	c.weightBytes += 4 * (len(w.RowPtr) + len(w.Idx) + len(w.Val))
	return &nn.Param{Name: p.Name, ID: p.ID, Init: p.Init, CSR: w}, nil
}

// dense materializes a small parameter (bias, gamma/beta, PReLU slope) as a
// plan-owned dense parameter — regeneration overlaid with the tracked
// entries. Small vectors are kept dense because CSR bookkeeping would cost
// more than it saves and their kernels read every element every pass anyway.
func (c *compiler) dense(p *nn.Param) *nn.Param {
	if p == nil {
		return nil
	}
	ents, base := c.span(p)
	vals := make([]float32, p.Len())
	p.Init.Fill(vals)
	for _, e := range ents {
		vals[int(e.Index)-base] = e.Value
	}
	c.weightBytes += 4 * len(vals)
	return &nn.Param{Name: p.Name, ID: p.ID, Init: p.Init, Value: tensor.FromSlice(vals, len(vals))}
}

// bnStats resolves a batch-norm layer's running statistics the way
// Artifact.Apply does: the prototype's current statistics, overlaid by the
// artifact's stored statistics when present.
func (c *compiler) bnStats(bn *nn.BatchNorm) (mean, variance []float32, err error) {
	mean = append([]float32(nil), bn.RunningMean...)
	variance = append([]float32(nil), bn.RunningVar...)
	s, err := nn.LookupBNStats(c.bns, bn)
	if err != nil {
		return nil, nil, fmt.Errorf("sparsenn: %w", err)
	}
	if s != nil {
		copy(mean, s.RunningMean)
		copy(variance, s.RunningVar)
	}
	c.weightBytes += 8 * bn.C
	c.bnBytes += 8 * bn.C
	return mean, variance, nil
}

// layerSpec builds one executor's instance of a compiled layer: a fresh nn
// layer (its own workspaces, per the nn concurrency contract) over the
// plan's shared weight state.
type layerSpec func() nn.Layer

// layers compiles a list of child layers.
func (c *compiler) layers(ls []nn.Layer) ([]layerSpec, error) {
	specs := make([]layerSpec, len(ls))
	for i, l := range ls {
		s, err := c.layer(l)
		if err != nil {
			return nil, err
		}
		specs[i] = s
	}
	return specs, nil
}

// build instantiates a list of compiled child layers.
func build(specs []layerSpec) []nn.Layer {
	out := make([]nn.Layer, len(specs))
	for i, s := range specs {
		out[i] = s()
	}
	return out
}

// layer compiles one prototype layer (and its children) into a spec. The
// type switch covers every layer the model zoo uses; anything else —
// including the variational-dropout layers, whose log-variance state has no
// sparse regeneration story — is rejected with an error rather than silently
// densified.
func (c *compiler) layer(l nn.Layer) (layerSpec, error) {
	name := l.Name()
	switch t := l.(type) {
	case *nn.Sequential:
		children, err := c.layers(t.Layers())
		if err != nil {
			return nil, err
		}
		return func() nn.Layer { return nn.NewSequential(name, build(children)...) }, nil
	case *nn.Residual:
		parts, err := c.layers([]nn.Layer{t.Body, t.Shortcut})
		if err != nil {
			return nil, err
		}
		return func() nn.Layer { return nn.NewResidual(name, parts[0](), parts[1]()) }, nil
	case *nn.DenseBlock:
		units, err := c.layers(t.Units)
		if err != nil {
			return nil, err
		}
		inC, growth := t.InC, t.Growth
		return func() nn.Layer { return nn.NewDenseBlock(name, inC, growth, build(units)...) }, nil
	case *nn.Identity, *nn.Dropout:
		// Inference-mode dropout is the identity (inverted dropout scales at
		// training time), so the executor drops the layer entirely.
		return func() nn.Layer { return nn.NewIdentity(name) }, nil
	case *nn.Flatten:
		return func() nn.Layer { return nn.NewFlatten(name) }, nil
	case *nn.ReLU:
		return func() nn.Layer { return nn.NewReLU(name) }, nil
	case *nn.MaxPool2D:
		k, stride := t.K, t.Stride
		return func() nn.Layer { return nn.NewMaxPool2D(name, k, stride) }, nil
	case *nn.AvgPool2D:
		k, stride := t.K, t.Stride
		return func() nn.Layer { return nn.NewAvgPool2D(name, k, stride) }, nil
	case *nn.GlobalAvgPool2D:
		return func() nn.Layer { return nn.NewGlobalAvgPool2D(name) }, nil
	case *nn.PReLU:
		a := c.dense(t.A)
		return func() nn.Layer { return nn.NewPReLUOver(name, a) }, nil
	case *nn.BatchNorm:
		gamma, beta := c.dense(t.Gamma), c.dense(t.Beta)
		mean, variance, err := c.bnStats(t)
		if err != nil {
			return nil, err
		}
		ch, eps := t.C, t.Eps
		return func() nn.Layer { return nn.NewBatchNormOver(name, ch, eps, gamma, beta, mean, variance) }, nil
	case *nn.Linear:
		w, err := c.csr(t.W, t.Out, t.In)
		if err != nil {
			return nil, err
		}
		b := c.dense(t.B)
		in, out := t.In, t.Out
		return func() nn.Layer { return nn.NewLinearOver(name, in, out, w, b) }, nil
	case *nn.Conv2D:
		w, err := c.csr(t.W, t.OutC, t.InC*t.KH*t.KW)
		if err != nil {
			return nil, err
		}
		b := c.dense(t.B)
		inC, outC, k, stride, pad := t.InC, t.OutC, t.KH, t.Stride, t.Pad
		return func() nn.Layer { return nn.NewConv2DOver(name, inC, outC, k, stride, pad, w, b) }, nil
	default:
		return nil, fmt.Errorf("sparsenn: unsupported layer type %T (%s)", l, l.Name())
	}
}
