// Package sparsenn executes frozen post-training models directly on the
// pruned weight budget: the compiled Plan holds the tracked weights of a
// sparse.Artifact as per-layer core.TrackedTensor CSR views (the encoding
// the sparse trainer updates), and the executor's fused kernels stream every
// untracked weight from the xorshift initialization stream in registers —
// the model is never densified.
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
// written — and each sparse kernel performs the same float32 operations in
// the same per-element order as its dense counterpart (see ops.go), so
// exact equality is achievable and is enforced by tests.
//
// Sharing contract: a Plan is immutable after Compile and is shared by every
// Executor built from it — one copy of the tracked weights per process, not
// per replica. Each Executor owns only activation scratch (workspaces), so
// it is single-goroutine-only like any nn.Model, but adding a replica costs
// activation memory alone.
package sparsenn

import (
	"fmt"
	"sort"

	"dropback/internal/core"
	"dropback/internal/nn"
	"dropback/internal/sparse"
)

// Plan is the compiled, immutable sparse execution form of one artifact
// applied to one architecture. It holds everything inference needs — CSR
// weight views, materialized small parameter vectors, batch-norm statistics,
// and the layer topology — and is shared by every Executor built from it.
type Plan struct {
	seed    uint64
	total   int // total trainable scalars
	tracked int // artifact entries (stored weights)
	root    layerSpec
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
		bns:     make(map[string]sparse.BNStats, len(art.BNs)),
	}
	for i, p := range m.Set.Params() {
		c.index[p] = i
	}
	for _, b := range art.BNs {
		c.bns[b.Name] = b
	}
	root, err := c.layer(m.Net)
	if err != nil {
		return nil, err
	}
	return &Plan{
		seed:        art.ModelSeed,
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
	bns         map[string]sparse.BNStats
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

// csr builds the CSR view of a big weight parameter seen as a (rows, cols)
// matrix — (Out, In) for Linear, (OutC, InC·KH·KW) for Conv2D. Untracked
// elements are not stored anywhere: FillRow regenerates them from the
// initialization stream, which is exactly what Artifact.Apply writes into a
// dense model.
func (c *compiler) csr(p *nn.Param, rows, cols int) (*core.TrackedTensor, error) {
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
	w := core.NewTrackedTensor(p.Init, rows, cols, idx, val)
	c.weightBytes += 4 * (len(w.RowPtr) + len(w.Idx) + len(w.Val))
	return w, nil
}

// dense materializes a small parameter (bias, gamma/beta, PReLU slope) as a
// plan-owned float32 vector — regeneration overlaid with the tracked entries
// — and reports how many of its elements the artifact stores. Small vectors
// are kept dense because CSR bookkeeping would cost more than it saves and
// their kernels read every element every pass anyway.
func (c *compiler) dense(p *nn.Param) (vals []float32, tracked int) {
	ents, base := c.span(p)
	vals = make([]float32, p.Len())
	p.Init.Fill(vals)
	for _, e := range ents {
		vals[int(e.Index)-base] = e.Value
	}
	c.weightBytes += 4 * len(vals)
	return vals, len(ents)
}

// bnStats resolves a batch-norm layer's running statistics the way
// Artifact.Apply does: the prototype's current statistics, overlaid by the
// artifact's stored statistics when present.
func (c *compiler) bnStats(bn *nn.BatchNorm) (mean, variance []float32, err error) {
	mean = append([]float32(nil), bn.RunningMean...)
	variance = append([]float32(nil), bn.RunningVar...)
	if blob, ok := c.bns[bn.Name()]; ok {
		if len(blob.RunningMean) != bn.C {
			return nil, nil, fmt.Errorf("sparsenn: batch norm %q channel mismatch", bn.Name())
		}
		copy(mean, blob.RunningMean)
		copy(variance, blob.RunningVar)
	}
	c.weightBytes += 8 * bn.C
	c.bnBytes += 8 * bn.C
	return mean, variance, nil
}

// layer compiles one prototype layer (and its children) into a spec. The
// type switch covers every layer the model zoo uses; anything else —
// including the variational-dropout layers, whose log-variance state has no
// sparse regeneration story — is rejected with an error rather than silently
// densified.
func (c *compiler) layer(l nn.Layer) (layerSpec, error) {
	switch t := l.(type) {
	case *nn.Sequential:
		children := make([]layerSpec, 0, len(t.Layers()))
		for _, child := range t.Layers() {
			cs, err := c.layer(child)
			if err != nil {
				return nil, err
			}
			children = append(children, cs)
		}
		return &seqSpec{name: t.Name(), children: children}, nil
	case *nn.Residual:
		body, err := c.layer(t.Body)
		if err != nil {
			return nil, err
		}
		shortcut, err := c.layer(t.Shortcut)
		if err != nil {
			return nil, err
		}
		return &resSpec{name: t.Name(), body: body, shortcut: shortcut}, nil
	case *nn.DenseBlock:
		units := make([]layerSpec, 0, len(t.Units))
		for _, u := range t.Units {
			us, err := c.layer(u)
			if err != nil {
				return nil, err
			}
			units = append(units, us)
		}
		return &denseBlockSpec{name: t.Name(), inC: t.InC, growth: t.Growth, units: units}, nil
	case *nn.Identity:
		return &identitySpec{name: t.Name()}, nil
	case *nn.Flatten:
		return &flattenSpec{name: t.Name()}, nil
	case *nn.ReLU:
		return &reluSpec{name: t.Name()}, nil
	case *nn.Dropout:
		// Inference-mode dropout is the identity (inverted dropout scales at
		// training time), so the sparse mirror drops the layer entirely.
		return &identitySpec{name: t.Name()}, nil
	case *nn.MaxPool2D:
		return &maxPoolSpec{name: t.Name(), k: t.K, stride: t.Stride}, nil
	case *nn.AvgPool2D:
		return &avgPoolSpec{name: t.Name(), k: t.K, stride: t.Stride}, nil
	case *nn.GlobalAvgPool2D:
		return &gapSpec{name: t.Name()}, nil
	case *nn.PReLU:
		a, tracked := c.dense(t.A)
		return &preluSpec{name: t.Name(), a: a[0], tracked: tracked, elems: len(a)}, nil
	case *nn.BatchNorm:
		gamma, gTracked := c.dense(t.Gamma)
		beta, bTracked := c.dense(t.Beta)
		mean, variance, err := c.bnStats(t)
		if err != nil {
			return nil, err
		}
		return &bnSpec{
			name: t.Name(), c: t.C, eps: t.Eps,
			gamma: gamma, beta: beta, mean: mean, variance: variance,
			tracked: gTracked + bTracked, elems: 2 * t.C,
		}, nil
	case *nn.Linear:
		w, err := c.csr(t.W, t.Out, t.In)
		if err != nil {
			return nil, err
		}
		s := &linearSpec{name: t.Name(), in: t.In, out: t.Out, w: w}
		if t.B != nil {
			s.bias, s.biasTracked = c.dense(t.B)
		}
		return s, nil
	case *nn.Conv2D:
		w, err := c.csr(t.W, t.OutC, t.InC*t.KH*t.KW)
		if err != nil {
			return nil, err
		}
		s := &convSpec{
			name: t.Name(), inC: t.InC, outC: t.OutC,
			kh: t.KH, kw: t.KW, stride: t.Stride, pad: t.Pad, w: w,
		}
		if t.B != nil {
			s.bias, s.biasTracked = c.dense(t.B)
		}
		return s, nil
	default:
		return nil, fmt.Errorf("sparsenn: unsupported layer type %T (%s)", l, l.Name())
	}
}
