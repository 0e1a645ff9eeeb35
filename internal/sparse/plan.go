package sparse

import (
	"fmt"

	"dropback/internal/energy"
	"dropback/internal/nn"
	"dropback/internal/tensor"
)

// Plan is an artifact compiled for serving straight off the pruned weight
// budget: a model whose Linear and Conv2D weights are CSR storage holding
// only the tracked entries, regenerating every untracked weight row by row
// inside the kernel loops, so the model is never densified. Small vectors
// (biases, batch norm scale and shift, PReLU slopes) stay dense, since
// their kernels read every element every pass anyway.
//
// Applying an artifact to a dense model regenerates all N weights into
// DRAM and reads them back on every forward pass; a plan keeps only the k
// tracked weights, the small vectors and the batch norm statistics
// resident, and re-derives the other N−k values at ~1.5 pJ each instead
// of a 640 pJ DRAM fetch (see internal/energy). Its forward pass is
// bit-identical to Apply followed by a dense forward: an untracked weight
// regenerates to exactly the value Apply writes, and nn.Linear and
// nn.Conv2D run one kernel over either storage.
//
// A plan is immutable after Compile and shared by every Executor built
// from it: one copy of the weight state per process, not per replica.
type Plan struct {
	model   *nn.Model
	total   int // total trainable scalars, n
	tracked int // artifact entries (stored weights), k
	// weightBytes is the resident footprint of all weight state in the
	// plan: CSR payloads, dense small vectors and batch norm statistics.
	weightBytes int
	// bnBytes is the batch norm share of weightBytes, which
	// DenseWeightBytes counts as DenseStorageBytes does.
	bnBytes int
}

// Compile builds a Plan from a freshly constructed prototype model (same
// constructor and seed as training) and an artifact: it moves the
// prototype's Linear and Conv2D weights onto empty CSR storage, drops its
// gradient buffers, and applies the artifact. The plan takes the
// prototype over; the caller must not use it afterwards. Layers that
// cannot be replicated (nn.Model.Replica), variational dropout among them,
// are rejected before the prototype is touched.
func Compile(m *nn.Model, a *Artifact) (*Plan, error) {
	if _, err := m.Replica(); err != nil {
		return nil, fmt.Errorf("sparse: %w", err)
	}
	nn.Walk(m.Net, func(l nn.Layer) {
		switch t := l.(type) {
		case *nn.Linear:
			toCSR(t.W, t.Out, t.In)
		case *nn.Conv2D:
			toCSR(t.W, t.OutC, t.InC*t.KH*t.KW)
		}
	})
	for _, p := range m.Set.Params() {
		p.Grad = nil
	}
	if err := a.Apply(m); err != nil {
		return nil, err
	}
	plan := &Plan{model: m, total: a.TotalParams, tracked: len(a.Entries)}
	for _, p := range m.Set.Params() {
		if p.CSR != nil {
			plan.weightBytes += 4 * (len(p.CSR.RowPtr) + len(p.CSR.Idx) + len(p.CSR.Val))
		} else {
			plan.weightBytes += 4 * p.Len()
		}
	}
	nn.Walk(m.Net, func(l nn.Layer) {
		if bn, ok := l.(*nn.BatchNorm); ok {
			plan.bnBytes += 8 * bn.C
		}
	})
	plan.weightBytes += plan.bnBytes
	return plan, nil
}

// toCSR moves weight w, seen as a rows×cols matrix, onto empty CSR storage.
func toCSR(w *nn.Param, rows, cols int) {
	w.CSR = nn.NewCSR(w.Init, rows, cols, nil, nil)
	w.Value = nil
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
// alternative: one full float32 copy of every parameter plus the same batch
// norm statistics, per replica.
func (p *Plan) DenseWeightBytes() int { return 4*p.total + p.bnBytes }

// Executor runs inference on a shared Plan through a replica of its model
// (nn.Model.Replica): it owns only activation scratch plus a pass counter,
// so adding one costs activation memory alone. Like an nn.Model, an
// Executor is single-goroutine-only — build one per concurrent worker,
// all from the same Plan.
type Executor struct {
	plan   *Plan
	m      *nn.Model
	passes int64 // Infer calls since the last ResetTraffic
}

// NewExecutor builds an inference executor over the shared plan.
func NewExecutor(p *Plan) *Executor {
	m, err := p.model.Replica()
	if err != nil {
		panic(err) // Compile has replicated this model already
	}
	return &Executor{plan: p, m: m}
}

// Plan returns the shared plan this executor runs on.
func (e *Executor) Plan() *Plan { return e.plan }

// Infer runs a forward pass on the sparse representation. The returned
// tensor is executor-owned scratch, valid until the next Infer call.
func (e *Executor) Infer(x *tensor.Tensor) *tensor.Tensor {
	e.passes++
	return e.m.Net.Forward(x, false)
}

// WeightTraffic returns the weight traffic of the Infer calls since the
// last reset as an energy.Counter. It is modelled from the artifact's
// (n, k), not measured in the kernels: each pass reads every stored weight
// once (a storage, i.e. DRAM, read) and regenerates every other weight
// once. That is the paper's per-pass traffic; a convolution split across
// worker chunks regenerates its filters once per chunk on a CPU, which the
// model does not add. Activation traffic is not modelled — it is identical
// between the sparse and dense paths.
func (e *Executor) WeightTraffic() energy.Counter {
	return energy.Counter{
		DRAMReads:     e.passes * int64(e.plan.tracked),
		Regenerations: e.passes * int64(e.plan.total-e.plan.tracked),
	}
}

// ResetTraffic zeroes the pass counter.
func (e *Executor) ResetTraffic() { e.passes = 0 }

// WeightBytes reports the executor's resident weight footprint split into
// the plan-shared portion (one copy per process) and the per-executor
// private portion (none — executors hold only activation scratch).
func (e *Executor) WeightBytes() (shared, private int) {
	return e.plan.WeightBytes(), 0
}
