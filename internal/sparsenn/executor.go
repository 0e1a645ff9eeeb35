package sparsenn

import (
	"dropback/internal/energy"
	"dropback/internal/nn"
	"dropback/internal/tensor"
)

// Executor runs inference on a shared Plan. It owns only per-replica
// activation scratch (its nn layer tree's workspaces) plus a pass counter;
// all weight state lives in the Plan. Like an nn.Model, an
// Executor is single-goroutine-only — build one per concurrent worker, all
// from the same Plan.
type Executor struct {
	plan   *Plan
	root   nn.Layer
	passes int64 // Infer calls since the last ResetTraffic
}

// NewExecutor builds an inference executor over the shared plan. The cost is
// activation scratch only: no weight state is copied.
func NewExecutor(p *Plan) *Executor {
	return &Executor{plan: p, root: p.root()}
}

// Plan returns the shared plan this executor runs on.
func (e *Executor) Plan() *Plan { return e.plan }

// Infer runs a forward pass on the sparse representation. The returned
// tensor is executor-owned scratch, valid until the next Infer call.
func (e *Executor) Infer(x *tensor.Tensor) *tensor.Tensor {
	e.passes++
	return e.root.Forward(x, false)
}

// WeightTraffic returns the weight traffic of the Infer calls since the
// last reset as an energy.Counter. It is modelled from the plan, not
// measured in the kernels: each pass reads every stored weight once (a
// storage, i.e. DRAM, read) and regenerates every other weight once. That
// is the paper's per-pass traffic; a convolution split across worker
// chunks regenerates its filters once per chunk on a CPU, which the model
// does not add. Activation traffic is not modelled — it is identical
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
