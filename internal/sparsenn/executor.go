package sparsenn

import (
	"dropback/internal/energy"
	"dropback/internal/nn"
	"dropback/internal/tensor"
)

// Executor runs inference on a shared Plan. It owns only per-replica
// activation scratch (the mirror layer tree with its workspaces) plus
// weight-traffic counters; all weight state lives in the Plan. Like an
// nn.Model, an Executor is single-goroutine-only — build one per concurrent
// worker, all from the same Plan.
type Executor struct {
	plan *Plan
	root nn.Layer
	// Weight-traffic accounting, incremented once per op forward (outside
	// the parallel regions, so counts are deterministic).
	trackedReads int64
	regens       int64
}

// NewExecutor builds an inference executor over the shared plan. The cost is
// activation scratch only: no weight state is copied.
func NewExecutor(p *Plan) *Executor {
	ex := &Executor{plan: p}
	ex.root = p.root.build(ex)
	return ex
}

// Plan returns the shared plan this executor runs on.
func (e *Executor) Plan() *Plan { return e.plan }

// Infer runs a forward pass on the sparse representation. The returned
// tensor is executor-owned scratch, valid until the next Infer call.
func (e *Executor) Infer(x *tensor.Tensor) *tensor.Tensor {
	return e.root.Forward(x, false)
}

// countWeights records one materialization pass over a weight group with
// `tracked` stored scalars out of `elems` total, repeated `times` times
// (worker chunks that each regenerate the group independently). Ops outside
// an executor (the training mirror) have a nil e and count nothing.
func (e *Executor) countWeights(tracked, elems, times int) {
	if e == nil {
		return
	}
	e.trackedReads += int64(tracked) * int64(times)
	e.regens += int64(elems-tracked) * int64(times)
}

// WeightTraffic returns the weight-access counters accumulated since the
// last reset as an energy.Counter: every tracked weight read is a storage
// (DRAM) read, every untracked weight is a regeneration. Activation traffic
// is not modeled — it is identical between the sparse and dense paths.
func (e *Executor) WeightTraffic() energy.Counter {
	return energy.Counter{
		DRAMReads:     e.trackedReads,
		Regenerations: e.regens,
	}
}

// ResetTraffic zeroes the weight-traffic counters.
func (e *Executor) ResetTraffic() {
	e.trackedReads, e.regens = 0, 0
}

// WeightBytes reports the executor's resident weight footprint split into
// the plan-shared portion (one copy per process) and the per-executor
// private portion (none — executors hold only activation scratch).
func (e *Executor) WeightBytes() (shared, private int) {
	return e.plan.WeightBytes(), 0
}
