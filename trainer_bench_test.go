package dropback

import (
	"fmt"
	"testing"

	"dropback/internal/core"
	"dropback/internal/optim"
	"dropback/internal/tensor"
	"dropback/internal/xorshift"
)

// BenchmarkTrainStep measures one optimizer step of the MNIST-100-100 MLP
// at batch 32 across data-parallel worker counts. Workers=1 is the
// sequential Model.Step path; higher counts run the shard-parallel
// executor, whose results are bit-identical (see trainer_parallel_test.go)
// so this benchmark isolates pure execution cost. cmd/benchguard enforces
// the allocs/op ceilings committed in BENCH_train.json.
func BenchmarkTrainStep(b *testing.B) {
	const batch = 32
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			m := MNIST100100(1)
			x := tensor.New(batch, 784)
			for i := range x.Data {
				x.Data[i] = xorshift.IndexedUniform(3, uint64(i))
			}
			labels := make([]int, batch)
			for i := range labels {
				labels[i] = i % 10
			}
			sgd := optim.NewSGD(0.1)
			stepFn := m.Step
			if workers > 1 {
				exec, err := newShardExecutor(m, workers, nil)
				if err != nil {
					b.Fatal(err)
				}
				stepFn = exec.Step
			}
			stepFn(x, labels) // warm the workspaces and the gradient slab
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				stepFn(x, labels)
				sgd.Step(m.Set)
			}
		})
	}
}

// BenchmarkSparseTrainStep measures one sparse-native optimizer step of the
// MNIST-100-100 MLP at batch 32 in the frozen steady state, where the
// tracked-set engine's weight state scales with the budget k rather than
// the parameter count n. Besides allocs/op and ns/op, it reports the
// engine's measured weight-state footprint (tracked-bytes) and its fraction
// of the dense trainer's value+gradient state (weight-state-frac);
// cmd/benchguard gates all four against BENCH_train.json, which pins the
// paper's train-on-the-pruned-budget memory claim in CI.
func BenchmarkSparseTrainStep(b *testing.B) {
	const batch = 32
	const budget = 8961 // 10% of the 89610-parameter MLP
	m := MNIST100100(1)
	eng := core.New(m.Set, core.Config{Budget: budget, FreezeAfterEpoch: 0})
	if err := virtualizeWeights(m, eng); err != nil {
		b.Fatal(err)
	}
	x := tensor.New(batch, 784)
	for i := range x.Data {
		x.Data[i] = xorshift.IndexedUniform(3, uint64(i))
	}
	labels := make([]int, batch)
	for i := range labels {
		labels[i] = i % 10
	}
	sgd := optim.NewSGD(0.1)
	// One pre-freeze step selects the tracked set, then freezing drops the
	// dense candidate state; one frozen step warms the steady-state
	// workspaces the loop reuses.
	m.Step(x, labels)
	eng.Update(sgd)
	eng.MaybeFreezeAtEpochEnd(0)
	m.Step(x, labels)
	eng.Update(sgd)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Step(x, labels)
		eng.Update(sgd)
	}
	b.StopTimer()
	tracked := float64(eng.WeightStateBytes())
	dense := float64(eng.DenseWeightStateBytes())
	b.ReportMetric(tracked, "tracked-bytes")
	b.ReportMetric(tracked/dense, "weight-state-frac")
}
