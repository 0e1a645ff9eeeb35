package sparse_test

import (
	"testing"

	"dropback/internal/models"
	"dropback/internal/nn"
	"dropback/internal/sparse"
	"dropback/internal/tensor"
)

// benchSetup compresses a perturbed model at ~20× and returns the artifact
// plus a dense model with the artifact applied.
func benchSetup(b *testing.B, build func(seed uint64) *nn.Model) (*sparse.Artifact, *nn.Model, *sparse.Executor) {
	trained := build(1)
	perturb(trained, 0.05, 7)
	art := sparse.Compress(trained)
	dense := build(1)
	if err := art.Apply(dense); err != nil {
		b.Fatal(err)
	}
	plan, err := sparse.Compile(build(1), art)
	if err != nil {
		b.Fatal(err)
	}
	return art, dense, sparse.NewExecutor(plan)
}

// reportWeightBytes attaches the resident-weight metrics so the benchmark
// output records the memory collapse alongside ns/op (benchguard ignores
// extra ReportMetric columns).
func reportWeightBytes(b *testing.B, plan *sparse.Plan, sparsePath bool) {
	if sparsePath {
		b.ReportMetric(float64(plan.WeightBytes()), "weightB/replica")
	} else {
		b.ReportMetric(float64(plan.DenseWeightBytes()), "weightB/replica")
	}
}

// The forward benchmarks compare the two inference paths on the same
// artifact at the paper's ~20× compression: the dense path reads a full
// per-replica weight copy from memory; the sparse path reads the shared CSR
// payload and regenerates untracked weights in registers.

func BenchmarkSparseForward(b *testing.B) {
	b.Run("mlp", func(b *testing.B) {
		_, _, ex := benchSetup(b, models.MNIST100100)
		x := tensor.New(8, 784)
		ex.Infer(x) // warm workspaces
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ex.Infer(x)
		}
		reportWeightBytes(b, ex.Plan(), true)
	})
	b.Run("conv", func(b *testing.B) {
		_, _, ex := benchSetup(b, func(seed uint64) *nn.Model {
			return models.NewVGGS(models.VGGSReduced(12, 8, seed, nil))
		})
		x := tensor.New(8, 3, 12, 12)
		ex.Infer(x)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ex.Infer(x)
		}
		reportWeightBytes(b, ex.Plan(), true)
	})
}

func BenchmarkDenseForward(b *testing.B) {
	b.Run("mlp", func(b *testing.B) {
		_, dense, ex := benchSetup(b, models.MNIST100100)
		x := tensor.New(8, 784)
		dense.Net.Forward(x, false)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dense.Net.Forward(x, false)
		}
		reportWeightBytes(b, ex.Plan(), false)
	})
	b.Run("conv", func(b *testing.B) {
		_, dense, ex := benchSetup(b, func(seed uint64) *nn.Model {
			return models.NewVGGS(models.VGGSReduced(12, 8, seed, nil))
		})
		x := tensor.New(8, 3, 12, 12)
		dense.Net.Forward(x, false)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dense.Net.Forward(x, false)
		}
		reportWeightBytes(b, ex.Plan(), false)
	})
}
