package sparse_test

import (
	"math"
	"math/rand"
	"testing"

	"dropback/internal/models"
	"dropback/internal/nn"
	"dropback/internal/prune"
	"dropback/internal/sparse"
	"dropback/internal/tensor"
)

// perturb mutates a deterministic fraction of the model's weights away from
// their initialization (so Compress stores them) and gives every batch-norm
// layer non-trivial running statistics, simulating a trained model.
func perturb(m *nn.Model, fraction float64, rngSeed int64) {
	rng := rand.New(rand.NewSource(rngSeed))
	total := m.Set.Total()
	for i := 0; i < total; i++ {
		if rng.Float64() < fraction {
			m.Set.Set(i, float32(rng.NormFloat64())*0.2)
		}
	}
	nn.Walk(m.Net, func(l nn.Layer) {
		if bn, ok := l.(*nn.BatchNorm); ok {
			for c := range bn.RunningMean {
				bn.RunningMean[c] = float32(rng.NormFloat64()) * 0.5
				bn.RunningVar[c] = float32(0.5 + rng.Float64())
			}
		}
	})
}

// input builds a deterministic pseudo-random input tensor.
func input(rngSeed int64, shape ...int) *tensor.Tensor {
	rng := rand.New(rand.NewSource(rngSeed))
	x := tensor.New(shape...)
	for i := range x.Data {
		x.Data[i] = float32(rng.NormFloat64())
	}
	return x
}

// registry mirrors the CLI model registries plus the BN+PReLU MLP, covering
// every layer type the sparse compiler supports.
var registry = []struct {
	name  string
	build func(seed uint64) *nn.Model
	shape []int // per-sample input shape
}{
	{"mnist100", models.MNIST100100, []int{784}},
	{"lenet300", models.LeNet300100, []int{784}},
	{"bn-prelu-mlp", func(seed uint64) *nn.Model {
		return models.NewMLPWithBNPReLU("bnp", 64, []int{32, 16}, 10, seed, nil)
	}, []int{64}},
	{"vggs-reduced", func(seed uint64) *nn.Model {
		return models.NewVGGS(models.VGGSReduced(12, 8, seed, nil))
	}, []int{3, 12, 12}},
	{"wrn-reduced", func(seed uint64) *nn.Model {
		return models.NewWRN(models.WRNReduced(10, 2, seed, nil))
	}, []int{3, 12, 12}},
	{"densenet-reduced", func(seed uint64) *nn.Model {
		return models.NewDenseNet(models.DenseNetReduced(13, 6, seed, nil))
	}, []int{3, 12, 12}},
}

// TestSparseForwardBitIdentical is the tentpole correctness gate: for every
// supported architecture, executing straight off the artifact must produce
// outputs byte-for-byte equal to Artifact.Apply followed by a dense forward.
func TestSparseForwardBitIdentical(t *testing.T) {
	const seed = 7
	for _, tc := range registry {
		t.Run(tc.name, func(t *testing.T) {
			trained := tc.build(seed)
			perturb(trained, 0.05, 11)
			art := sparse.Compress(trained)
			if art.StoredWeights() == 0 {
				t.Fatal("perturbation produced an empty artifact")
			}

			dense := tc.build(seed)
			if err := art.Apply(dense); err != nil {
				t.Fatalf("Apply: %v", err)
			}
			plan, err := sparse.Compile(tc.build(seed), art)
			if err != nil {
				t.Fatalf("Compile: %v", err)
			}
			ex := sparse.NewExecutor(plan)

			for _, n := range []int{1, 5} {
				x := input(int64(100+n), append([]int{n}, tc.shape...)...)
				want := dense.Net.Forward(x, false)
				got := ex.Infer(x)
				if len(got.Data) != len(want.Data) {
					t.Fatalf("batch %d: output length %d, want %d", n, len(got.Data), len(want.Data))
				}
				for i := range want.Data {
					if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
						t.Fatalf("batch %d: output[%d] = %x, want %x (%g vs %g)",
							n, i, math.Float32bits(got.Data[i]), math.Float32bits(want.Data[i]),
							got.Data[i], want.Data[i])
					}
				}
			}
		})
	}
}

// TestCompileRejectsVariational: variational-dropout layers carry
// log-variance state with no sparse regeneration story and must be rejected,
// not silently densified.
func TestCompileRejectsVariational(t *testing.T) {
	m := models.NewVGGS(models.VGGSReduced(12, 8, 1, prune.Variational{}))
	perturb(m, 0.05, 3)
	art := sparse.Compress(m)
	if _, err := sparse.Compile(models.NewVGGS(models.VGGSReduced(12, 8, 1, prune.Variational{})), art); err == nil {
		t.Fatal("expected unsupported-layer error for variational model")
	}
}

// TestExecutorsSharePlan: two executors over one plan must agree bit-for-bit
// and report the same shared footprint with zero private weight bytes.
func TestExecutorsSharePlan(t *testing.T) {
	trained := models.MNIST100100(3)
	perturb(trained, 0.05, 5)
	art := sparse.Compress(trained)
	plan, err := sparse.Compile(models.MNIST100100(3), art)
	if err != nil {
		t.Fatal(err)
	}
	a, b := sparse.NewExecutor(plan), sparse.NewExecutor(plan)
	x := input(9, 4, 784)
	ya, yb := a.Infer(x), b.Infer(x)
	for i := range ya.Data {
		if math.Float32bits(ya.Data[i]) != math.Float32bits(yb.Data[i]) {
			t.Fatalf("executors disagree at %d", i)
		}
	}
	shared, private := a.WeightBytes()
	if shared != plan.WeightBytes() || private != 0 {
		t.Fatalf("WeightBytes() = (%d, %d), want (%d, 0)", shared, private, plan.WeightBytes())
	}
}

// TestWeightBytesCollapse is the acceptance-criteria memory bar: at ≥20×
// compression the plan's resident weight bytes must be at least 5× below the
// dense per-replica footprint.
func TestWeightBytesCollapse(t *testing.T) {
	trained := models.MNIST100100(1)
	perturb(trained, 0.05, 7) // ~5% tracked → ~20× compression
	art := sparse.Compress(trained)
	if r := art.CompressionRatio(); r < 20 {
		t.Fatalf("setup: compression ratio %.1f, want >= 20", r)
	}
	plan, err := sparse.Compile(models.MNIST100100(1), art)
	if err != nil {
		t.Fatal(err)
	}
	sparseBytes, denseBytes := plan.WeightBytes(), plan.DenseWeightBytes()
	if sparseBytes*5 > denseBytes {
		t.Fatalf("resident weight bytes %d not >=5x below dense %d", sparseBytes, denseBytes)
	}
	t.Logf("resident weight bytes: sparse %d vs dense %d (%.1fx) at %.1fx compression",
		sparseBytes, denseBytes, float64(denseBytes)/float64(sparseBytes), art.CompressionRatio())
}

// TestSparseForwardAllocFree: the MLP sparse path must not allocate at
// steady state (workspaces are warm after the first pass; small batches stay
// single-chunk so no goroutine fan-out allocates either).
func TestSparseForwardAllocFree(t *testing.T) {
	trained := models.MNIST100100(1)
	perturb(trained, 0.05, 7)
	art := sparse.Compress(trained)
	plan, err := sparse.Compile(models.MNIST100100(1), art)
	if err != nil {
		t.Fatal(err)
	}
	ex := sparse.NewExecutor(plan)
	x := input(2, 4, 784)
	ex.Infer(x) // warm the workspaces
	if allocs := testing.AllocsPerRun(10, func() { ex.Infer(x) }); allocs != 0 {
		t.Fatalf("steady-state sparse forward allocates %.0f times per run", allocs)
	}
}
