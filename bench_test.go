// Benchmarks regenerating every table and figure of the paper, plus the
// ablations and kernel microbenchmarks. Each Benchmark<Artifact> runs the
// corresponding experiment at quick scale; run the cmd/experiments binary
// for the full-scale versions.
//
//	go test -bench=. -benchmem
package dropback_test

import (
	"fmt"
	"io"
	"testing"

	"dropback"
	"dropback/internal/core"
	"dropback/internal/experiments"
	"dropback/internal/nn"
	"dropback/internal/optim"
	"dropback/internal/tensor"
	"dropback/internal/xorshift"
)

func benchOpts() experiments.Options {
	return experiments.Options{Seed: 42, Quick: true, Out: io.Discard}
}

// --- One benchmark per paper artifact -------------------------------------

func BenchmarkFig1AccumulatedGradientKDE(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunFig1(benchOpts())
		if r.Summary.N == 0 {
			b.Fatal("empty Fig 1 result")
		}
	}
}

func BenchmarkFig2TrackedSetChurn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunFig2(benchOpts())
		if len(r.SwapHistory) == 0 {
			b.Fatal("empty Fig 2 result")
		}
	}
}

func BenchmarkTable1MNISTCompression(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunTable1(benchOpts())
		if len(r.Rows) != 8 {
			b.Fatal("Table 1 incomplete")
		}
	}
}

func BenchmarkTable2LayerRetention(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunTable2(benchOpts())
		if len(r.Rows) != 3 {
			b.Fatal("Table 2 incomplete")
		}
	}
}

func BenchmarkFig3LeNetConvergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunFig3(benchOpts())
		if len(r.Baseline.Y) == 0 {
			b.Fatal("Fig 3 incomplete")
		}
	}
}

func BenchmarkTable3CIFARMethods(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunTable3(benchOpts())
		if len(r.Rows) == 0 {
			b.Fatal("Table 3 incomplete")
		}
	}
}

func BenchmarkFig4VGGSConvergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunFig4(benchOpts())
		if len(r.Baseline.Y) == 0 {
			b.Fatal("Fig 4 incomplete")
		}
	}
}

func BenchmarkFig5DiffusionAndFig6PCA(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f5, f6 := experiments.RunFig5And6(benchOpts())
		if len(f5.Runs) != 5 || len(f6.Labels) != 5 {
			b.Fatal("Fig 5/6 incomplete")
		}
	}
}

func BenchmarkEnergyClaim(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunEnergyClaim(benchOpts())
		if r.RegenVsDRAM < 400 {
			b.Fatal("energy claim broken")
		}
	}
}

func BenchmarkTrafficReport(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunTrafficReport(benchOpts())
		if len(r.Rows) == 0 {
			b.Fatal("traffic report incomplete")
		}
	}
}

// --- Ablations (DESIGN.md §3) ----------------------------------------------

func BenchmarkAblationZeroVsRegen(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if rows := experiments.RunAblationZeroVsRegen(benchOpts()); len(rows) != 2 {
			b.Fatal("ablation incomplete")
		}
	}
}

func BenchmarkAblationSelectionCriterion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if rows := experiments.RunAblationSelection(benchOpts()); len(rows) != 2 {
			b.Fatal("ablation incomplete")
		}
	}
}

func BenchmarkAblationFreezeEpoch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if rows := experiments.RunAblationFreeze(benchOpts()); len(rows) != 6 {
			b.Fatal("ablation incomplete")
		}
	}
}

// --- Extension experiments (§3, §5, §6 claims) -------------------------------

func BenchmarkExtensionScale(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if r := experiments.RunScale(benchOpts()); len(r.Rows) != 3 {
			b.Fatal("scale experiment incomplete")
		}
	}
}

func BenchmarkExtensionMemory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if r := experiments.RunMemory(benchOpts()); len(r.Rows) != 4 {
			b.Fatal("memory experiment incomplete")
		}
	}
}

func BenchmarkExtensionArtifact(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if r := experiments.RunArtifact(benchOpts()); r.StoredWeights == 0 {
			b.Fatal("artifact experiment incomplete")
		}
	}
}

// --- Kernel microbenchmarks -------------------------------------------------

func BenchmarkTopK(b *testing.B) {
	scores := make([]float32, 266610) // LeNet-300-100 sized
	for i := range scores {
		scores[i] = xorshift.IndexedNormal(1, uint64(i))
	}
	// Inject the duplicate-heavy regime DropBack actually sees.
	for i := 0; i < len(scores); i += 3 {
		scores[i] = 0
	}
	mask := make([]bool, len(scores))
	for i := 0; i < b.N; i++ {
		core.SelectTopKInto(mask, scores, 20000)
	}
}

func BenchmarkWeightRegeneration(b *testing.B) {
	in := xorshift.Init{Kind: xorshift.InitScaledNormal, Seed: 7, Scale: 0.05}
	b.ReportAllocs()
	var sink float32
	for i := 0; i < b.N; i++ {
		sink += in.Regenerate(i & 0xFFFF)
	}
	_ = sink
}

// BenchmarkDropBackUpdate measures one DropBack Update, the dense SGD step
// plus the constraint pass, on the MNIST-100-100 MLP's dense storage at a
// 10% budget (8961 of 89610 weights). Live scores, selects and resets every
// weight; frozen steps only the tracked weights.
// The gradients are a fixed synthetic stream, so the forward and backward
// passes stay out of the measurement. The steady state allocates nothing
// (the swap series, which grows by one int per step, is disabled);
// cmd/benchguard gates allocs/op and ns/op against BENCH_train.json.
func BenchmarkDropBackUpdate(b *testing.B) {
	for _, phase := range []string{"live", "frozen"} {
		b.Run(phase, func(b *testing.B) {
			m := dropback.MNIST100100(1)
			db := core.New(m.Set, core.Config{Budget: 8961, FreezeAfterEpoch: -1, DisableSwapHistory: true})
			for _, p := range m.Set.Params() {
				for e := range p.Grad.Data {
					p.Grad.Data[e] = 0.02*xorshift.IndexedUniform(p.ID, uint64(e)) - 0.01
				}
			}
			sgd := optim.NewSGD(0.1)
			db.Update(sgd) // the first selection
			if phase == "frozen" {
				db.Freeze()
				db.Update(sgd) // the first frozen pass settles the engine
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				db.Update(sgd)
			}
		})
	}
}

func BenchmarkMatMul(b *testing.B) {
	x := tensor.New(64, 256)
	w := tensor.New(256, 128)
	for i := range x.Data {
		x.Data[i] = xorshift.IndexedNormal(1, uint64(i))
	}
	for i := range w.Data {
		w.Data[i] = xorshift.IndexedNormal(2, uint64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMul(x, w)
	}
}

// BenchmarkMatMulSizes sweeps the blocked kernel across shapes on both sides
// of the parallel threshold, in the allocating and workspace (Into) forms.
func BenchmarkMatMulSizes(b *testing.B) {
	for _, dims := range [][3]int{{32, 128, 64}, {64, 256, 128}, {128, 512, 256}} {
		m, k, n := dims[0], dims[1], dims[2]
		x := tensor.New(m, k)
		w := tensor.New(k, n)
		for i := range x.Data {
			x.Data[i] = xorshift.IndexedNormal(1, uint64(i))
		}
		for i := range w.Data {
			w.Data[i] = xorshift.IndexedNormal(2, uint64(i))
		}
		b.Run(fmt.Sprintf("alloc/%dx%dx%d", m, k, n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tensor.MatMul(x, w)
			}
		})
		dst := tensor.New(m, n)
		b.Run(fmt.Sprintf("into/%dx%dx%d", m, k, n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tensor.MatMulInto(dst, x, w)
			}
		})
	}
}

func BenchmarkMLPTrainStep(b *testing.B) {
	m := dropback.MNIST100100(1)
	x := tensor.New(32, 784)
	for i := range x.Data {
		x.Data[i] = xorshift.IndexedUniform(3, uint64(i))
	}
	labels := make([]int, 32)
	for i := range labels {
		labels[i] = i % 10
	}
	sgd := optim.NewSGD(0.1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Step(x, labels)
		sgd.Step(m.Set)
	}
}

func BenchmarkIm2Col(b *testing.B) {
	x := tensor.New(3, 32, 32)
	for i := range x.Data {
		x.Data[i] = xorshift.IndexedUniform(5, uint64(i))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tensor.Im2Col(x, 3, 3, 1, 1)
	}
}

// BenchmarkIm2ColInto measures the workspace form: lowering into a reused
// buffer, the exact call the batch-parallel convolution makes per sample.
func BenchmarkIm2ColInto(b *testing.B) {
	x := tensor.New(3, 32, 32)
	for i := range x.Data {
		x.Data[i] = xorshift.IndexedUniform(5, uint64(i))
	}
	dst := make([]float32, 3*3*3*32*32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.Im2ColSlice(dst, x.Data, 3, 32, 32, 3, 3, 1, 1)
	}
}

func BenchmarkBatchNormForward(b *testing.B) {
	layer := nn.NewBatchNorm("bench/bn", 1, 64)
	x := tensor.New(32, 64, 8, 8)
	for i := range x.Data {
		x.Data[i] = xorshift.IndexedNormal(6, uint64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		layer.Forward(x, true)
	}
}

func BenchmarkSparseCompressApply(b *testing.B) {
	m := dropback.MNIST100100(1)
	for g := 0; g < 10000; g++ {
		m.Set.Set(g*8, float32(g))
	}
	fresh := dropback.MNIST100100(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		art := dropback.CompressSparse(m)
		if err := art.Apply(fresh); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConvTrainStep(b *testing.B) {
	for _, batch := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			m := dropback.VGGSReduced(12, 8, 1, false)
			x := tensor.New(batch, 3, 12, 12)
			for i := range x.Data {
				x.Data[i] = xorshift.IndexedUniform(4, uint64(i))
			}
			labels := make([]int, batch)
			for i := range labels {
				labels[i] = i % 8
			}
			sgd := optim.NewSGD(0.1)
			m.Step(x, labels) // warm the workspaces before measuring
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Step(x, labels)
				sgd.Step(m.Set)
			}
		})
	}
}
