package dropback

import (
	"math"
	"testing"

	"dropback/internal/data"
	"dropback/internal/models"
	"dropback/internal/nn"
	"dropback/internal/tensor"
	"dropback/internal/xorshift"
)

// synthTrainVal builds a small deterministic dataset pair for equivalence
// runs: n samples of dim features in the given class count, split 2:1.
func synthTrainVal(n, dim, classes int, seed uint64) (train, val *Dataset) {
	x := tensor.New(n, dim)
	rng := xorshift.NewState64(seed)
	for i := range x.Data {
		x.Data[i] = rng.Float32()*2 - 1
	}
	y := make([]int, n)
	for i := range y {
		y[i] = int(rng.Uint32n(uint32(classes)))
	}
	ds := &data.Dataset{X: x, Y: y, Classes: classes}
	return ds.Split(n * 2 / 3)
}

func parTestMLP(seed uint64) *Model {
	return models.NewMLP(models.MLPConfig{
		Name: "par", In: 12, Hidden: []int{9, 7}, Classes: 4, Seed: seed,
	})
}

func parTestDropoutMLP(seed uint64) *Model {
	net := nn.NewSequential("pard",
		nn.NewLinear("pard/fc1", seed, 12, 10),
		nn.NewReLU("pard/r1"),
		nn.NewDropout("pard/do1", seed^0xD0, 0.3),
		nn.NewLinear("pard/fc2", seed, 10, 8),
		nn.NewDropout("pard/do2", seed^0xD1, 0.2),
		nn.NewLinear("pard/fc3", seed, 8, 4),
	)
	return nn.NewModel(net, seed)
}

func parTestConvModel(seed uint64) *Model {
	net := nn.NewSequential("parc",
		nn.NewConv2D("parc/c1", seed, 1, 4, 3, 1, 1),
		nn.NewReLU("parc/r1"),
		nn.NewMaxPool2D("parc/p1", 2, 2),
		nn.NewConv2DNoBias("parc/c2", seed, 4, 6, 3, 1, 1),
		nn.NewReLU("parc/r2"),
		nn.NewFlatten("parc/fl"),
		nn.NewLinear("parc/fc", seed, 6*3*3, 4),
	)
	return nn.NewModel(net, seed)
}

func assertF32BitsEqual(t *testing.T, ctx string, a, b []float32) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: length %d vs %d", ctx, len(a), len(b))
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			t.Fatalf("%s: element %d differs: %v (%#08x) vs %v (%#08x)",
				ctx, i, a[i], math.Float32bits(a[i]), b[i], math.Float32bits(b[i]))
		}
	}
}

func assertF64BitsEqual(t *testing.T, ctx string, a, b float64) {
	t.Helper()
	if math.Float64bits(a) != math.Float64bits(b) {
		t.Fatalf("%s: %v (%#016x) vs %v (%#016x)", ctx, a, math.Float64bits(a), b, math.Float64bits(b))
	}
}

func assertHistoryBitsEqual(t *testing.T, ctx string, a, b []EpochStats) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: history length %d vs %d", ctx, len(a), len(b))
	}
	for i := range a {
		assertF64BitsEqual(t, ctx+": train loss", a[i].TrainLoss, b[i].TrainLoss)
		assertF64BitsEqual(t, ctx+": train acc", a[i].TrainAcc, b[i].TrainAcc)
		assertF64BitsEqual(t, ctx+": val loss", a[i].ValLoss, b[i].ValLoss)
		assertF64BitsEqual(t, ctx+": val acc", a[i].ValAcc, b[i].ValAcc)
		if math.Float32bits(a[i].LR) != math.Float32bits(b[i].LR) {
			t.Fatalf("%s: epoch %d LR %v vs %v", ctx, i, a[i].LR, b[i].LR)
		}
	}
}

// runEquivalence trains a fresh model from factory under the given worker
// count and returns the result plus the final parameter vector.
func runEquivalence(t *testing.T, factory func(uint64) *Model, seed uint64, workers int, cfg TrainConfig, train, val *Dataset) (*Result, []float32) {
	t.Helper()
	m := factory(seed)
	if workers > 1 {
		cfg.Workers = workers
	}
	res, err := TrainE(m, train, val, cfg)
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return res, m.Set.Snapshot()
}

// TestParallelTrainerBitIdentical is the equivalence suite's core claim:
// data-parallel training at W ∈ {2, 4} produces byte-identical parameters,
// loss history, and DropBack mask telemetry to the sequential W = 1 path,
// across batch sizes {1, 3, 8} for both SGD and DropBack.
func TestParallelTrainerBitIdentical(t *testing.T) {
	train, val := synthTrainVal(48, 12, 4, 7)
	for _, method := range []Method{MethodBaseline, MethodDropBack} {
		for _, bs := range []int{1, 3, 8} {
			cfg := TrainConfig{Method: method, Epochs: 3, BatchSize: bs, Seed: 11}
			if method == MethodDropBack {
				cfg.Budget = 60
			}
			ref, refParams := runEquivalence(t, parTestMLP, 3, 1, cfg, train, val)
			for _, w := range []int{2, 4} {
				got, gotParams := runEquivalence(t, parTestMLP, 3, w, cfg, train, val)
				ctx := method.String() + "/batch=" + string(rune('0'+bs)) + "/workers=" + string(rune('0'+w))
				assertF32BitsEqual(t, ctx+": params", refParams, gotParams)
				assertHistoryBitsEqual(t, ctx, ref.History, got.History)
				assertF32BitsEqual(t, ctx+": accumulated gradients", ref.AccumulatedGradients, got.AccumulatedGradients)
				if len(ref.SwapHistory) != len(got.SwapHistory) {
					t.Fatalf("%s: swap history length %d vs %d", ctx, len(ref.SwapHistory), len(got.SwapHistory))
				}
				for i := range ref.SwapHistory {
					if ref.SwapHistory[i] != got.SwapHistory[i] {
						t.Fatalf("%s: swap history[%d] %d vs %d", ctx, i, ref.SwapHistory[i], got.SwapHistory[i])
					}
				}
				if ref.Regenerations != got.Regenerations {
					t.Fatalf("%s: regenerations %d vs %d", ctx, ref.Regenerations, got.Regenerations)
				}
				if ref.Compression != got.Compression {
					t.Fatalf("%s: compression %v vs %v", ctx, ref.Compression, got.Compression)
				}
				for i := range ref.Retention {
					if ref.Retention[i] != got.Retention[i] {
						t.Fatalf("%s: retention[%d] %+v vs %+v", ctx, i, ref.Retention[i], got.Retention[i])
					}
				}
			}
		}
	}
}

// TestParallelTrainerDropoutBitIdentical covers the stochastic-layer case:
// shard workers must draw exactly the mask values the sequential pass
// would, and the primary's stream must end at the sequential position.
func TestParallelTrainerDropoutBitIdentical(t *testing.T) {
	train, val := synthTrainVal(36, 12, 4, 9)
	for _, bs := range []int{1, 3, 8} {
		cfg := TrainConfig{Method: MethodBaseline, Epochs: 3, BatchSize: bs, Seed: 13}
		ref, refParams := runEquivalence(t, parTestDropoutMLP, 5, 1, cfg, train, val)
		for _, w := range []int{2, 4} {
			got, gotParams := runEquivalence(t, parTestDropoutMLP, 5, w, cfg, train, val)
			assertF32BitsEqual(t, "dropout params", refParams, gotParams)
			assertHistoryBitsEqual(t, "dropout history", ref.History, got.History)
		}
	}
}

// TestParallelStepMatchesSequential is the step-level microscope: the same
// batch through a W = 3 executor and a sequential model must produce
// bit-identical loss, accuracy, every gradient buffer, and identical
// dropout sample counts — for several consecutive steps, so the count's
// advance across steps is covered too.
func TestParallelStepMatchesSequential(t *testing.T) {
	seq := parTestDropoutMLP(21)
	par := parTestDropoutMLP(21)
	exec, err := newShardExecutor(par, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := xorshift.NewState64(99)
	for step := 0; step < 5; step++ {
		batch := 1 + int(rng.Uint32n(8))
		x := tensor.New(batch, 12)
		for i := range x.Data {
			x.Data[i] = rng.Float32()*2 - 1
		}
		y := make([]int, batch)
		for i := range y {
			y[i] = int(rng.Uint32n(4))
		}
		wantLoss, wantAcc := seq.Step(x, y)
		gotLoss, gotAcc := exec.Step(x, y)
		assertF64BitsEqual(t, "step loss", wantLoss, gotLoss)
		assertF64BitsEqual(t, "step acc", wantAcc, gotAcc)
		sp, pp := seq.Set.Params(), par.Set.Params()
		for i := range sp {
			assertF32BitsEqual(t, "grad "+sp[i].Name, sp[i].Grad.Data, pp[i].Grad.Data)
		}
		seqRNG := nn.CaptureLayerRNG(seq.Net)
		parRNG := nn.CaptureLayerRNG(par.Net)
		for name, s := range seqRNG {
			if parRNG[name] != s {
				t.Fatalf("step %d: dropout stream %q at %#x, sequential at %#x", step, name, parRNG[name], s)
			}
		}
	}
}

// TestParallelConvStepMatchesSequential covers the convolutional slab-
// emission path at the executor level: a Conv2D/pool/Linear stack through a
// W = 3 executor must match the sequential model bit for bit — loss,
// accuracy, and every gradient buffer — across steps with varying batch
// sizes, including batches smaller than the worker count (empty shards) and
// batches that leave remainder shards.
func TestParallelConvStepMatchesSequential(t *testing.T) {
	seq := parTestConvModel(37)
	par := parTestConvModel(37)
	exec, err := newShardExecutor(par, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := xorshift.NewState64(123)
	for step := 0; step < 4; step++ {
		batch := 1 + int(rng.Uint32n(8))
		x := tensor.New(batch, 1, 6, 6)
		for i := range x.Data {
			x.Data[i] = rng.Float32()*2 - 1
		}
		y := make([]int, batch)
		for i := range y {
			y[i] = int(rng.Uint32n(4))
		}
		wantLoss, wantAcc := seq.Step(x, y)
		gotLoss, gotAcc := exec.Step(x, y)
		assertF64BitsEqual(t, "conv step loss", wantLoss, gotLoss)
		assertF64BitsEqual(t, "conv step acc", wantAcc, gotAcc)
		sp, pp := seq.Set.Params(), par.Set.Params()
		for i := range sp {
			assertF32BitsEqual(t, "conv grad "+sp[i].Name, sp[i].Grad.Data, pp[i].Grad.Data)
		}
	}
}

// TestParallelResumeFromSequentialCheckpoint proves the worker count is an
// execution detail, not training state: a DropBack run checkpointed at
// W = 1 and resumed at W = 4 must finish byte-identical to an
// uninterrupted W = 1 run.
func TestParallelResumeFromSequentialCheckpoint(t *testing.T) {
	train, val := synthTrainVal(48, 12, 4, 17)
	// FreezeAfterEpoch −1 keeps the tracked set live, so the score vector
	// (AccumulatedGradients) is recomputed at every step and comparable; a
	// frozen constraint stops refreshing scores, which makes the vector a
	// stale telemetry artifact on any resumed run.
	base := TrainConfig{Method: MethodDropBack, Budget: 80, Epochs: 6, BatchSize: 4, Seed: 23, FreezeAfterEpoch: -1}

	ref, refParams := runEquivalence(t, parTestDropoutMLP, 7, 1, base, train, val)

	dir := t.TempDir()
	firstHalf := base
	firstHalf.Epochs = 3
	firstHalf.Checkpoint = &CheckpointSpec{Dir: dir, Every: 1}
	if _, err := TrainE(parTestDropoutMLP(7), train, val, firstHalf); err != nil {
		t.Fatal(err)
	}

	second := base
	second.Checkpoint = &CheckpointSpec{Dir: dir, Resume: true}
	second.Workers = 4
	m2 := parTestDropoutMLP(7)
	got, err := TrainE(m2, train, val, second)
	if err != nil {
		t.Fatal(err)
	}

	assertF32BitsEqual(t, "resumed params", refParams, m2.Set.Snapshot())
	assertHistoryBitsEqual(t, "resumed history", ref.History, got.History)
	assertF32BitsEqual(t, "resumed accumulated gradients", ref.AccumulatedGradients, got.AccumulatedGradients)
}

// TestParallelRejectsUnshardableModel pins the conservative gate: BatchNorm
// couples samples through batch statistics, so Workers ≥ 2 must refuse it
// rather than silently change results.
func TestParallelRejectsUnshardableModel(t *testing.T) {
	bnModel := func(seed uint64) *Model {
		net := nn.NewSequential("bn",
			nn.NewLinear("bn/fc1", seed, 8, 6),
			nn.NewBatchNorm("bn/bn1", seed, 6),
			nn.NewLinear("bn/fc2", seed, 6, 3),
		)
		return nn.NewModel(net, seed)
	}
	train, val := synthTrainVal(18, 8, 3, 31)
	cfg := TrainConfig{Method: MethodBaseline, Epochs: 1, BatchSize: 3, Seed: 1,
		Workers: 2}
	if _, err := TrainE(bnModel(1), train, val, cfg); err == nil {
		t.Fatal("BatchNorm model accepted for shard-parallel training")
	}
}

// TestParallelWorkersExceedingBatch covers W > batch size: trailing shards
// are empty and results still match the sequential path bit for bit.
func TestParallelWorkersExceedingBatch(t *testing.T) {
	train, val := synthTrainVal(24, 12, 4, 19)
	cfg := TrainConfig{Method: MethodBaseline, Epochs: 2, BatchSize: 2, Seed: 3}
	_, refParams := runEquivalence(t, parTestMLP, 9, 1, cfg, train, val)
	_, gotParams := runEquivalence(t, parTestMLP, 9, 7, cfg, train, val)
	assertF32BitsEqual(t, "W>batch params", refParams, gotParams)
}

// TestParallelConfigValidation pins the Workers-related Validate rules.
func TestParallelConfigValidation(t *testing.T) {
	train, val := synthTrainVal(18, 12, 4, 3)
	cfg := TrainConfig{Method: MethodBaseline, Epochs: 1, BatchSize: 3, Seed: 1, Workers: -1}
	if _, err := TrainE(parTestMLP(1), train, val, cfg); err == nil {
		t.Fatal("negative Workers accepted")
	}
}
