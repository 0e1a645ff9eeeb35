package dropback

import (
	"runtime"
	"testing"

	"dropback/internal/checkpoint"
	"dropback/internal/core"
	"dropback/internal/data"
	"dropback/internal/models"
	"dropback/internal/nn"
	"dropback/internal/telemetry"
	"dropback/internal/tensor"
	"dropback/internal/xorshift"
)

// synthImageTrainVal builds a small deterministic 4-D dataset (n, c, side,
// side) for convolutional equivalence runs, split 2:1.
func synthImageTrainVal(n, c, side, classes int, seed uint64) (train, val *Dataset) {
	x := tensor.New(n, c, side, side)
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

// sparseTestBNResModel exercises every container and stateful layer a
// SparseTrain run passes through: Residual with a conv shortcut, BatchNorm
// (whose running statistics must advance in lockstep), Dropout (whose RNG
// stream must advance in lockstep), and a DenseBlock.
func sparseTestBNResModel(seed uint64) *Model {
	net := nn.NewSequential("sbr",
		nn.NewConv2D("sbr/c0", seed, 1, 4, 3, 1, 1),
		nn.NewBatchNorm("sbr/bn0", seed, 4),
		nn.NewReLU("sbr/r0"),
		nn.NewResidual("sbr/res",
			nn.NewSequential("sbr/res/body",
				nn.NewConv2DNoBias("sbr/res/c1", seed, 4, 4, 3, 1, 1),
				nn.NewBatchNorm("sbr/res/bn1", seed, 4),
				nn.NewReLU("sbr/res/r1"),
			),
			nil,
		),
		nn.NewDenseBlock("sbr/db", 4, 2,
			nn.NewConv2DNoBias("sbr/db/u0", seed, 4, 2, 3, 1, 1),
			nn.NewConv2DNoBias("sbr/db/u1", seed, 6, 2, 3, 1, 1),
		),
		nn.NewMaxPool2D("sbr/p", 2, 2),
		nn.NewFlatten("sbr/fl"),
		nn.NewDropout("sbr/do", seed^0xD2, 0.25),
		nn.NewLinear("sbr/fc", seed, 8*3*3, 4),
	)
	return nn.NewModel(net, seed)
}

// runSparseOrDense trains a fresh model from factory on the dense or the
// sparse-native path and returns the result plus the final parameters.
func runSparseOrDense(t *testing.T, factory func(uint64) *Model, seed uint64, sparse bool, cfg TrainConfig, train, val *Dataset) (*Result, []float32) {
	t.Helper()
	m := factory(seed)
	cfg.SparseTrain = sparse
	res, err := TrainE(m, train, val, cfg)
	if err != nil {
		t.Fatalf("sparse=%v: %v", sparse, err)
	}
	return res, m.Set.Snapshot()
}

// assertSparseRunMatchesDense compares everything a Result and a final
// parameter vector carry that both paths must agree on bit for bit.
func assertSparseRunMatchesDense(t *testing.T, ctx string, ref, got *Result, refParams, gotParams []float32) {
	t.Helper()
	assertF32BitsEqual(t, ctx+": params", refParams, gotParams)
	assertHistoryBitsEqual(t, ctx+": history", ref.History, got.History)
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
	if len(ref.Retention) != len(got.Retention) {
		t.Fatalf("%s: retention length %d vs %d", ctx, len(ref.Retention), len(got.Retention))
	}
	for i := range ref.Retention {
		if ref.Retention[i] != got.Retention[i] {
			t.Fatalf("%s: retention[%d] %+v vs %+v", ctx, i, ref.Retention[i], got.Retention[i])
		}
	}
	if ref.BestEpoch != got.BestEpoch {
		t.Fatalf("%s: best epoch %d vs %d", ctx, ref.BestEpoch, got.BestEpoch)
	}
}

// TestSparseTrainerBitIdenticalMLP is the equivalence suite's core sweep:
// sparse-native training must produce byte-identical parameters, history,
// and DropBack telemetry to the dense trainer across budgets, freeze
// epochs (including never-freeze, which exercises the per-step reselection
// path for the whole run), and batch sizes. The fan-out input is big enough
// that the sparse Linear forward crosses the ParallelChunks threshold — fc1
// of a 784-100-10 MLP at batch 8 does 8·100·784 = 627,200 MACs — and runs
// both single-threaded and fanned out over four workers.
func TestSparseTrainerBitIdenticalMLP(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	fanOutMLP := func(seed uint64) *Model {
		return models.NewMLP(models.MLPConfig{Name: "fan", In: 784, Hidden: []int{100}, Classes: 10, Seed: seed})
	}
	smallTrain, smallVal := synthTrainVal(48, 12, 4, 7)
	fanTrain, fanVal := synthTrainVal(48, 784, 10, 41)
	inputs := []struct {
		name                             string
		factory                          func(uint64) *Model
		train, val                       *Dataset
		budgets, freezes, batches, procs []int
	}{
		{"mlp", parTestMLP, smallTrain, smallVal, []int{40, 120}, []int{-1, 0, 1}, []int{1, 3, 8}, []int{prev}},
		{"fanout", fanOutMLP, fanTrain, fanVal, []int{4000}, []int{-1, 0}, []int{8}, []int{1, 4}},
	}
	for _, in := range inputs {
		for _, procs := range in.procs {
			runtime.GOMAXPROCS(procs)
			for _, budget := range in.budgets {
				for _, freeze := range in.freezes {
					for _, bs := range in.batches {
						cfg := TrainConfig{
							Method: MethodDropBack, Budget: budget, FreezeAfterEpoch: freeze,
							Epochs: 3, BatchSize: bs, Seed: 11,
						}
						ref, refParams := runSparseOrDense(t, in.factory, 3, false, cfg, in.train, in.val)
						got, gotParams := runSparseOrDense(t, in.factory, 3, true, cfg, in.train, in.val)
						ctx := in.name + "/procs=" + itoa(procs) + "/budget=" + itoa(budget) +
							"/freeze=" + itoa(freeze) + "/bs=" + itoa(bs)
						assertSparseRunMatchesDense(t, ctx, ref, got, refParams, gotParams)
					}
				}
			}
		}
	}
	runtime.GOMAXPROCS(4)
	if tensor.ParallelChunkCount(100, 8*100*784) < 2 {
		t.Fatal("the fan-out input's fc1 forward no longer crosses the ParallelChunks threshold")
	}
}

// TestSparseTrainEmitsLayerSpans pins per-layer tracing on the sparse path:
// a sparse run steps the model's own instrumented layers, so it records the
// same (layer, phase) spans with the same counts as the dense run of the
// same configuration.
func TestSparseTrainEmitsLayerSpans(t *testing.T) {
	train, val := synthImageTrainVal(18, 1, 6, 4, 45)
	spans := func(sparse bool) map[string]int64 {
		c := telemetry.NewCollector(telemetry.CollectorOptions{})
		cfg := TrainConfig{
			Method: MethodDropBack, Budget: 150, FreezeAfterEpoch: 1,
			Epochs: 2, BatchSize: 3, Seed: 47, SparseTrain: sparse, Telemetry: c,
		}
		if _, err := TrainE(sparseTestBNResModel(7), train, val, cfg); err != nil {
			t.Fatal(err)
		}
		out := map[string]int64{}
		for _, st := range c.LayerStats() {
			out[st.Phase+" "+st.Layer] = st.Count
		}
		return out
	}
	dense, sparse := spans(false), spans(true)
	if len(dense) == 0 {
		t.Fatal("dense run recorded no layer spans")
	}
	for k, n := range dense {
		if sparse[k] != n {
			t.Errorf("span %q: dense count %d, sparse count %d", k, n, sparse[k])
		}
	}
	for k := range sparse {
		if _, ok := dense[k]; !ok {
			t.Errorf("span %q recorded by the sparse run only", k)
		}
	}
}

// TestSparseTrainerBitIdenticalDropout pins the stochastic-layer contract:
// moving the weights to CSR storage leaves the Dropout mask stream — and
// therefore the whole run — bit for bit where the dense run has it.
func TestSparseTrainerBitIdenticalDropout(t *testing.T) {
	train, val := synthTrainVal(36, 12, 4, 9)
	for _, freeze := range []int{-1, 1} {
		cfg := TrainConfig{
			Method: MethodDropBack, Budget: 90, FreezeAfterEpoch: freeze,
			Epochs: 3, BatchSize: 4, Seed: 13,
		}
		ref, refParams := runSparseOrDense(t, parTestDropoutMLP, 5, false, cfg, train, val)
		got, gotParams := runSparseOrDense(t, parTestDropoutMLP, 5, true, cfg, train, val)
		assertSparseRunMatchesDense(t, "dropout/freeze="+itoa(freeze), ref, got, refParams, gotParams)
	}
}

// TestSparseTrainerBitIdenticalConv covers the Conv2D merge-walk kernels
// (with and without bias) through pooling and a Linear head.
func TestSparseTrainerBitIdenticalConv(t *testing.T) {
	train, val := synthImageTrainVal(24, 1, 6, 4, 15)
	for _, freeze := range []int{-1, 1} {
		for _, bs := range []int{1, 5} {
			cfg := TrainConfig{
				Method: MethodDropBack, Budget: 70, FreezeAfterEpoch: freeze,
				Epochs: 3, BatchSize: bs, Seed: 17,
			}
			ref, refParams := runSparseOrDense(t, parTestConvModel, 9, false, cfg, train, val)
			got, gotParams := runSparseOrDense(t, parTestConvModel, 9, true, cfg, train, val)
			ctx := "conv/freeze=" + itoa(freeze) + "/bs=" + itoa(bs)
			assertSparseRunMatchesDense(t, ctx, ref, got, refParams, gotParams)
		}
	}
}

// TestSparseTrainerBitIdenticalBNResidualDense covers the remaining layer
// zoo: BatchNorm statistics, Residual with identity shortcut, DenseBlock
// channel concatenation, and Dropout, whose parameters stay dense.
func TestSparseTrainerBitIdenticalBNResidualDense(t *testing.T) {
	train, val := synthImageTrainVal(18, 1, 6, 4, 21)
	cfg := TrainConfig{
		Method: MethodDropBack, Budget: 150, FreezeAfterEpoch: 1,
		Epochs: 3, BatchSize: 3, Seed: 19,
	}
	ref, refParams := runSparseOrDense(t, sparseTestBNResModel, 7, false, cfg, train, val)
	got, gotParams := runSparseOrDense(t, sparseTestBNResModel, 7, true, cfg, train, val)
	assertSparseRunMatchesDense(t, "bnres", ref, got, refParams, gotParams)

	// The shared BN statistics and dropout streams must have ended at the
	// same point — compare them through fresh evaluations.
	mRef, mGot := sparseTestBNResModel(7), sparseTestBNResModel(7)
	mRef.Set.Restore(refParams)
	mGot.Set.Restore(gotParams)
	refLoss, refAcc := Evaluate(mRef, val, 6)
	gotLoss, gotAcc := Evaluate(mGot, val, 6)
	assertF64BitsEqual(t, "bnres eval loss", refLoss, gotLoss)
	assertF64BitsEqual(t, "bnres eval acc", refAcc, gotAcc)
}

// TestSparseTrainHandsBackDenseStorage pins TrainE's contract that a
// SparseTrain run returns a plain model: no parameter is left on CSR
// storage, and the model evaluates and takes a further step byte for byte
// like the dense run's. A run that fails after its weights moved to CSR
// storage hands the model back dense too.
func TestSparseTrainHandsBackDenseStorage(t *testing.T) {
	train, val := synthImageTrainVal(24, 1, 6, 4, 15)
	onCSR := func(m *Model) string {
		for _, p := range m.Set.Params() {
			if p.CSR != nil {
				return p.Name
			}
		}
		return ""
	}
	for _, freeze := range []int{-1, 0} {
		cfg := TrainConfig{
			Method: MethodDropBack, Budget: 70, FreezeAfterEpoch: freeze,
			Epochs: 2, BatchSize: 5, Seed: 17,
		}
		ctx := "freeze=" + itoa(freeze)
		dense, sparse := parTestConvModel(9), parTestConvModel(9)
		res, err := TrainE(dense, train, val, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.BestEpoch >= cfg.Epochs {
			t.Fatalf("%s: setup: best epoch %d is the last, so restoring it is not observable", ctx, res.BestEpoch)
		}
		cfg.SparseTrain = true
		if _, err := TrainE(sparse, train, val, cfg); err != nil {
			t.Fatal(err)
		}
		if name := onCSR(sparse); name != "" {
			t.Fatalf("%s: %s is still on CSR storage after TrainE", ctx, name)
		}
		assertF32BitsEqual(t, ctx+": best params", dense.Set.Snapshot(), sparse.Set.Snapshot())
		dl, da := Evaluate(dense, val, 4)
		sl, sa := Evaluate(sparse, val, 4)
		assertF64BitsEqual(t, ctx+": eval loss", dl, sl)
		assertF64BitsEqual(t, ctx+": eval acc", da, sa)
		x, y := train.Batch(0, 5)
		dl, da = dense.Step(x, y)
		sl, sa = sparse.Step(x, y)
		assertF64BitsEqual(t, ctx+": step loss", dl, sl)
		assertF64BitsEqual(t, ctx+": step acc", da, sa)
		for i, p := range dense.Set.Params() {
			assertF32BitsEqual(t, ctx+": step grad "+p.Name, p.Grad.Data, sparse.Set.Params()[i].Grad.Data)
		}
	}

	m := parTestConvModel(9)
	cfg := TrainConfig{
		Method: MethodDropBack, Budget: 70, Epochs: 1, BatchSize: 5, Seed: 17, SparseTrain: true,
		ResumeFrom: &checkpoint.TrainState{Epoch: -1},
	}
	if _, err := TrainE(m, train, val, cfg); err == nil {
		t.Fatal("a negative resume epoch was accepted")
	}
	if name := onCSR(m); name != "" {
		t.Fatalf("failed run: %s is still on CSR storage", name)
	}
}

// TestSparseTrainerCrossResume proves checkpoints are interchangeable
// between the two trainers: a dense half-run resumed sparse — and a sparse
// half-run resumed dense — must both finish byte-identical to an
// uninterrupted dense run, across freeze epochs on either side of the
// resume boundary.
func TestSparseTrainerCrossResume(t *testing.T) {
	train, val := synthTrainVal(48, 12, 4, 25)
	for _, freeze := range []int{1, 2} { // frozen before vs after the boundary
		base := TrainConfig{
			Method: MethodDropBack, Budget: 80, FreezeAfterEpoch: freeze,
			Epochs: 4, BatchSize: 4, Seed: 29,
		}
		ref, refParams := runSparseOrDense(t, parTestMLP, 7, false, base, train, val)

		for _, firstSparse := range []bool{false, true} {
			dir := t.TempDir()
			firstHalf := base
			firstHalf.Epochs = 2
			firstHalf.SparseTrain = firstSparse
			firstHalf.Checkpoint = &CheckpointSpec{Dir: dir, Every: 1}
			if _, err := TrainE(parTestMLP(7), train, val, firstHalf); err != nil {
				t.Fatal(err)
			}

			second := base
			second.SparseTrain = !firstSparse
			second.Checkpoint = &CheckpointSpec{Dir: dir, Resume: true}
			m2 := parTestMLP(7)
			got, err := TrainE(m2, train, val, second)
			if err != nil {
				t.Fatal(err)
			}
			ctx := "cross-resume/freeze=" + itoa(freeze) + "/firstSparse=" + itoa(btoi(firstSparse))
			assertF32BitsEqual(t, ctx+": params", refParams, m2.Set.Snapshot())
			assertHistoryBitsEqual(t, ctx+": history", ref.History, got.History)
			if ref.Regenerations != got.Regenerations {
				t.Fatalf("%s: regenerations %d vs %d", ctx, ref.Regenerations, got.Regenerations)
			}
			for i := range ref.Retention {
				if ref.Retention[i] != got.Retention[i] {
					t.Fatalf("%s: retention[%d] %+v vs %+v", ctx, i, ref.Retention[i], got.Retention[i])
				}
			}
		}
	}
}

// TestSparseTrainValidation pins the sparse-mode configuration gates.
func TestSparseTrainValidation(t *testing.T) {
	valid := TrainConfig{
		Method: MethodDropBack, Budget: 10, Epochs: 1, BatchSize: 4, SparseTrain: true,
	}
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid sparse config rejected: %v", err)
	}
	bad := []TrainConfig{
		func() TrainConfig { c := valid; c.Method = MethodBaseline; return c }(),
		func() TrainConfig { c := valid; c.Workers = 2; return c }(),
		func() TrainConfig { c := valid; c.MaxRecoveryRetries = 1; return c }(),
		func() TrainConfig { c := valid; c.GradHook = func(int, *nn.ParamSet) {}; return c }(),
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("bad sparse config %d accepted", i)
		}
	}
}

// TestSparseTrainSnapshotsMatchDense closes the SparseTrain × SnapshotEvery
// cell: the per-step weight snapshots and the diffusion series of a sparse
// run are bit-identical to the dense run's, with the set never frozen,
// frozen after epoch 0, and frozen after epoch 1.
func TestSparseTrainSnapshotsMatchDense(t *testing.T) {
	train, val := synthTrainVal(48, 12, 4, 53)
	for _, freeze := range []int{-1, 0, 1} {
		cfg := TrainConfig{
			Method: MethodDropBack, Budget: 80, FreezeAfterEpoch: freeze,
			Epochs: 3, BatchSize: 4, Seed: 59, SnapshotEvery: 2,
		}
		ref, refParams := runSparseOrDense(t, parTestMLP, 7, false, cfg, train, val)
		got, gotParams := runSparseOrDense(t, parTestMLP, 7, true, cfg, train, val)
		ctx := "snapshots/freeze=" + itoa(freeze)
		assertSparseRunMatchesDense(t, ctx, ref, got, refParams, gotParams)
		if len(ref.Snapshots) < 2 || len(got.Snapshots) != len(ref.Snapshots) {
			t.Fatalf("%s: %d sparse snapshots, %d dense", ctx, len(got.Snapshots), len(ref.Snapshots))
		}
		for i := range ref.Snapshots {
			if got.SnapshotSteps[i] != ref.SnapshotSteps[i] {
				t.Fatalf("%s: snapshot %d at step %d, dense at %d", ctx, i, got.SnapshotSteps[i], ref.SnapshotSteps[i])
			}
			assertF32BitsEqual(t, ctx+": snapshot "+itoa(i), ref.Snapshots[i], got.Snapshots[i])
		}
		if len(got.DiffusionDist) != len(ref.DiffusionDist) {
			t.Fatalf("%s: %d diffusion points, dense %d", ctx, len(got.DiffusionDist), len(ref.DiffusionDist))
		}
		for i := range ref.DiffusionDist {
			assertF64BitsEqual(t, ctx+": diffusion "+itoa(i), ref.DiffusionDist[i], got.DiffusionDist[i])
		}
	}
}

// gaugeLog is an enabled recorder that keeps every gauge observation.
type gaugeLog struct {
	telemetry.Nop
	vals map[string][]float64
}

func (g *gaugeLog) Enabled() bool { return true }

func (g *gaugeLog) Gauge(name string, v float64) { g.vals[name] = append(g.vals[name], v) }

// TestWeightStateGaugeOnlyOnCSRStorage pins the telemetry contract the
// benchmark reads: the dropback/weight_state_bytes gauge marks a run on CSR
// storage. A dense run emits none; a SparseTrain run emits the engine's
// WeightStateBytes at every epoch end. With the set frozen from epoch 0 the
// weight state is fixed, so each epoch's figure must equal that of a fresh
// engine restored from the final checkpoint.
func TestWeightStateGaugeOnlyOnCSRStorage(t *testing.T) {
	const gauge = "dropback/weight_state_bytes"
	train, val := synthTrainVal(48, 12, 4, 61)
	cfg := TrainConfig{
		Method: MethodDropBack, Budget: 80, FreezeAfterEpoch: 0,
		Epochs: 3, BatchSize: 4, Seed: 67,
	}
	dense := &gaugeLog{vals: map[string][]float64{}}
	cfg.Telemetry = dense
	if _, err := TrainE(parTestMLP(7), train, val, cfg); err != nil {
		t.Fatal(err)
	}
	if len(dense.vals["dropback/tracked_set_size"]) != cfg.Epochs {
		t.Fatalf("dense run emitted %d tracked-set gauges, want one per epoch", len(dense.vals["dropback/tracked_set_size"]))
	}
	if v, ok := dense.vals[gauge]; ok {
		t.Fatalf("dense run emitted %s = %v", gauge, v)
	}

	sparse := &gaugeLog{vals: map[string][]float64{}}
	dir := t.TempDir()
	cfg.Telemetry = sparse
	cfg.SparseTrain = true
	cfg.Checkpoint = &CheckpointSpec{Dir: dir, Every: 1}
	if _, err := TrainE(parTestMLP(7), train, val, cfg); err != nil {
		t.Fatal(err)
	}
	m := parTestMLP(7)
	ts, _, err := (&checkpoint.Manager{Dir: dir}).LoadLatestValid(m)
	if err != nil || ts == nil || ts.DropBack == nil {
		t.Fatalf("final checkpoint: state %v, err %v", ts, err)
	}
	eng := core.New(m.Set, core.Config{Budget: cfg.Budget, FreezeAfterEpoch: cfg.FreezeAfterEpoch})
	if err := virtualizeWeights(m, eng); err != nil {
		t.Fatal(err)
	}
	if err := eng.RestoreState(*ts.DropBack); err != nil {
		t.Fatal(err)
	}
	want := float64(eng.WeightStateBytes())
	got := sparse.vals[gauge]
	if len(got) != cfg.Epochs {
		t.Fatalf("sparse run emitted %s %d times, want once per epoch (%d)", gauge, len(got), cfg.Epochs)
	}
	for i, v := range got {
		if v != want {
			t.Fatalf("epoch %d: %s = %v, engine reports %v", i+1, gauge, v, want)
		}
	}
	if want >= float64(eng.DenseWeightStateBytes()) {
		t.Fatalf("frozen CSR weight state %v B is not below dense %d B", want, eng.DenseWeightStateBytes())
	}
}

// TestSparseTrainDisableSwapHistory pins the bounded-telemetry knob: the
// per-step series is dropped, everything else (including the params) is
// unchanged.
func TestSparseTrainDisableSwapHistory(t *testing.T) {
	train, val := synthTrainVal(30, 12, 4, 31)
	cfg := TrainConfig{
		Method: MethodDropBack, Budget: 60, FreezeAfterEpoch: 1,
		Epochs: 2, BatchSize: 4, Seed: 33, SparseTrain: true,
	}
	ref, refParams := runSparseOrDense(t, parTestMLP, 5, true, cfg, train, val)
	cfg.DisableSwapHistory = true
	m := parTestMLP(5)
	got, err := TrainE(m, train, val, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.SwapHistory) == 0 {
		t.Fatal("reference run must keep the swap series by default")
	}
	if len(got.SwapHistory) != 0 {
		t.Fatalf("DisableSwapHistory kept %d entries", len(got.SwapHistory))
	}
	assertF32BitsEqual(t, "disable-swap-history params", refParams, m.Set.Snapshot())
}

func itoa(v int) string {
	if v < 0 {
		return "-" + itoa(-v)
	}
	if v < 10 {
		return string(rune('0' + v))
	}
	return itoa(v/10) + string(rune('0'+v%10))
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
