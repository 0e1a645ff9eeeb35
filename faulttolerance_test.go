package dropback_test

import (
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"dropback"
	"dropback/internal/data"
	"dropback/internal/faults"
	"dropback/internal/models"
	"dropback/internal/nn"
	"dropback/internal/optim"
	"dropback/internal/prune"
)

// ftMLP builds the small-MLP fixture used across the fault-tolerance tests.
func ftMLP(seed uint64) (*dropback.Model, *dropback.Dataset, *dropback.Dataset) {
	ds := dropback.MNISTLike(200, seed).Flatten()
	train, val := ds.Split(160)
	return dropback.MNIST100100(seed), train, val
}

// ftConv builds a small conv fixture (BatchNorm + Dropout layers, so resume
// must carry running statistics and per-layer RNG streams).
func ftConv(seed uint64) (*dropback.Model, *dropback.Dataset, *dropback.Dataset) {
	ds := dropback.CIFARLikeSized(120, 8, seed)
	train, val := ds.Split(96)
	return dropback.VGGSReduced(8, 2, seed, false), train, val
}

// ftVDMLP builds a small variational-dropout MLP fixture: every VD layer
// draws its weight noise from its own stream, which resume must carry.
func ftVDMLP(seed uint64) (*dropback.Model, *dropback.Dataset, *dropback.Dataset) {
	ds := data.Generate(data.SynthConfig{
		Classes: 10, Samples: 200, Size: 14, Channels: 1,
		Bumps: 5, MaxShift: 1, Noise: 0.1, Seed: seed,
	}).Flatten()
	train, val := ds.Split(160)
	return models.ReducedMNISTMLP("vd", 14, 32, 32, seed, prune.Variational{}), train, val
}

// ftVDConv is ftConv with variational-dropout convolutions and fully
// connected layers: the noise streams of the VD layers travel with the BN
// statistics and dropout state.
func ftVDConv(seed uint64) (*dropback.Model, *dropback.Dataset, *dropback.Dataset) {
	ds := dropback.CIFARLikeSized(120, 8, seed)
	train, val := ds.Split(96)
	return dropback.VGGSReduced(8, 2, seed, true), train, val
}

func snapshotsEqual(t *testing.T, a, b []float32, label string) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: snapshot lengths differ (%d vs %d)", label, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: weight %d differs: %v vs %v", label, i, a[i], b[i])
		}
	}
}

func historiesEqual(t *testing.T, a, b []dropback.EpochStats) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("history lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("epoch %d stats differ:\n  %+v\n  %+v", i, a[i], b[i])
		}
	}
}

// TestCrashCorruptionResumeBitIdentical is the headline fault-tolerance
// proof: train with managed checkpoints, corrupt the newest checkpoint as a
// torn write would, resume, and demand the resumed run end bit-identical to
// an uninterrupted run — while the corrupt file is skipped and counted.
func TestCrashCorruptionResumeBitIdentical(t *testing.T) {
	base := dropback.TrainConfig{
		Method: dropback.MethodDropBack, Budget: 2000, FreezeAfterEpoch: 1,
		Epochs: 4, BatchSize: 32, Seed: 3,
	}

	// Reference: uninterrupted 4-epoch run.
	mRef, train, val := ftMLP(3)
	refRes := dropback.Train(mRef, train, val, base)

	// Interrupted run: 2 epochs with a checkpoint every epoch.
	dir := t.TempDir()
	m1, train1, val1 := ftMLP(3)
	cfgA := base
	cfgA.Epochs = 2
	cfgA.Checkpoint = &dropback.CheckpointSpec{Dir: dir, Every: 1}
	dropback.Train(m1, train1, val1, cfgA)

	files, err := filepath.Glob(filepath.Join(dir, "*.dbck"))
	if err != nil || len(files) != 2 {
		t.Fatalf("expected 2 checkpoints, found %v (err %v)", files, err)
	}
	sort.Strings(files)

	// A torn write: the newest checkpoint loses its tail mid-section.
	fi, err := os.Stat(files[1])
	if err != nil {
		t.Fatal(err)
	}
	if err := faults.TruncateFile(files[1], fi.Size()/2); err != nil {
		t.Fatal(err)
	}

	// Resume: must skip the torn file, load the epoch-1 checkpoint, and
	// replay epochs 2-4 exactly as the uninterrupted run ran them.
	col := dropback.NewTelemetryCollector(dropback.TelemetryOptions{})
	m2, train2, val2 := ftMLP(3)
	cfgB := base
	cfgB.Checkpoint = &dropback.CheckpointSpec{Dir: dir, Every: 1, Resume: true}
	cfgB.Telemetry = col
	res2, err := dropback.TrainE(m2, train2, val2, cfgB)
	if err != nil {
		t.Fatal(err)
	}

	if got := col.Counters()["recovery/skipped_corrupt_checkpoints"]; got != 1 {
		t.Fatalf("recovery/skipped_corrupt_checkpoints = %v, want 1", got)
	}
	historiesEqual(t, res2.History, refRes.History)
	snapshotsEqual(t, m2.Set.Snapshot(), mRef.Set.Snapshot(), "resumed vs uninterrupted")
	if res2.BestEpoch != refRes.BestEpoch || res2.BestValAcc != refRes.BestValAcc {
		t.Fatalf("best epoch differs: %d/%v vs %d/%v",
			res2.BestEpoch, res2.BestValAcc, refRes.BestEpoch, refRes.BestValAcc)
	}
}

// TestResumeDeterminism is the resume matrix: for MLP and conv models and
// all six training methods, a run split across a checkpoint (after epoch 1
// unless split says otherwise) must be bit-identical to the same run done in
// one piece. The DSD cases split inside and after the sparse phase and the
// slimming case after its prune, so the state those methods derive at epoch
// edges must be rebuilt on resume.
func TestResumeDeterminism(t *testing.T) {
	cases := []struct {
		name  string
		build func(seed uint64) (*dropback.Model, *dropback.Dataset, *dropback.Dataset)
		cfg   dropback.TrainConfig
		split int
	}{
		{"mlp/baseline", ftMLP, dropback.TrainConfig{
			Method: dropback.MethodBaseline, Epochs: 3, BatchSize: 32, Seed: 5}, 0},
		{"mlp/dropback", ftMLP, dropback.TrainConfig{
			Method: dropback.MethodDropBack, Budget: 1500, FreezeAfterEpoch: 1,
			Epochs: 3, BatchSize: 32, Seed: 5}, 0},
		{"conv/baseline", ftConv, dropback.TrainConfig{
			Method: dropback.MethodBaseline, Epochs: 3, BatchSize: 16, Seed: 5}, 0},
		{"conv/dropback", ftConv, dropback.TrainConfig{
			Method: dropback.MethodDropBack, Budget: 800, FreezeAfterEpoch: 1,
			Epochs: 3, BatchSize: 16, Seed: 5}, 0},
		{"mlp/magnitude", ftMLP, dropback.TrainConfig{
			Method: dropback.MethodMagnitude, PruneFraction: 0.5,
			Epochs: 3, BatchSize: 32, Seed: 5}, 0},
		{"mlp/variational", ftVDMLP, dropback.TrainConfig{
			Method: dropback.MethodVariational, KLScale: 1.0 / 160, Schedule: optim.Constant(0.05),
			Epochs: 3, BatchSize: 32, Seed: 5}, 0},
		{"conv/variational", ftVDConv, dropback.TrainConfig{
			Method: dropback.MethodVariational, KLScale: 1.0 / 96, Schedule: optim.Constant(0.05),
			Epochs: 3, BatchSize: 16, Seed: 5}, 0},
		{"mlp/dsd", ftMLP, dropback.TrainConfig{
			Method: dropback.MethodDSD, DSDSparseFraction: 0.3, DSDSparseStart: 0, DSDSparseEnd: 2,
			Epochs: 3, BatchSize: 32, Seed: 5}, 0},
		{"mlp/dsd-after-phase", ftMLP, dropback.TrainConfig{
			Method: dropback.MethodDSD, DSDSparseFraction: 0.3, DSDSparseStart: 0, DSDSparseEnd: 1,
			Epochs: 3, BatchSize: 32, Seed: 5}, 2},
		{"conv/slimming", ftConv, dropback.TrainConfig{
			Method: dropback.MethodSlimming, SlimLambda: 1e-4, SlimPruneFraction: 0.3, SlimPruneAtEpoch: 0,
			Epochs: 3, BatchSize: 16, Seed: 5}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mRef, train, val := tc.build(5)
			refRes := dropback.Train(mRef, train, val, tc.cfg)

			dir := t.TempDir()
			m1, train1, val1 := tc.build(5)
			cfgA := tc.cfg
			cfgA.Epochs = max(tc.split, 1)
			cfgA.Checkpoint = &dropback.CheckpointSpec{Dir: dir, Every: 1}
			dropback.Train(m1, train1, val1, cfgA)

			m2, train2, val2 := tc.build(5)
			cfgB := tc.cfg
			cfgB.Checkpoint = &dropback.CheckpointSpec{Dir: dir, Every: 1, Resume: true}
			res2, err := dropback.TrainE(m2, train2, val2, cfgB)
			if err != nil {
				t.Fatal(err)
			}
			historiesEqual(t, res2.History, refRes.History)
			snapshotsEqual(t, m2.Set.Snapshot(), mRef.Set.Snapshot(), tc.name)
		})
	}
}

// TestExplicitSaveLoadResume exercises the non-managed path: save a
// training checkpoint by hand, load it into a fresh model, and feed the
// state to TrainConfig.ResumeFrom.
func TestExplicitSaveLoadResume(t *testing.T) {
	cfg := dropback.TrainConfig{
		Method: dropback.MethodBaseline, Epochs: 3, BatchSize: 32, Seed: 9}

	mRef, train, val := ftMLP(9)
	refRes := dropback.Train(mRef, train, val, cfg)

	dir := t.TempDir()
	m1, train1, val1 := ftMLP(9)
	cfgA := cfg
	cfgA.Epochs = 1
	cfgA.Checkpoint = &dropback.CheckpointSpec{Dir: dir, Every: 1}
	dropback.Train(m1, train1, val1, cfgA)
	files, _ := filepath.Glob(filepath.Join(dir, "*.dbck"))
	if len(files) != 1 {
		t.Fatalf("expected 1 checkpoint, found %v", files)
	}

	m2, train2, val2 := ftMLP(9)
	ts, err := dropback.LoadTrainCheckpoint(files[0], m2)
	if err != nil {
		t.Fatal(err)
	}
	if ts == nil || ts.Epoch != 1 {
		t.Fatalf("loaded state %+v, want epoch 1", ts)
	}
	cfgB := cfg
	cfgB.ResumeFrom = ts
	res2, err := dropback.TrainE(m2, train2, val2, cfgB)
	if err != nil {
		t.Fatal(err)
	}
	historiesEqual(t, res2.History, refRes.History)
	snapshotsEqual(t, m2.Set.Snapshot(), mRef.Set.Snapshot(), "explicit resume")
}

// TestNaNInjectionRecovery injects a NaN gradient mid-run and demands the
// trainer roll back, halve the learning rate, and finish without
// divergence — with the rollback visible in the result and the telemetry.
func TestNaNInjectionRecovery(t *testing.T) {
	m, train, val := ftMLP(7)
	inj := &faults.NaNInjector{Step: 6, Index: 3}
	col := dropback.NewTelemetryCollector(dropback.TelemetryOptions{})
	res, err := dropback.TrainE(m, train, val, dropback.TrainConfig{
		Method: dropback.MethodBaseline, Epochs: 2, BatchSize: 32, Seed: 7,
		GradHook:           inj.Hook(),
		MaxRecoveryRetries: 2,
		Telemetry:          col,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !inj.Fired() {
		t.Fatal("injector never fired")
	}
	if res.Diverged {
		t.Fatal("run diverged despite recovery being enabled")
	}
	if res.Rollbacks != 1 {
		t.Fatalf("Rollbacks = %d, want 1", res.Rollbacks)
	}
	if res.LRScale != 0.5 {
		t.Fatalf("LRScale = %v, want 0.5", res.LRScale)
	}
	if len(res.History) != 2 {
		t.Fatalf("run recorded %d epochs, want 2", len(res.History))
	}
	if got := col.Counters()["recovery/rollbacks"]; got != 1 {
		t.Fatalf("recovery/rollbacks counter = %v, want 1", got)
	}
	for _, es := range res.History {
		if math.IsNaN(es.TrainLoss) || math.IsInf(es.TrainLoss, 0) {
			t.Fatalf("non-finite train loss survived recovery: %+v", es)
		}
	}
}

// TestNaNWithoutRecoveryDiverges pins the legacy behavior: with recovery
// disabled, an injected NaN propagates into the weights and the run is
// declared Diverged.
func TestNaNWithoutRecoveryDiverges(t *testing.T) {
	m, train, val := ftMLP(7)
	// Poison the last parameter (an output-layer bias): a NaN there reaches
	// the loss directly. A NaN in an early layer can be masked by ReLU
	// (NaN > 0 is false), which is exactly why recovery scans gradients
	// rather than waiting for the loss to go non-finite.
	inj := &faults.NaNInjector{Step: 2, Index: m.Set.Total() - 1}
	res := dropback.Train(m, train, val, dropback.TrainConfig{
		Method: dropback.MethodBaseline, Epochs: 2, BatchSize: 32, Seed: 7,
		GradHook: inj.Hook(),
	})
	if !res.Diverged {
		t.Fatal("expected divergence with recovery disabled")
	}
}

// TestRecoveryRetriesExhausted uses a hook that re-fires on every replay of
// the faulty step, so recovery burns its retry budget and the run is
// declared Diverged with the rollbacks on record.
func TestRecoveryRetriesExhausted(t *testing.T) {
	m, train, val := ftMLP(7)
	fires := 0
	res, err := dropback.TrainE(m, train, val, dropback.TrainConfig{
		Method: dropback.MethodBaseline, Epochs: 2, BatchSize: 32, Seed: 7,
		GradHook: func(step int, set *nn.ParamSet) {
			if step == 4 {
				fires++
				p := set.Params()[0]
				p.Grad.Data[0] = float32(math.NaN())
			}
		},
		MaxRecoveryRetries: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Diverged {
		t.Fatal("expected divergence after retries exhausted")
	}
	if res.Rollbacks != 2 {
		t.Fatalf("Rollbacks = %d, want 2", res.Rollbacks)
	}
	if fires != 3 {
		t.Fatalf("hook fired %d times, want 3 (original + 2 replays)", fires)
	}
}

// TestRollbackMatchesResume pins what a rollback restores: a NaN at the
// first step of epoch 2 must leave the run byte-equal to one resumed from
// the epoch-1 checkpoint with the backoff already applied (LRScale 0.5,
// one retry spent). The conv fixture's BatchNorm statistics and Dropout
// streams, and DropBack's tracked set, must all rewind with the weights.
func TestRollbackMatchesResume(t *testing.T) {
	base := dropback.TrainConfig{
		Method: dropback.MethodDropBack, Budget: 400, FreezeAfterEpoch: 1,
		Epochs: 3, BatchSize: 16, Seed: 13,
	}

	mA, trainA, valA := ftConv(13)
	inj := &faults.NaNInjector{Step: trainA.Len() / base.BatchSize, Index: 3}
	cfgA := base
	cfgA.GradHook = inj.Hook()
	cfgA.MaxRecoveryRetries = 2
	resA, err := dropback.TrainE(mA, trainA, valA, cfgA)
	if err != nil {
		t.Fatal(err)
	}
	if !inj.Fired() || resA.Rollbacks != 1 {
		t.Fatalf("injector fired %v, rollbacks %d; want one rollback", inj.Fired(), resA.Rollbacks)
	}

	dir := t.TempDir()
	m1, train1, val1 := ftConv(13)
	cfg1 := base
	cfg1.Epochs = 1
	cfg1.Checkpoint = &dropback.CheckpointSpec{Dir: dir, Every: 1}
	dropback.Train(m1, train1, val1, cfg1)
	files, _ := filepath.Glob(filepath.Join(dir, "*.dbck"))
	if len(files) != 1 {
		t.Fatalf("expected 1 checkpoint, found %v", files)
	}
	mB, trainB, valB := ftConv(13)
	ts, err := dropback.LoadTrainCheckpoint(files[0], mB)
	if err != nil {
		t.Fatal(err)
	}
	ts.LRScale, ts.Retries = 0.5, 1
	cfgB := base
	cfgB.ResumeFrom = ts
	resB, err := dropback.TrainE(mB, trainB, valB, cfgB)
	if err != nil {
		t.Fatal(err)
	}

	historiesEqual(t, resA.History, resB.History)
	snapshotsEqual(t, mA.Set.Snapshot(), mB.Set.Snapshot(), "rollback vs resume")
	if resA.LRScale != resB.LRScale || resA.LRScale != 0.5 {
		t.Fatalf("LRScale: rollback %v, resume %v; want 0.5", resA.LRScale, resB.LRScale)
	}
}

// TestRecoveryBackoffSurvivesRepeatedFailure fails one step twice before it
// succeeds: each rollback must keep the backoff the previous one applied,
// so the run ends two halvings down rather than restoring to one.
func TestRecoveryBackoffSurvivesRepeatedFailure(t *testing.T) {
	m, train, val := ftMLP(7)
	calls := 0
	res, err := dropback.TrainE(m, train, val, dropback.TrainConfig{
		Method: dropback.MethodBaseline, Epochs: 2, BatchSize: 32, Seed: 7,
		GradHook: func(step int, set *nn.ParamSet) {
			if step == 4 {
				if calls++; calls <= 2 {
					set.Params()[0].Grad.Data[0] = float32(math.NaN())
				}
			}
		},
		MaxRecoveryRetries: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Diverged {
		t.Fatal("run diverged although the third attempt succeeds")
	}
	if res.Rollbacks != 2 || res.LRScale != 0.25 {
		t.Fatalf("Rollbacks = %d, LRScale = %v; want 2 and 0.25", res.Rollbacks, res.LRScale)
	}
}

// TestTrainEValidatesConfig pins the error-returning path for the configs
// Train historically panicked on.
func TestTrainEValidatesConfig(t *testing.T) {
	m, train, val := ftMLP(1)
	if _, err := dropback.TrainE(m, train, val, dropback.TrainConfig{
		Method: dropback.MethodBaseline, Epochs: 0, BatchSize: 32}); err == nil {
		t.Fatal("expected error for zero epochs")
	}
	if _, err := dropback.TrainE(m, train, val, dropback.TrainConfig{
		Method: dropback.MethodBaseline, Epochs: 1, BatchSize: 0}); err == nil {
		t.Fatal("expected error for zero batch size")
	}
	if _, err := dropback.TrainE(m, train, val, dropback.TrainConfig{
		Method: dropback.MethodDropBack, Epochs: 1, BatchSize: 32}); err == nil {
		t.Fatal("expected error for DropBack without a budget")
	}
	if _, err := dropback.TrainE(m, train, val, dropback.TrainConfig{
		Method: dropback.MethodBaseline, Epochs: 1, BatchSize: 32,
		MaxRecoveryRetries: -1}); err == nil {
		t.Fatal("expected error for negative retry budget")
	}
	if _, err := dropback.TrainE(m, train, val, dropback.TrainConfig{
		Method: dropback.MethodBaseline, Epochs: 1, BatchSize: 32,
		Checkpoint: &dropback.CheckpointSpec{}}); err == nil {
		t.Fatal("expected error for checkpointing without a directory")
	}
}
