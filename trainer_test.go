package dropback

import (
	"math"
	"testing"

	"dropback/internal/data"
	"dropback/internal/models"
	"dropback/internal/optim"
	"dropback/internal/prune"
)

// smallData builds a quick synthetic dataset: 14×14 images, flattened.
func smallData(n int, seed uint64) (train, val *Dataset) {
	cfg := data.SynthConfig{
		Classes: 10, Samples: n, Size: 14, Channels: 1,
		Bumps: 5, MaxShift: 1, Noise: 0.1, Seed: seed,
	}
	ds := data.Generate(cfg).Flatten()
	return ds.Split(n * 4 / 5)
}

// smallMLP builds a matching small model.
func smallMLP(seed uint64) *Model {
	return models.ReducedMNISTMLP("t", 14, 32, 32, seed, nil)
}

func quickCfg(method Method) TrainConfig {
	return TrainConfig{
		Method: method, Epochs: 6, BatchSize: 32, Seed: 9,
		Schedule: optim.StepDecay{Initial: 0.2, Factor: 0.5, Every: 3},
	}
}

func TestTrainBaselineLearns(t *testing.T) {
	train, val := smallData(400, 1)
	res := Train(smallMLP(1), train, val, quickCfg(MethodBaseline))
	if res.Diverged {
		t.Fatal("baseline diverged")
	}
	if res.BestValAcc < 0.5 {
		t.Fatalf("baseline val acc = %v, want > 0.5", res.BestValAcc)
	}
	if res.Compression != 1 {
		t.Fatalf("baseline compression = %v, want 1", res.Compression)
	}
	if len(res.History) == 0 || res.BestEpoch == 0 {
		t.Fatal("history/best epoch not recorded")
	}
	if math.Abs(res.BestValErr-(1-res.BestValAcc)) > 1e-12 {
		t.Fatal("BestValErr must be 1 − BestValAcc")
	}
}

func TestTrainDropBackLearnsAndConstrains(t *testing.T) {
	train, val := smallData(400, 2)
	m := smallMLP(2)
	cfg := quickCfg(MethodDropBack)
	cfg.Budget = m.Set.Total() / 4
	cfg.FreezeAfterEpoch = 3
	res := Train(m, train, val, cfg)
	if res.BestValAcc < 0.5 {
		t.Fatalf("dropback val acc = %v, want > 0.5", res.BestValAcc)
	}
	if math.Abs(res.Compression-4) > 0.1 {
		t.Fatalf("compression = %v, want ~4", res.Compression)
	}
	if len(res.SwapHistory) == 0 {
		t.Fatal("DropBack must record swap history")
	}
	if len(res.AccumulatedGradients) != m.Set.Total() {
		t.Fatal("accumulated gradients missing")
	}
	if len(res.Retention) == 0 {
		t.Fatal("retention breakdown missing")
	}
	if res.Regenerations == 0 {
		t.Fatal("regeneration counter missing")
	}
}

func TestTrainDropBackRestoresBestWeightsUnderConstraint(t *testing.T) {
	// After Train returns, the model carries the best-epoch weights; for
	// DropBack those still satisfy the at-most-k-deviations invariant.
	train, val := smallData(300, 3)
	m := smallMLP(3)
	cfg := quickCfg(MethodDropBack)
	cfg.Budget = m.Set.Total() / 5
	res := Train(m, train, val, cfg)
	deviating := 0
	for g := 0; g < m.Set.Total(); g++ {
		if m.Set.Get(g) != m.Set.InitialValue(g) {
			deviating++
		}
	}
	if deviating > cfg.Budget {
		t.Fatalf("%d weights deviate from init, budget is %d", deviating, cfg.Budget)
	}
	_ = res
}

func TestTrainMagnitude(t *testing.T) {
	train, val := smallData(300, 4)
	cfg := quickCfg(MethodMagnitude)
	cfg.PruneFraction = 0.5
	res := Train(smallMLP(4), train, val, cfg)
	if math.Abs(res.Compression-2) > 0.1 {
		t.Fatalf("magnitude compression = %v, want ~2", res.Compression)
	}
	if res.BestValAcc < 0.3 {
		t.Fatalf("magnitude val acc = %v", res.BestValAcc)
	}
}

func TestTrainVariational(t *testing.T) {
	train, val := smallData(300, 5)
	m := models.ReducedMNISTMLP("vdm", 14, 32, 32, 5, prune.Variational{})
	cfg := quickCfg(MethodVariational)
	cfg.Schedule = optim.Constant(0.05) // VD is unstable at high LR (the point of Fig 5)
	cfg.KLScale = 1.0 / 240
	res := Train(m, train, val, cfg)
	if res.Diverged {
		t.Skip("VD diverged at this configuration (paper-consistent behaviour)")
	}
	if res.BestValAcc < 0.3 {
		t.Fatalf("VD val acc = %v", res.BestValAcc)
	}
	if res.Compression < 1 {
		t.Fatalf("VD compression = %v", res.Compression)
	}
}

func TestTrainVariationalPanicsOnPlainModel(t *testing.T) {
	train, val := smallData(100, 6)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for VD on a plain model")
		}
	}()
	Train(smallMLP(6), train, val, quickCfg(MethodVariational))
}

func TestTrainSlimming(t *testing.T) {
	// Slimming needs BN layers; use a small conv net.
	train, val := convData(200, 7)
	m := models.NewVGGS(models.VGGSReduced(8, 2, 7, nil))
	cfg := quickCfg(MethodSlimming)
	cfg.Schedule = optim.Constant(0.05)
	cfg.SlimLambda = 1e-4
	cfg.SlimPruneFraction = 0.3
	cfg.SlimPruneAtEpoch = 2
	res := Train(m, train, val, cfg)
	if res.Compression <= 1 {
		t.Fatalf("slimming compression = %v, want > 1", res.Compression)
	}
}

// convData builds a small 8×8 RGB dataset for conv models.
func convData(n int, seed uint64) (train, val *Dataset) {
	cfg := data.SynthConfig{
		Classes: 10, Samples: n, Size: 8, Channels: 3,
		Bumps: 4, MaxShift: 1, Noise: 0.1, Seed: seed,
	}
	ds := data.Generate(cfg)
	return ds.Split(n * 4 / 5)
}

func TestTrainEarlyStopping(t *testing.T) {
	train, val := smallData(200, 8)
	cfg := quickCfg(MethodBaseline)
	cfg.Epochs = 50
	cfg.Patience = 2
	cfg.Schedule = optim.Constant(0.0) // no learning: accuracy frozen
	res := Train(smallMLP(8), train, val, cfg)
	if len(res.History) > 4 {
		t.Fatalf("early stopping failed: %d epochs ran", len(res.History))
	}
}

func TestTrainSnapshotsAndDiffusion(t *testing.T) {
	train, val := smallData(200, 9)
	cfg := quickCfg(MethodBaseline)
	cfg.SnapshotEvery = 3
	res := Train(smallMLP(9), train, val, cfg)
	if len(res.Snapshots) == 0 {
		t.Fatal("no snapshots recorded")
	}
	if len(res.DiffusionSteps) < 2 {
		t.Fatal("diffusion series too short")
	}
	if res.DiffusionDist[0] != 0 {
		t.Fatalf("diffusion must start at 0, got %v", res.DiffusionDist[0])
	}
	// Distances must grow from the anchor as training proceeds.
	last := res.DiffusionDist[len(res.DiffusionDist)-1]
	if last <= 0 {
		t.Fatalf("final diffusion distance = %v, want > 0", last)
	}
}

func TestTrainDeterministic(t *testing.T) {
	train, val := smallData(200, 10)
	cfg := quickCfg(MethodDropBack)
	cfg.Budget = 500
	r1 := Train(smallMLP(10), train, val, cfg)
	r2 := Train(smallMLP(10), train, val, cfg)
	if r1.BestValAcc != r2.BestValAcc || r1.BestEpoch != r2.BestEpoch {
		t.Fatalf("non-deterministic training: %v/%v vs %v/%v",
			r1.BestValAcc, r1.BestEpoch, r2.BestValAcc, r2.BestEpoch)
	}
	for i := range r1.History {
		if r1.History[i].TrainLoss != r2.History[i].TrainLoss {
			t.Fatal("per-epoch losses differ between identical runs")
		}
	}
}

func TestEvaluateBatching(t *testing.T) {
	_, val := smallData(150, 11)
	m := smallMLP(11)
	l1, a1 := Evaluate(m, val, 7)  // uneven final batch
	l2, a2 := Evaluate(m, val, 30) // divides evenly
	if math.Abs(l1-l2) > 1e-6 || math.Abs(a1-a2) > 1e-6 {
		t.Fatalf("Evaluate depends on batch size: (%v,%v) vs (%v,%v)", l1, a1, l2, a2)
	}
}

func TestMethodString(t *testing.T) {
	names := map[Method]string{
		MethodBaseline: "Baseline", MethodDropBack: "DropBack",
		MethodMagnitude: "Mag Pruning", MethodVariational: "Var. Dropout",
		MethodSlimming: "Slimming", Method(99): "Unknown",
	}
	for m, want := range names {
		if m.String() != want {
			t.Fatalf("Method(%d).String() = %q, want %q", m, m.String(), want)
		}
	}
}

func TestTrainPanicsOnBadConfig(t *testing.T) {
	train, val := smallData(100, 12)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero epochs")
		}
	}()
	Train(smallMLP(12), train, val, TrainConfig{Method: MethodBaseline, BatchSize: 8})
}

func TestPublicAPIFacade(t *testing.T) {
	ds := MNISTLike(50, 1)
	if ds.Len() != 50 {
		t.Fatal("MNISTLike facade broken")
	}
	cds := CIFARLike(20, 1)
	if cds.X.Shape[1] != 3 {
		t.Fatal("CIFARLike facade broken")
	}
	if MNIST100100(1).Set.Total() != 89610 {
		t.Fatal("MNIST100100 facade broken")
	}
	if LeNet300100(1).Set.Total() != 266610 {
		t.Fatal("LeNet300100 facade broken")
	}
	if VGGSReduced(8, 2, 1, false).Set.Total() == 0 {
		t.Fatal("VGGSReduced facade broken")
	}
	if WRNReduced(10, 1, 1, false).Set.Total() == 0 {
		t.Fatal("WRNReduced facade broken")
	}
	if DenseNetReduced(13, 4, 1, false).Set.Total() == 0 {
		t.Fatal("DenseNetReduced facade broken")
	}
}

func TestEvaluateDetailed(t *testing.T) {
	train, val := smallData(200, 41)
	m := smallMLP(41)
	Train(m, train, val, TrainConfig{Method: MethodBaseline, Epochs: 3, BatchSize: 32, Seed: 41})
	conf := EvaluateDetailed(m, val, 16)
	if conf.Total() != int64(val.Len()) {
		t.Fatalf("confusion total %d != val size %d", conf.Total(), val.Len())
	}
	_, acc := Evaluate(m, val, 16)
	if d := conf.Accuracy() - acc; d > 1e-12 || d < -1e-12 {
		t.Fatalf("confusion accuracy %v != Evaluate accuracy %v", conf.Accuracy(), acc)
	}
	if stats := conf.PerClass(); len(stats) != val.Classes {
		t.Fatalf("per-class stats length %d", len(stats))
	}
}

func TestTrainDSD(t *testing.T) {
	train, val := smallData(300, 51)
	cfg := quickCfg(MethodDSD)
	cfg.Epochs = 6
	cfg.DSDSparseFraction = 0.3
	cfg.DSDSparseStart = 2
	cfg.DSDSparseEnd = 4
	res := Train(smallMLP(51), train, val, cfg)
	if res.Diverged {
		t.Fatal("DSD diverged")
	}
	if res.BestValAcc < 0.5 {
		t.Fatalf("DSD val acc = %v", res.BestValAcc)
	}
	// §2.2's point: DSD's final model is dense.
	if res.Compression != 1 {
		t.Fatalf("DSD compression = %v, want 1 (dense final model)", res.Compression)
	}
}

func TestMethodDSDString(t *testing.T) {
	if MethodDSD.String() != "DSD" {
		t.Fatalf("MethodDSD.String() = %q", MethodDSD.String())
	}
}
