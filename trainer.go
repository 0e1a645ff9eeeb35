package dropback

import (
	"fmt"
	"math"
	"time"

	"dropback/internal/checkpoint"
	"dropback/internal/core"
	"dropback/internal/data"
	"dropback/internal/dist"
	"dropback/internal/metrics"
	"dropback/internal/nn"
	"dropback/internal/optim"
	"dropback/internal/sparsenn"
	"dropback/internal/stats"
	"dropback/internal/telemetry"
	"dropback/internal/tensor"
)

// Method selects the training regime.
type Method int

const (
	// MethodBaseline is unconstrained SGD (the paper's "Baseline" rows).
	MethodBaseline Method = iota
	// MethodDropBack applies the paper's contribution: top-k accumulated-
	// gradient tracking with on-the-fly regeneration of untracked weights.
	MethodDropBack
	// MethodMagnitude keeps only the highest-|w| weights each iteration.
	MethodMagnitude
	// MethodVariational trains with variational-dropout layers (the model
	// must be built with the variational factory) and KL-driven sparsity.
	MethodVariational
	// MethodSlimming trains with L1-penalized BN scales, prunes channels
	// at SlimPruneAtEpoch, and fine-tunes.
	MethodSlimming
	// MethodDSD is dense-sparse-dense training (Han et al. 2017), the
	// regularizer §2.2 contrasts DropBack with: a sparse phase between two
	// dense phases, dense weight memory throughout, final model dense.
	MethodDSD
)

// String returns the method's display name as used in the paper's tables.
func (m Method) String() string {
	switch m {
	case MethodBaseline:
		return "Baseline"
	case MethodDropBack:
		return "DropBack"
	case MethodMagnitude:
		return "Mag Pruning"
	case MethodVariational:
		return "Var. Dropout"
	case MethodSlimming:
		return "Slimming"
	case MethodDSD:
		return "DSD"
	default:
		return "Unknown"
	}
}

// CheckpointSpec configures Train's managed crash-safe checkpointing: a
// rotating set of atomic checkpoints in Dir, one every Every epochs, each
// carrying the full resumable TrainState.
type CheckpointSpec struct {
	// Dir is the checkpoint directory (created on first save).
	Dir string
	// Prefix names the files ("ckpt" if empty).
	Prefix string
	// Every saves a checkpoint every N completed epochs (1 if zero).
	Every int
	// Keep bounds the rotation (3 if zero; negative keeps everything).
	Keep int
	// Resume loads the newest valid checkpoint from Dir before training,
	// skipping corrupt or truncated files. With no loadable checkpoint the
	// run starts fresh.
	Resume bool
}

// TrainConfig parameterizes a Train run.
type TrainConfig struct {
	// Method selects the regime. The method-specific fields below are read
	// once, when TrainE builds the method's constraint; the training loop
	// itself never branches on the method.
	Method Method
	// Epochs is the training length; BatchSize the mini-batch size.
	Epochs    int
	BatchSize int
	// Schedule is the learning-rate schedule (defaults to the paper's
	// MNIST schedule: 0.4 decayed ×0.5).
	Schedule optim.Schedule
	// Seed drives batching order; the model's own seed drives weights.
	Seed uint64
	// Patience stops training after this many epochs without a validation
	// improvement, mirroring the paper's best-epoch selection ("after 5
	// epochs of no improvement"). 0 disables early stopping.
	Patience int

	// Budget is DropBack's tracked-weight count k.
	Budget int
	// FreezeAfterEpoch freezes DropBack's tracked set after that epoch
	// (negative: never).
	FreezeAfterEpoch int
	// Strategy selects DropBack's top-k engine.
	Strategy core.TopKStrategy
	// SparseTrain runs MethodDropBack on the sparse-native training path:
	// the optimizer stores and updates only the tracked set (CSR deltas),
	// and the forward/backward kernels regenerate untracked weights per
	// minibatch instead of reading dense tensors — steady-state weight
	// state scales with Budget k, not the parameter count n. The run is
	// bit-identical to the dense trainer (same params, masks, history,
	// checkpoints), so checkpoints cross-resume in both directions. Not
	// compatible with Workers>1, divergence recovery, per-step snapshots,
	// or GradHook, all of which read dense per-step state.
	SparseTrain bool
	// DisableSwapHistory drops the per-step swap series from the
	// constraint and from Result.SwapHistory (the Swaps summary and all
	// other telemetry are unaffected). Set it on long runs where the
	// one-int-per-step series is unwanted; checkpoints store only a
	// bounded summary either way.
	DisableSwapHistory bool

	// PruneFraction is the magnitude baseline's per-iteration prune share.
	PruneFraction float64

	// KLScale scales the variational-dropout KL penalty (≈1/train-size).
	KLScale float32

	// SlimLambda is slimming's L1 strength; SlimPruneFraction its channel
	// prune share; SlimPruneAtEpoch when the prune-then-fine-tune switch
	// happens.
	SlimLambda        float32
	SlimPruneFraction float64
	SlimPruneAtEpoch  int

	// DSDSparseFraction is DSD's masked share (0.3–0.5 typical); the
	// sparse phase spans [DSDSparseStart, DSDSparseEnd) epochs.
	DSDSparseFraction float64
	DSDSparseStart    int
	DSDSparseEnd      int

	// SnapshotEvery records a full weight snapshot (for diffusion/PCA)
	// every N steps; 0 disables. Snapshots are memory-hungry: use only
	// with small models.
	SnapshotEvery int
	// MaxSnapshots bounds the number of stored snapshots (0 = no bound).
	MaxSnapshots int
	// SnapshotParams, if non-nil, restricts snapshots and diffusion
	// tracking to parameters whose name it accepts. Used to compare weight
	// trajectories across methods whose parameter sets differ (a
	// variational model carries an extra logα tensor per layer that a
	// standard model lacks).
	SnapshotParams func(name string) bool
	// Quiet suppresses per-epoch progress lines.
	Quiet bool
	// Progress, if non-nil, receives per-epoch progress lines.
	Progress func(string)

	// Telemetry, if non-nil and enabled, receives per-layer span timings,
	// per-step loss/latency samples, per-epoch summaries, and (for
	// DropBack) tracked-set gauges. Recorders only observe — a run with
	// telemetry enabled is bit-identical to the same run without it. Nil
	// means disabled.
	Telemetry telemetry.Recorder

	// MaxRecoveryRetries enables divergence recovery. When positive, a
	// NaN/Inf loss or a non-finite gradient or parameter rolls training
	// back to the last good in-memory snapshot and retries with the
	// learning rate halved (exponential backoff: each retry halves again),
	// up to this many retries across the run before the result is declared
	// Diverged. Zero keeps the historical behavior: divergence aborts
	// immediately.
	MaxRecoveryRetries int
	// RecoverySnapshotEvery is the number of steps between the in-memory
	// rollback snapshots divergence recovery restores to (1 if zero:
	// snapshot every step, so a rollback replays only the faulty step).
	RecoverySnapshotEvery int

	// Checkpoint, if non-nil, enables managed crash-safe checkpointing
	// (and, with Resume set, crash recovery) — see CheckpointSpec.
	Checkpoint *CheckpointSpec
	// ResumeFrom resumes training from a TrainState returned by
	// LoadTrainCheckpoint (which also restores the weights). The run
	// continues from the state's epoch up to Epochs total, bit-identical to
	// the uninterrupted run for every method (DSD re-selects its sparse mask
	// from the restored weights, which differs only if a kept weight is
	// exactly zero). Mutually exclusive with Checkpoint.Resume.
	ResumeFrom *checkpoint.TrainState

	// GradHook, if non-nil, runs after every backward pass with the
	// zero-based global step index and the parameter set, before the
	// optimizer applies the gradients. It exists as a fault-injection and
	// testing seam (see internal/faults); production runs leave it nil.
	GradHook func(step int, set *nn.ParamSet)

	// Workers is the data-parallel training width. 0 or 1 runs the
	// historical sequential step; W ≥ 2 splits every minibatch across W
	// workers whose per-sample gradient rows are reduced deterministically,
	// so results are bit-identical to Workers = 1 at any GOMAXPROCS (see
	// DESIGN.md §8). Requires WorkerModel, and a model whose layers pass
	// nn.CheckShardable (BatchNorm and PReLU models must train
	// sequentially). The worker count is an execution detail: it is not
	// recorded in checkpoints, and a run may resume under a different
	// Workers value bit-identically. With Dist, it is this node's local
	// width over its share of every minibatch, and nodes may differ.
	Workers int
	// WorkerModel builds one structurally identical model replica per extra
	// worker — in practice the same constructor call that built the primary
	// model, with the same seed. Replica parameter values are aliased to
	// the primary's; only their gradient buffers and layer workspaces stay
	// private. Required when Workers ≥ 2, ignored otherwise.
	WorkerModel func() (*Model, error)

	// Dist, if non-nil, joins a multi-node training cluster: this process
	// trains the contiguous shard of every minibatch that Dist.Rank owns
	// and exchanges per-sample gradient rows with every peer over TCP
	// (tracked-set values only, once DropBack freezes), folding them in the
	// same ascending order the sequential trainer uses — the run is
	// bit-identical to a sequential run with Dist disabled on every node
	// (DESIGN.md §12). Every node must run the same model, dataset, and
	// TrainConfig except Workers, which splits each node's share across
	// local workers and may differ between nodes (the connection handshake
	// verifies seed, method, budget, freeze epoch, batch size, parameter
	// space, and resume step). Supported for MethodBaseline and
	// MethodDropBack; like the in-process executor it requires
	// nn.CheckShardable layers, and it excludes SparseTrain, divergence
	// recovery, and GradHook. The cluster size is an execution detail:
	// checkpoints are node-count-free, and a run may resume under a
	// different world size bit-identically (every node resumes from the
	// same checkpoint).
	Dist *dist.Config
}

// Validate checks the configuration and reports the first problem. Train
// panics on invalid configs; TrainE returns the error.
func (c TrainConfig) Validate() error {
	if c.Epochs <= 0 {
		return fmt.Errorf("dropback: Epochs must be positive, got %d", c.Epochs)
	}
	if c.BatchSize <= 0 {
		return fmt.Errorf("dropback: BatchSize must be positive, got %d", c.BatchSize)
	}
	if c.Method < MethodBaseline || c.Method > MethodDSD {
		return fmt.Errorf("dropback: unknown method %d", c.Method)
	}
	if c.Method == MethodDropBack && c.Budget <= 0 {
		return fmt.Errorf("dropback: DropBack requires a positive Budget, got %d", c.Budget)
	}
	if c.Method == MethodMagnitude && (c.PruneFraction < 0 || c.PruneFraction >= 1) {
		return fmt.Errorf("dropback: PruneFraction must be in [0,1), got %g", c.PruneFraction)
	}
	if c.Method == MethodSlimming && (c.SlimPruneFraction < 0 || c.SlimPruneFraction >= 1) {
		return fmt.Errorf("dropback: SlimPruneFraction must be in [0,1), got %g", c.SlimPruneFraction)
	}
	if c.Method == MethodDSD && (c.DSDSparseFraction < 0 || c.DSDSparseFraction >= 1) {
		return fmt.Errorf("dropback: DSDSparseFraction must be in [0,1), got %g", c.DSDSparseFraction)
	}
	if c.Patience < 0 {
		return fmt.Errorf("dropback: Patience must be non-negative, got %d", c.Patience)
	}
	if c.SnapshotEvery < 0 || c.MaxSnapshots < 0 {
		return fmt.Errorf("dropback: SnapshotEvery and MaxSnapshots must be non-negative")
	}
	if c.MaxRecoveryRetries < 0 {
		return fmt.Errorf("dropback: MaxRecoveryRetries must be non-negative, got %d", c.MaxRecoveryRetries)
	}
	if c.RecoverySnapshotEvery < 0 {
		return fmt.Errorf("dropback: RecoverySnapshotEvery must be non-negative, got %d", c.RecoverySnapshotEvery)
	}
	if c.Checkpoint != nil {
		if c.Checkpoint.Dir == "" {
			return fmt.Errorf("dropback: Checkpoint.Dir must be set")
		}
		if c.Checkpoint.Every < 0 {
			return fmt.Errorf("dropback: Checkpoint.Every must be non-negative, got %d", c.Checkpoint.Every)
		}
		if c.Checkpoint.Resume && c.ResumeFrom != nil {
			return fmt.Errorf("dropback: Checkpoint.Resume and ResumeFrom are mutually exclusive")
		}
	}
	if c.Workers < 0 {
		return fmt.Errorf("dropback: Workers must be non-negative, got %d", c.Workers)
	}
	if c.Workers > 1 && c.WorkerModel == nil {
		return fmt.Errorf("dropback: Workers = %d requires a WorkerModel factory", c.Workers)
	}
	if c.SparseTrain {
		if c.Method != MethodDropBack {
			return fmt.Errorf("dropback: SparseTrain requires MethodDropBack, got %v", c.Method)
		}
		if c.Workers > 1 {
			return fmt.Errorf("dropback: SparseTrain does not support Workers = %d (slab gradient emission needs dense tensors)", c.Workers)
		}
		if c.MaxRecoveryRetries > 0 {
			return fmt.Errorf("dropback: SparseTrain does not support divergence recovery (per-step snapshots read dense weights)")
		}
		if c.GradHook != nil {
			return fmt.Errorf("dropback: SparseTrain does not support GradHook (frozen big-tensor gradients live in the tracked set, not dense buffers)")
		}
	}
	if c.Dist != nil {
		if err := c.Dist.Validate(); err != nil {
			return err
		}
		if c.Method != MethodBaseline && c.Method != MethodDropBack {
			return fmt.Errorf("dropback: Dist supports MethodBaseline and MethodDropBack, got %v", c.Method)
		}
		if c.SparseTrain {
			return fmt.Errorf("dropback: Dist does not support SparseTrain (slab gradient emission needs dense tensors)")
		}
		if c.MaxRecoveryRetries > 0 {
			return fmt.Errorf("dropback: Dist does not support divergence recovery (a rollback on one node would desynchronize the cluster)")
		}
		if c.GradHook != nil {
			return fmt.Errorf("dropback: Dist does not support GradHook (frozen-phase remote gradient rows are exact only at tracked indices)")
		}
	}
	if c.ResumeFrom != nil {
		// The batcher cursor must describe a position inside the captured
		// permutation. A cursor past the end means the checkpoint was
		// written against a larger dataset (or corrupted in storage);
		// resuming would index past the permutation and read samples the
		// captured run never scheduled.
		b := c.ResumeFrom.Batcher
		if b.Pos < 0 {
			return fmt.Errorf("dropback: resume state batcher cursor is negative (%d)", b.Pos)
		}
		if b.Pos > len(b.Perm) {
			return fmt.Errorf("dropback: resume state batcher cursor %d exceeds its %d-sample permutation — the checkpoint was captured against a larger dataset or is corrupt", b.Pos, len(b.Perm))
		}
	}
	return nil
}

// EpochStats records one epoch of training.
type EpochStats struct {
	Epoch     int
	LR        float32
	TrainLoss float64
	TrainAcc  float64
	ValLoss   float64
	ValAcc    float64
}

// Result is the outcome of a Train run, carrying the telemetry the paper's
// tables and figures are built from.
type Result struct {
	Method  Method
	History []EpochStats
	// BestEpoch is the 1-based epoch with the highest validation accuracy.
	BestEpoch  int
	BestValAcc float64
	// BestValErr = 1 − BestValAcc, the tables' "Validation Error" column.
	BestValErr float64
	// Compression is the weight-compression factor of the method's final
	// state (1 for baseline).
	Compression float64
	// Diverged is set when training produced NaN/Inf (the paper reports
	// variational dropout diverging on Densenet and WRN as "90%" error)
	// and divergence recovery was disabled or exhausted its retries.
	Diverged bool
	// Rollbacks counts divergence-recovery rollbacks performed; LRScale is
	// the final backoff multiplier (1 when no rollback happened).
	Rollbacks int
	LRScale   float32

	// SwapHistory is DropBack's per-step tracked-set entry count (Fig 2).
	SwapHistory []int
	// AccumulatedGradients is the final |W_t − W_0| vector (Fig 1).
	AccumulatedGradients []float32
	// Retention is DropBack's per-layer tracked-weight breakdown (Table 2).
	Retention []core.LayerRetention
	// Regenerations counts untracked-weight regenerations performed.
	Regenerations int64

	// DiffusionSteps/DiffusionDist is the ‖w_t − w_0‖ series (Fig 5).
	DiffusionSteps []int
	DiffusionDist  []float64
	// Snapshots are the recorded weight vectors (Fig 6's PCA input).
	Snapshots     [][]float32
	SnapshotSteps []int
}

// Train runs the configured regime on the model and returns the result,
// panicking on invalid configuration or checkpoint I/O failure. Use TrainE
// for errors as values.
func Train(m *Model, train, val *Dataset, cfg TrainConfig) *Result {
	res, err := TrainE(m, train, val, cfg)
	if err != nil {
		panic("dropback: " + err.Error())
	}
	return res
}

// TrainE runs the configured regime on the model and returns the result.
// Every method runs the same loop: the method's constraint (newConstraint)
// contributes its hooks at epoch start, as the optimizer update, at epoch
// end, and on resume. The model must be built with variational
// layers when Method is MethodVariational. Configuration problems,
// resume-state mismatches, and checkpoint I/O failures are returned as
// errors.
func TrainE(m *Model, train, val *Dataset, cfg TrainConfig) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Schedule == nil {
		// Default: the paper's step-decay shape (×0.5, four decays) spread
		// over the configured epochs, at an initial rate suited to the
		// synthetic datasets. Pass optim.PaperMNIST()/PaperCIFAR() to use
		// the paper's exact schedules.
		cfg.Schedule = optim.StepDecay{Initial: 0.1, Factor: 0.5, Every: max(cfg.Epochs/5, 1), MaxDecays: 4}
	}
	res := &Result{Method: cfg.Method, Compression: 1, LRScale: 1}

	c, err := newConstraint(m, cfg)
	if err != nil {
		return nil, err
	}
	// db is nil for every method but DropBack, whose engine the resume
	// state, the telemetry, the sparse mirror and the dist executor read.
	db, _ := c.(*core.DropBack)
	// SparseTrain (Validate admits it for DropBack only) steps a sparse
	// mirror of the model that computes over the engine's CSR storage.
	var mirror nn.Layer
	if cfg.SparseTrain {
		if mirror, err = sparsenn.NewTrainingMirror(m, db); err != nil {
			return nil, err
		}
	}

	rec := telemetry.OrNop(cfg.Telemetry)
	telemetryOn := rec.Enabled()
	if telemetryOn {
		nn.Instrument(m.Net, rec)
		defer nn.Instrument(m.Net, nil)
		// The sparse mirror's containers are its own, so training steps
		// need their own instrumentation to emit per-layer spans.
		if mirror != nil {
			nn.Instrument(mirror, rec)
			defer nn.Instrument(mirror, nil)
		}
	}

	batcher := data.NewBatcher(train, cfg.BatchSize, cfg.Seed^0xBA7C4)
	sgd := optim.NewSGD(0)

	// The shard executor (Workers ≥ 2, or Dist) replaces only the
	// forward/backward half of the step; everything after the gradient
	// reduction — GradHook, divergence checks, the optimizer, and the
	// method constraint — runs unchanged on the primary model, once per
	// minibatch, exactly as in the sequential path.
	stepFn := m.Step
	var exec *shardExecutor
	if cfg.Workers > 1 || cfg.Dist != nil {
		if exec, err = newShardExecutor(m, max(cfg.Workers, 1), cfg.WorkerModel, cfg.Telemetry); err != nil {
			return nil, err
		}
		stepFn = exec.Step
	}
	if mirror != nil {
		stepFn = func(x *tensor.Tensor, labels []int) (loss, acc float64) {
			return sparsenn.TrainStep(m, mirror, x, labels)
		}
	}

	// Managed checkpointing: resolve the resume state before the diffusion
	// probes baseline themselves on the (possibly restored) weights.
	var mgr *checkpoint.Manager
	resume := cfg.ResumeFrom
	if cfg.Checkpoint != nil {
		mgr = &checkpoint.Manager{Dir: cfg.Checkpoint.Dir, Prefix: cfg.Checkpoint.Prefix, Keep: cfg.Checkpoint.Keep}
		if cfg.Checkpoint.Resume {
			ts, report, err := mgr.LoadLatestValid(m)
			if err != nil {
				return nil, err
			}
			if telemetryOn && len(report.Skipped) > 0 {
				rec.Counter("recovery/skipped_corrupt_checkpoints", float64(len(report.Skipped)))
			}
			resume = ts
		}
	}

	step := 0
	startEpoch := 0
	sinceBest := 0
	lrScale := float32(1)
	retries := 0
	bestSnapshot := m.Set.Snapshot()
	var bestBNState [][]float32

	if resume != nil {
		if err := applyResume(resume, m, train, batcher, sgd, db, res); err != nil {
			return nil, err
		}
		startEpoch = resume.Epoch
		step = resume.Step
		sinceBest = resume.SinceBest
		if resume.LRScale > 0 {
			lrScale = resume.LRScale
		}
		retries = resume.Retries
		if resume.BestEpoch > 0 && resume.BestParams != nil {
			bestSnapshot = resume.BestParams
			bestBNState = resume.BestBN
		}
		c.Resume(startEpoch)
	}

	// The executor joins the cluster only after the resume state is
	// resolved: the handshake verifies every node resumes at the same step
	// (all nodes must load the same checkpoint), and a resume mismatch
	// should fail before any socket is opened to a healthy peer.
	if cfg.Dist != nil {
		hs := dist.Handshake{
			Seed:        cfg.Seed,
			Method:      uint32(cfg.Method),
			Budget:      uint64(cfg.Budget),
			FreezeAfter: int64(cfg.FreezeAfterEpoch),
			Batch:       uint32(cfg.BatchSize),
			StartStep:   uint64(step),
		}
		if err := exec.join(db, *cfg.Dist, hs); err != nil {
			return nil, err
		}
		defer exec.Close()
	}

	diff := stats.NewDiffusion(filteredSnapshot(m.Set, cfg.SnapshotParams))
	diff.Record(step, filteredSnapshot(m.Set, cfg.SnapshotParams))
	maybeSnapshot(res, cfg, step, m.Set)

	recoveryOn := cfg.MaxRecoveryRetries > 0
	snapEvery := max(cfg.RecoverySnapshotEvery, 1)

epochs:
	for epoch := startEpoch; epoch < cfg.Epochs; epoch++ {
		sgd.LR = cfg.Schedule.At(epoch) * lrScale
		c.BeginEpoch(epoch)
		var lossSum, accSum float64
		var epochStart time.Time
		epochExamples := 0
		if telemetryOn {
			epochStart = time.Now()
		}
		nb := batcher.BatchesPerEpoch()
		var snap *recoverySnap
		if recoveryOn {
			snap = captureRecoverySnap(m, batcher, db, step, 0, 0, 0, 0)
		}
		for b := 0; b < nb; b++ {
			var stepStart time.Time
			if telemetryOn {
				stepStart = time.Now()
			}
			x, y := batcher.Next()
			loss, acc := stepFn(x, y)
			if exec != nil {
				// A failed exchange must surface as an error BEFORE the
				// optimizer runs: the weights stay exactly where the last
				// completed step left them — no torn updates.
				if derr := exec.Err(); derr != nil {
					return nil, fmt.Errorf("dropback: dist training step %d: %w", step, derr)
				}
			}
			if cfg.GradHook != nil {
				cfg.GradHook(step, m.Set)
			}
			diverged := math.IsNaN(loss) || math.IsInf(loss, 0)
			if recoveryOn && !diverged && !gradsFinite(m.Set) {
				diverged = true
			}
			swaps := -1
			if !diverged {
				swaps = c.Update(sgd)
				if recoveryOn && !paramsFinite(m.Set) {
					diverged = true
				}
			}
			if diverged {
				if !recoveryOn || retries >= cfg.MaxRecoveryRetries {
					res.Diverged = true
					break epochs
				}
				// Roll back to the last good snapshot and retry the span
				// with the learning rate halved — each further retry
				// halves again (exponential backoff), bounded by
				// MaxRecoveryRetries.
				retries++
				res.Rollbacks++
				lrScale *= 0.5
				sgd.LR = cfg.Schedule.At(epoch) * lrScale
				step = snap.step
				lossSum, accSum, epochExamples = snap.lossSum, snap.accSum, snap.examples
				restoreRecoverySnap(m, batcher, db, snap)
				b = snap.nextB - 1
				if telemetryOn {
					rec.Counter("recovery/rollbacks", 1)
					rec.Counter("recovery/retries", 1)
					rec.Gauge("recovery/lr_scale", float64(lrScale))
				}
				continue
			}
			lossSum += loss
			accSum += acc
			if telemetryOn && swaps >= 0 {
				rec.Counter("dropback/swaps", float64(swaps))
			}
			step++
			if recoveryOn && step%snapEvery == 0 {
				snap = captureRecoverySnap(m, batcher, db, step, b+1, lossSum, accSum, epochExamples)
			}
			if cfg.SnapshotEvery > 0 && step%cfg.SnapshotEvery == 0 {
				if mirror != nil {
					db.Densify() // CSR tensors' model copies are stale mid-epoch
				}
				diff.Record(step, filteredSnapshot(m.Set, cfg.SnapshotParams))
				maybeSnapshot(res, cfg, step, m.Set)
			}
			if telemetryOn {
				epochExamples += x.Shape[0]
				rec.StepDone(telemetry.StepSample{
					Epoch: epoch + 1, Step: step, Loss: loss,
					Examples: x.Shape[0], Latency: time.Since(stepStart),
				})
			}
		}
		var epochTrainDur time.Duration
		if telemetryOn {
			epochTrainDur = time.Since(epochStart)
		}
		c.EndEpoch(epoch)
		valLoss, valAcc := Evaluate(m, val, cfg.BatchSize)
		if math.IsNaN(valLoss) || math.IsInf(valLoss, 0) {
			res.Diverged = true
			break
		}
		es := EpochStats{
			Epoch: epoch + 1, LR: sgd.LR,
			TrainLoss: lossSum / float64(nb), TrainAcc: accSum / float64(nb),
			ValLoss: valLoss, ValAcc: valAcc,
		}
		res.History = append(res.History, es)
		if telemetryOn {
			if db != nil {
				rec.Gauge("dropback/tracked_set_size", float64(db.TrackedCount()))
				rec.Gauge("dropback/regenerations", float64(db.Regenerations()))
				rec.Gauge("dropback/tracked_writes", float64(db.TrackedWrites()))
			}
			if mirror != nil {
				// Its presence marks a run on CSR storage.
				rec.Gauge("dropback/weight_state_bytes", float64(db.WeightStateBytes()))
			}
			wsHits, wsMisses, wsBytes := tensor.WorkspaceStats()
			rec.Gauge(telemetry.GaugeWorkspaceHits, float64(wsHits))
			rec.Gauge(telemetry.GaugeWorkspaceMisses, float64(wsMisses))
			rec.Gauge(telemetry.GaugeWorkspaceBytesReused, float64(wsBytes))
			rec.Gauge(telemetry.GaugeTrainWorkers, float64(max(cfg.Workers, 1)))
			if exec != nil {
				exec.recordEpochTelemetry()
			}
			rec.EpochDone(telemetry.EpochSample{
				Epoch: epoch + 1, TrainLoss: es.TrainLoss, TrainAcc: es.TrainAcc,
				ValLoss: es.ValLoss, ValAcc: es.ValAcc,
				Examples: epochExamples, Duration: epochTrainDur,
			})
		}
		if cfg.Progress != nil {
			cfg.Progress(fmt.Sprintf("epoch %3d lr %.4f train loss %.4f acc %.4f | val loss %.4f acc %.4f",
				es.Epoch, es.LR, es.TrainLoss, es.TrainAcc, es.ValLoss, es.ValAcc))
		}
		improved := valAcc > res.BestValAcc
		if improved {
			res.BestValAcc = valAcc
			res.BestEpoch = epoch + 1
			sinceBest = 0
			bestSnapshot = m.Set.Snapshot()
			bestBNState = nn.CaptureBNState(m.Net)
		} else {
			sinceBest++
		}
		if mgr != nil {
			if (epoch+1-startEpoch)%max(cfg.Checkpoint.Every, 1) == 0 || epoch+1 == cfg.Epochs {
				ts := captureTrainState(epoch+1, step, lrScale, retries, sinceBest,
					res, bestSnapshot, bestBNState, m, batcher, sgd, db)
				if _, err := mgr.Save(m, ts); err != nil {
					return nil, fmt.Errorf("saving checkpoint after epoch %d: %w", epoch+1, err)
				}
			}
		}
		if !improved && cfg.Patience > 0 && sinceBest >= cfg.Patience {
			break
		}
	}

	// Restore the best weights so the returned model matches BestValAcc.
	if res.BestEpoch > 0 {
		m.Set.Restore(bestSnapshot)
		nn.RestoreBNState(m.Net, bestBNState)
	}
	res.BestValErr = 1 - res.BestValAcc
	if res.Diverged && res.BestValAcc == 0 {
		res.BestValErr = 0.9 // the paper reports diverged runs as "90%"
	}
	res.LRScale = lrScale

	res.DiffusionSteps, res.DiffusionDist = diff.Series()
	res.Compression = c.CompressionRatio()
	if db != nil {
		res.SwapHistory = db.SwapHistory()
		res.AccumulatedGradients = db.AccumulatedGradients()
		res.Retention = db.RetentionByLayer()
		res.Regenerations = db.Regenerations()
	}
	return res, nil
}

// applyResume restores the loop state a TrainState captures into the
// freshly constructed training objects. The weights and batch-norm
// statistics were already applied when the checkpoint was loaded.
func applyResume(ts *checkpoint.TrainState, m *Model, train *data.Dataset, batcher *data.Batcher, sgd *optim.SGD, db *core.DropBack, res *Result) error {
	if ts.Epoch < 0 || ts.Step < 0 {
		return fmt.Errorf("resume state has negative counters (epoch %d, step %d)", ts.Epoch, ts.Step)
	}
	// Validate the batcher cursor against the dataset actually being
	// trained on, not just the captured permutation: a dataset that shrank
	// since the checkpoint was written would otherwise replay sample
	// indices that no longer exist (and an empty-permutation state with a
	// non-zero cursor would silently skip the batcher restore below).
	if ts.Batcher.Pos < 0 || ts.Batcher.Pos > len(ts.Batcher.Perm) {
		return fmt.Errorf("resume state batcher cursor %d is outside its %d-sample permutation — checkpoint corrupt or captured against a different dataset", ts.Batcher.Pos, len(ts.Batcher.Perm))
	}
	if ts.Batcher.Pos > train.Len() {
		return fmt.Errorf("resume state batcher cursor %d exceeds the dataset length %d — the dataset shrank since the checkpoint was written", ts.Batcher.Pos, train.Len())
	}
	if len(ts.Batcher.Perm) > 0 {
		if err := batcher.Restore(ts.Batcher); err != nil {
			return err
		}
	}
	if ts.BestEpoch > 0 && ts.BestParams != nil && len(ts.BestParams) != m.Set.Total() {
		return fmt.Errorf("resume state's best snapshot has %d weights, model has %d", len(ts.BestParams), m.Set.Total())
	}
	res.BestValAcc = ts.BestValAcc
	res.BestEpoch = ts.BestEpoch
	for _, h := range ts.History {
		res.History = append(res.History, EpochStats{
			Epoch: h.Epoch, LR: h.LR,
			TrainLoss: h.TrainLoss, TrainAcc: h.TrainAcc,
			ValLoss: h.ValLoss, ValAcc: h.ValAcc,
		})
	}
	nn.RestoreLayerRNG(m.Net, ts.LayerRNG)
	if ts.OptName != "" && ts.OptName != "sgd" {
		return fmt.Errorf("resume state was captured with optimizer %q, trainer runs plain SGD", ts.OptName)
	}
	if err := sgd.RestoreState(m.Set, ts.Opt); err != nil {
		return err
	}
	if ts.DropBack != nil {
		if db == nil {
			return fmt.Errorf("resume state carries DropBack state but the method is %v", res.Method)
		}
		if err := db.RestoreState(*ts.DropBack); err != nil {
			return err
		}
	} else if db != nil && ts.Step > 0 {
		return fmt.Errorf("resume state carries no DropBack state but the method is DropBack")
	}
	return nil
}

// captureTrainState assembles the resumable TrainState at an epoch
// boundary: epochsDone epochs and step optimizer steps are complete.
func captureTrainState(epochsDone, step int, lrScale float32, retries, sinceBest int,
	res *Result, bestSnapshot []float32, bestBNState [][]float32,
	m *Model, batcher *data.Batcher, sgd *optim.SGD, db *core.DropBack) *checkpoint.TrainState {
	ts := &checkpoint.TrainState{
		Epoch:      epochsDone,
		Step:       step,
		LRScale:    lrScale,
		Retries:    retries,
		BestEpoch:  res.BestEpoch,
		BestValAcc: res.BestValAcc,
		SinceBest:  sinceBest,
		Batcher:    batcher.State(),
		OptName:    "sgd",
		Opt:        sgd.CaptureState(m.Set),
		LayerRNG:   nn.CaptureLayerRNG(m.Net),
	}
	if res.BestEpoch > 0 {
		ts.BestParams = append([]float32(nil), bestSnapshot...)
		ts.BestBN = make([][]float32, len(bestBNState))
		for i, s := range bestBNState {
			ts.BestBN[i] = append([]float32(nil), s...)
		}
	}
	for _, h := range res.History {
		ts.History = append(ts.History, checkpoint.EpochRecord{
			Epoch: h.Epoch, LR: h.LR,
			TrainLoss: h.TrainLoss, TrainAcc: h.TrainAcc,
			ValLoss: h.ValLoss, ValAcc: h.ValAcc,
		})
	}
	if db != nil {
		st := db.State()
		ts.DropBack = &st
	}
	return ts
}

// recoverySnap is the in-memory rollback point divergence recovery restores
// to: weights, batch-norm statistics, stochastic-layer RNG positions, the
// batcher's position, DropBack state, and the epoch's running counters.
type recoverySnap struct {
	params   []float32
	bn       [][]float32
	layerRNG map[string]uint64
	batch    data.BatcherState
	db       *core.State
	step     int
	nextB    int
	lossSum  float64
	accSum   float64
	examples int
}

func captureRecoverySnap(m *Model, batcher *data.Batcher, db *core.DropBack,
	step, nextB int, lossSum, accSum float64, examples int) *recoverySnap {
	s := &recoverySnap{
		params:   m.Set.Snapshot(),
		bn:       nn.CaptureBNState(m.Net),
		layerRNG: nn.CaptureLayerRNG(m.Net),
		batch:    batcher.State(),
		step:     step,
		nextB:    nextB,
		lossSum:  lossSum,
		accSum:   accSum,
		examples: examples,
	}
	if db != nil {
		st := db.State()
		s.db = &st
	}
	return s
}

func restoreRecoverySnap(m *Model, batcher *data.Batcher, db *core.DropBack, s *recoverySnap) {
	m.Set.Restore(s.params)
	nn.RestoreBNState(m.Net, s.bn)
	nn.RestoreLayerRNG(m.Net, s.layerRNG)
	// Same dataset, same length: Restore cannot fail here.
	if err := batcher.Restore(s.batch); err != nil {
		panic("dropback: " + err.Error())
	}
	if db != nil && s.db != nil {
		if err := db.RestoreState(*s.db); err != nil {
			panic("dropback: " + err.Error())
		}
	}
}

// gradsFinite reports whether every gradient is finite. The v-v trick
// classifies NaN and ±Inf in one branch-free compare per scalar (NaN−NaN
// and Inf−Inf are both NaN, which compares unequal to zero).
func gradsFinite(set *nn.ParamSet) bool {
	for _, p := range set.Params() {
		for _, v := range p.Grad.Data {
			if v-v != 0 {
				return false
			}
		}
	}
	return true
}

// paramsFinite reports whether every parameter value is finite.
func paramsFinite(set *nn.ParamSet) bool {
	for _, p := range set.Params() {
		for _, v := range p.Value.Data {
			if v-v != 0 {
				return false
			}
		}
	}
	return true
}

// maybeSnapshot appends a weight snapshot to the result, respecting the
// MaxSnapshots bound.
func maybeSnapshot(res *Result, cfg TrainConfig, step int, set *nn.ParamSet) {
	if cfg.SnapshotEvery <= 0 {
		return
	}
	if cfg.MaxSnapshots > 0 && len(res.Snapshots) >= cfg.MaxSnapshots {
		return
	}
	res.Snapshots = append(res.Snapshots, filteredSnapshot(set, cfg.SnapshotParams))
	res.SnapshotSteps = append(res.SnapshotSteps, step)
}

// filteredSnapshot copies current parameter values in registration order,
// restricted to parameters the filter accepts (nil accepts all).
func filteredSnapshot(set *nn.ParamSet, filter func(string) bool) []float32 {
	if filter == nil {
		return set.Snapshot()
	}
	var out []float32
	for _, p := range set.Params() {
		if filter(p.Name) {
			out = append(out, p.Value.Data...)
		}
	}
	return out
}

// Confusion is a square confusion matrix with per-class statistics.
type Confusion = metrics.Confusion

// EvaluateDetailed runs inference over a dataset and returns the full
// confusion matrix (per-class precision/recall, most-confused pairs)
// instead of a single accuracy number.
func EvaluateDetailed(m *Model, ds *Dataset, batchSize int) *Confusion {
	c := metrics.NewConfusion(ds.Classes)
	if batchSize <= 0 || batchSize > ds.Len() {
		batchSize = ds.Len()
	}
	for lo := 0; lo < ds.Len(); lo += batchSize {
		hi := lo + batchSize
		if hi > ds.Len() {
			hi = ds.Len()
		}
		x, y := ds.Batch(lo, hi)
		c.Add(m.Net.Forward(x, false), y)
	}
	return c
}

// Evaluate computes loss and accuracy over a dataset in mini-batches.
func Evaluate(m *Model, ds *Dataset, batchSize int) (loss, acc float64) {
	if ds.Len() == 0 {
		return 0, 0
	}
	if batchSize <= 0 || batchSize > ds.Len() {
		batchSize = ds.Len()
	}
	var lossSum, accSum float64
	n := 0
	for lo := 0; lo < ds.Len(); lo += batchSize {
		hi := lo + batchSize
		if hi > ds.Len() {
			hi = ds.Len()
		}
		x, y := ds.Batch(lo, hi)
		l, a := m.Eval(x, y)
		lossSum += l * float64(hi-lo)
		accSum += a * float64(hi-lo)
		n += hi - lo
	}
	return lossSum / float64(n), accSum / float64(n)
}
