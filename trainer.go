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
	// SparseTrain runs MethodDropBack with every Linear and Conv2D weight
	// on CSR storage: the engine stores and updates only the tracked set,
	// and the same layers regenerate untracked weights row by row as they
	// compute instead of reading dense tensors — steady-state weight state
	// scales with Budget k, not the parameter count n. The run is
	// bit-identical to the dense trainer (same params, masks, history,
	// checkpoints), so checkpoints cross-resume in both directions, and
	// TrainE hands the model back on dense storage. Not compatible with
	// Workers>1, divergence recovery, or GradHook, all of which read dense
	// per-step state.
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
	// SnapshotParams, if non-nil, restricts snapshots and diffusion
	// tracking to parameters whose name it accepts. Used to compare weight
	// trajectories across methods whose parameter sets differ (a
	// variational model carries an extra logα tensor per layer that a
	// standard model lacks).
	SnapshotParams func(name string) bool
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
	// back to the state before the faulty step and retries it with the
	// learning rate halved (exponential backoff: each retry halves again),
	// up to this many retries across the run before the result is declared
	// Diverged. Zero keeps the historical behavior: divergence aborts
	// immediately.
	MaxRecoveryRetries int

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
	// DESIGN.md §8). The extra workers run replicas of the model
	// (nn.Model.Replica) over its weights, so its layers must pass
	// nn.CheckShardable (BatchNorm and PReLU models must train
	// sequentially). The worker count is an execution detail: it is not
	// recorded in checkpoints, and a run may resume under a different
	// Workers value bit-identically. With Dist, it is this node's local
	// width over its share of every minibatch, and nodes may differ.
	Workers int

	// Dist, if non-nil, joins a multi-node training cluster: this process
	// trains the contiguous shard of every minibatch that Dist.Rank owns
	// and combines gradients with its peers over TCP: while the exchange is
	// dense it continues its predecessor's running sums down the rank
	// chain, and once DropBack freezes it exchanges per-sample tracked-set
	// rows. Either way every gradient is folded in the ascending sample
	// order the sequential trainer uses, so the run is bit-identical to a
	// sequential run with Dist disabled on every node (DESIGN.md §12). Every node must run the same model, dataset, and
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
	if c.SnapshotEvery < 0 {
		return fmt.Errorf("dropback: SnapshotEvery must be non-negative, got %d", c.SnapshotEvery)
	}
	if c.MaxRecoveryRetries < 0 {
		return fmt.Errorf("dropback: MaxRecoveryRetries must be non-negative, got %d", c.MaxRecoveryRetries)
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

// EpochStats records one epoch of training. It is the checkpoint's
// EpochRecord, so a TrainState carries a run's History as it is.
type EpochStats = checkpoint.EpochRecord

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
	r, err := newRun(m, train, cfg)
	if err != nil {
		return nil, err
	}
	res := r.res
	telemetryOn := r.rec.Enabled()
	if cfg.SparseTrain {
		// A run that fails still hands back a model on dense storage; finish
		// does the same before restoring the best weights.
		defer r.db.Devirtualize()
	}
	if telemetryOn {
		nn.Instrument(m.Net, r.rec)
		defer nn.Instrument(m.Net, nil)
	}
	mgr, resume, err := r.openCheckpoints()
	if err != nil {
		return nil, err
	}
	startEpoch := 0
	if resume != nil {
		if err := r.restore(resume, train.Len()); err != nil {
			return nil, err
		}
		startEpoch = resume.Epoch
		r.c.Resume(startEpoch)
	}

	// The executor joins the cluster only once the resume state is
	// restored: the handshake verifies every node resumes at the same step.
	if cfg.Dist != nil {
		if err := r.joinDist(); err != nil {
			return nil, err
		}
		defer r.exec.Close()
	}

	diff := stats.NewDiffusion(filteredSnapshot(m.Set, cfg.SnapshotParams))
	diff.Record(r.step, filteredSnapshot(m.Set, cfg.SnapshotParams))
	maybeSnapshot(res, cfg, r.step, m.Set)

epochs:
	for epoch := startEpoch; epoch < cfg.Epochs; epoch++ {
		r.sgd.LR = cfg.Schedule.At(epoch) * r.lrScale
		r.c.BeginEpoch(epoch)
		var lossSum, accSum float64
		examples := 0
		epochStart := time.Now()
		nb := r.batcher.BatchesPerEpoch()
		for b := 0; b < nb; b++ {
			stepStart := time.Now()
			n, loss, acc, ok, err := r.stepWithRollback(epoch, train.Len())
			if err != nil {
				return nil, err
			}
			if !ok {
				res.Diverged = true
				break epochs
			}
			r.step++
			lossSum += loss
			accSum += acc
			examples += n
			if cfg.SnapshotEvery > 0 && r.step%cfg.SnapshotEvery == 0 {
				if cfg.SparseTrain {
					r.db.Densify() // CSR tensors' model copies are stale mid-epoch
				}
				diff.Record(r.step, filteredSnapshot(m.Set, cfg.SnapshotParams))
				maybeSnapshot(res, cfg, r.step, m.Set)
			}
			if telemetryOn {
				r.rec.StepDone(telemetry.StepSample{
					Epoch: epoch + 1, Step: r.step, Loss: loss,
					Examples: n, Latency: time.Since(stepStart),
				})
			}
		}
		epochTrainDur := time.Since(epochStart)
		r.c.EndEpoch(epoch)
		valLoss, valAcc := Evaluate(m, val, cfg.BatchSize)
		if math.IsNaN(valLoss) || math.IsInf(valLoss, 0) {
			res.Diverged = true
			break
		}
		es := EpochStats{
			Epoch: epoch + 1, LR: r.sgd.LR,
			TrainLoss: lossSum / float64(nb), TrainAcc: accSum / float64(nb),
			ValLoss: valLoss, ValAcc: valAcc,
		}
		res.History = append(res.History, es)
		if telemetryOn {
			r.epochTelemetry(es, examples, epochTrainDur)
		}
		if cfg.Progress != nil {
			cfg.Progress(fmt.Sprintf("epoch %3d lr %.4f train loss %.4f acc %.4f | val loss %.4f acc %.4f",
				es.Epoch, es.LR, es.TrainLoss, es.TrainAcc, es.ValLoss, es.ValAcc))
		}
		improved := valAcc > res.BestValAcc
		if improved {
			res.BestValAcc, res.BestEpoch, r.sinceBest = valAcc, epoch+1, 0
			r.bestParams, r.bestBN = m.Set.Snapshot(), nn.CaptureBNState(m.Net)
		} else {
			r.sinceBest++
		}
		if mgr != nil && ((epoch+1-startEpoch)%max(cfg.Checkpoint.Every, 1) == 0 || epoch+1 == cfg.Epochs) {
			if _, err := mgr.Save(m, r.state(epoch+1)); err != nil {
				return nil, fmt.Errorf("saving checkpoint after epoch %d: %w", epoch+1, err)
			}
		}
		if !improved && cfg.Patience > 0 && r.sinceBest >= cfg.Patience {
			break
		}
	}
	return r.finish(diff), nil
}

// run is one TrainE call: its training objects and the loop state that
// outlives a step. The loop state has one capture (state) and one restore
// (restore); a checkpoint save, a resume and a divergence rollback all go
// through them.
type run struct {
	cfg     TrainConfig
	m       *Model
	res     *Result
	c       constraint
	db      *core.DropBack // nil unless Method is DropBack
	exec    *shardExecutor // nil unless Workers ≥ 2 or Dist
	batcher *data.Batcher
	sgd     *optim.SGD
	rec     telemetry.Recorder
	stepFn  func(x *tensor.Tensor, labels []int) (loss, acc float64)

	step, sinceBest, retries int
	lrScale                  float32
	bestParams               []float32
	bestBN                   [][]float32
}

// newRun builds the training objects for cfg over m: the method's
// constraint, the batcher, the optimizer and the step function, which is
// the shard executor's under Workers ≥ 2 or Dist and the model's own
// otherwise. Under SparseTrain it moves every Linear and Conv2D weight to
// CSR storage, which the layers then compute from.
func newRun(m *Model, train *Dataset, cfg TrainConfig) (*run, error) {
	c, err := newConstraint(m, cfg)
	if err != nil {
		return nil, err
	}
	r := &run{
		cfg: cfg, m: m, c: c, res: &Result{Method: cfg.Method, Compression: 1, LRScale: 1},
		batcher: data.NewBatcher(train, cfg.BatchSize, cfg.Seed^0xBA7C4), sgd: optim.NewSGD(0),
		rec: telemetry.OrNop(cfg.Telemetry), stepFn: m.Step, lrScale: 1, bestParams: m.Set.Snapshot(),
	}
	// db is nil for every method but DropBack, whose engine the resume
	// state, the telemetry, SparseTrain and the dist executor read.
	r.db, _ = c.(*core.DropBack)
	if cfg.SparseTrain { // Validate admits it for DropBack only
		if err := virtualizeWeights(m, r.db); err != nil {
			r.db.Devirtualize()
			return nil, err
		}
	}
	// The shard executor (Workers ≥ 2, or Dist) replaces only the
	// forward/backward half of the step; everything after the gradient
	// reduction — GradHook, divergence checks, the optimizer, and the
	// method constraint — runs unchanged on the primary model, once per
	// minibatch, exactly as in the sequential path.
	if cfg.Workers > 1 || cfg.Dist != nil {
		if r.exec, err = newShardExecutor(m, max(cfg.Workers, 1), cfg.Telemetry); err != nil {
			return nil, err
		}
		r.stepFn = r.exec.Step
	}
	return r, nil
}

// virtualizeWeights moves every Linear and Conv2D weight of m to CSR
// storage under db.
func virtualizeWeights(m *Model, db *core.DropBack) error {
	var err error
	nn.Walk(m.Net, func(l nn.Layer) {
		var w *nn.Param
		switch t := l.(type) {
		case *nn.Linear:
			w = t.W
		case *nn.Conv2D:
			w = t.W
		}
		if w != nil && err == nil {
			err = db.Virtualize(w)
		}
	})
	return err
}

// openCheckpoints builds the managed-checkpoint Manager (nil without
// Checkpoint) and returns the state the run resumes from: ResumeFrom, or
// under Checkpoint.Resume the newest valid checkpoint, whose weights it
// loads into the model. It runs before the diffusion probes baseline
// themselves on the (possibly restored) weights.
func (r *run) openCheckpoints() (*checkpoint.Manager, *checkpoint.TrainState, error) {
	spec := r.cfg.Checkpoint
	if spec == nil {
		return nil, r.cfg.ResumeFrom, nil
	}
	mgr := &checkpoint.Manager{Dir: spec.Dir, Prefix: spec.Prefix, Keep: spec.Keep}
	if !spec.Resume {
		return mgr, r.cfg.ResumeFrom, nil
	}
	ts, report, err := mgr.LoadLatestValid(r.m)
	if err != nil {
		return nil, nil, err
	}
	if len(report.Skipped) > 0 && r.rec.Enabled() {
		r.rec.Counter("recovery/skipped_corrupt_checkpoints", float64(len(report.Skipped)))
	}
	return mgr, ts, nil
}

// joinDist connects the shard executor to the cluster. A resume mismatch
// fails before this opens any socket to a healthy peer.
func (r *run) joinDist() error {
	cfg := r.cfg
	return r.exec.join(r.db, *cfg.Dist, dist.Handshake{
		Seed:        cfg.Seed,
		Method:      uint32(cfg.Method),
		Budget:      uint64(cfg.Budget),
		FreezeAfter: int64(cfg.FreezeAfterEpoch),
		Batch:       uint32(cfg.BatchSize),
		StartStep:   uint64(r.step),
	})
}

// state captures the resumable loop state once epochsDone epochs and r.step
// optimizer steps are complete. The weights and batch-norm statistics are
// not in it: a checkpoint stores them beside it, a rollback point next to
// it. Best weights and History alias the run's own, which are replaced
// rather than written in place.
func (r *run) state(epochsDone int) *checkpoint.TrainState {
	ts := &checkpoint.TrainState{
		Epoch: epochsDone, Step: r.step, LRScale: r.lrScale, Retries: r.retries,
		BestEpoch: r.res.BestEpoch, BestValAcc: r.res.BestValAcc, SinceBest: r.sinceBest,
		History: r.res.History, Batcher: r.batcher.State(),
		OptName: "sgd", Opt: r.sgd.CaptureState(r.m.Set), LayerRNG: nn.CaptureLayerRNG(r.m.Net),
	}
	if r.res.BestEpoch > 0 {
		ts.BestParams, ts.BestBN = r.bestParams, r.bestBN
	}
	if r.db != nil {
		st := r.db.State()
		ts.DropBack = &st
	}
	return ts
}

// restore applies a state captured by state, validating it against the
// model and the trainLen-sample training set first. The weights and
// batch-norm statistics must already be in place.
func (r *run) restore(ts *checkpoint.TrainState, trainLen int) error {
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
	if ts.Batcher.Pos > trainLen {
		return fmt.Errorf("resume state batcher cursor %d exceeds the dataset length %d — the dataset shrank since the checkpoint was written", ts.Batcher.Pos, trainLen)
	}
	if ts.BestEpoch > 0 && ts.BestParams != nil {
		if len(ts.BestParams) != r.m.Set.Total() {
			return fmt.Errorf("resume state's best snapshot has %d weights, model has %d", len(ts.BestParams), r.m.Set.Total())
		}
		// RestoreBNState matches entries by position and skips a wrong
		// width, so a malformed snapshot would restore the wrong layers.
		want := nn.CaptureBNState(r.m.Net)
		if len(ts.BestBN) != len(want) {
			return fmt.Errorf("resume state's best snapshot has %d BatchNorm entries, model has %d", len(ts.BestBN), len(want))
		}
		for i := range want {
			if len(ts.BestBN[i]) != len(want[i]) {
				return fmt.Errorf("resume state's best snapshot has %d statistics for BatchNorm %d, model has %d", len(ts.BestBN[i]), i, len(want[i]))
			}
		}
	}
	if ts.OptName != "" && ts.OptName != "sgd" {
		return fmt.Errorf("resume state was captured with optimizer %q, trainer runs plain SGD", ts.OptName)
	}
	if ts.DropBack == nil && r.db != nil && ts.Step > 0 {
		return fmt.Errorf("resume state carries no DropBack state but the method is DropBack")
	}
	if ts.DropBack != nil && r.db == nil {
		return fmt.Errorf("resume state carries DropBack state but the method is %v", r.cfg.Method)
	}
	if len(ts.Batcher.Perm) > 0 {
		if err := r.batcher.Restore(ts.Batcher); err != nil {
			return err
		}
	}
	if err := r.sgd.RestoreState(r.m.Set, ts.Opt); err != nil {
		return err
	}
	if ts.DropBack != nil {
		if err := r.db.RestoreState(*ts.DropBack); err != nil {
			return err
		}
	}
	nn.RestoreLayerRNG(r.m.Net, ts.LayerRNG)
	r.res.BestValAcc, r.res.BestEpoch = ts.BestValAcc, ts.BestEpoch
	r.res.History = append(r.res.History[:0], ts.History...)
	r.step, r.sinceBest, r.retries = ts.Step, ts.SinceBest, ts.Retries
	if ts.LRScale > 0 {
		r.lrScale = ts.LRScale
	}
	if ts.BestEpoch > 0 && ts.BestParams != nil {
		r.bestParams, r.bestBN = ts.BestParams, ts.BestBN
	}
	return nil
}

// stepWithRollback is trainStep under divergence recovery. With
// MaxRecoveryRetries > 0 it first takes a rollback point — the run state,
// the weights and the batch-norm statistics — and each failed attempt
// restores it and retries the same minibatch at half the learning rate,
// until the run's retry budget is spent.
func (r *run) stepWithRollback(epoch, trainLen int) (n int, loss, acc float64, ok bool, err error) {
	if r.cfg.MaxRecoveryRetries == 0 {
		return r.trainStep()
	}
	ts, params, bn := r.state(epoch), r.m.Set.Snapshot(), nn.CaptureBNState(r.m.Net)
	for {
		n, loss, acc, ok, err = r.trainStep()
		if ok || err != nil || r.retries >= r.cfg.MaxRecoveryRetries {
			return n, loss, acc, ok, err
		}
		// The restore rewinds retries and lrScale to the rollback point, so
		// the backoff is computed before it and reapplied after: a second
		// failure of the same step halves the rate again.
		retries, lrScale := r.retries+1, r.lrScale*0.5
		r.m.Set.Restore(params)
		nn.RestoreBNState(r.m.Net, bn)
		if err := r.restore(ts, trainLen); err != nil {
			return 0, 0, 0, false, err
		}
		r.retries, r.lrScale = retries, lrScale
		r.res.Rollbacks++
		r.sgd.LR = r.cfg.Schedule.At(epoch) * r.lrScale
		if r.rec.Enabled() {
			r.rec.Counter("recovery/rollbacks", 1)
			r.rec.Counter("recovery/retries", 1)
			r.rec.Gauge("recovery/lr_scale", float64(r.lrScale))
		}
	}
}

// trainStep trains the next minibatch of n samples: forward and backward,
// GradHook, then the method's update. ok is false when the loss is not
// finite, or, with recovery on, a gradient (the update is then skipped) or
// an updated parameter. A failed dist exchange is an error, returned before
// the optimizer runs so the weights stay where the last step left them.
func (r *run) trainStep() (n int, loss, acc float64, ok bool, err error) {
	x, y := r.batcher.Next()
	loss, acc = r.stepFn(x, y)
	if r.exec != nil {
		if err := r.exec.Err(); err != nil {
			return 0, 0, 0, false, fmt.Errorf("dropback: dist training step %d: %w", r.step, err)
		}
	}
	if r.cfg.GradHook != nil {
		r.cfg.GradHook(r.step, r.m.Set)
	}
	recoveryOn := r.cfg.MaxRecoveryRetries > 0
	if math.IsNaN(loss) || math.IsInf(loss, 0) || recoveryOn && !gradsFinite(r.m.Set) {
		return 0, 0, 0, false, nil
	}
	swaps := r.c.Update(r.sgd)
	if recoveryOn && !paramsFinite(r.m.Set) {
		return 0, 0, 0, false, nil
	}
	if swaps >= 0 && r.rec.Enabled() {
		r.rec.Counter("dropback/swaps", float64(swaps))
	}
	return x.Shape[0], loss, acc, true, nil
}

// epochTelemetry emits one epoch's gauges and summary.
func (r *run) epochTelemetry(es EpochStats, examples int, trainDur time.Duration) {
	if r.db != nil {
		r.rec.Gauge("dropback/tracked_set_size", float64(r.db.TrackedCount()))
		r.rec.Gauge("dropback/regenerations", float64(r.db.Regenerations()))
		r.rec.Gauge("dropback/tracked_writes", float64(r.db.TrackedWrites()))
	}
	if r.cfg.SparseTrain {
		// Its presence marks a run on CSR storage.
		r.rec.Gauge("dropback/weight_state_bytes", float64(r.db.WeightStateBytes()))
	}
	wsHits, wsMisses, wsBytes := tensor.WorkspaceStats()
	r.rec.Gauge(telemetry.GaugeWorkspaceHits, float64(wsHits))
	r.rec.Gauge(telemetry.GaugeWorkspaceMisses, float64(wsMisses))
	r.rec.Gauge(telemetry.GaugeWorkspaceBytesReused, float64(wsBytes))
	r.rec.Gauge(telemetry.GaugeTrainWorkers, float64(max(r.cfg.Workers, 1)))
	if r.exec != nil {
		r.exec.recordEpochTelemetry()
	}
	r.rec.EpochDone(telemetry.EpochSample{
		Epoch: es.Epoch, TrainLoss: es.TrainLoss, TrainAcc: es.TrainAcc,
		ValLoss: es.ValLoss, ValAcc: es.ValAcc,
		Examples: examples, Duration: trainDur,
	})
}

// finish completes the result once the loop ends, moving every weight back
// to dense storage and restoring the best weights so the returned model
// matches BestValAcc.
func (r *run) finish(diff *stats.Diffusion) *Result {
	res := r.res
	if r.cfg.SparseTrain {
		r.db.Devirtualize()
	}
	if res.BestEpoch > 0 {
		r.m.Set.Restore(r.bestParams)
		nn.RestoreBNState(r.m.Net, r.bestBN)
	}
	res.BestValErr = 1 - res.BestValAcc
	if res.Diverged && res.BestValAcc == 0 {
		res.BestValErr = 0.9 // the paper reports diverged runs as "90%"
	}
	res.LRScale = r.lrScale
	res.DiffusionSteps, res.DiffusionDist = diff.Series()
	res.Compression = r.c.CompressionRatio()
	if r.db != nil {
		res.SwapHistory = r.db.SwapHistory()
		res.AccumulatedGradients = r.db.AccumulatedGradients()
		res.Retention = r.db.RetentionByLayer()
		res.Regenerations = r.db.Regenerations()
	}
	return res
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

// maybeSnapshot appends a weight snapshot to the result.
func maybeSnapshot(res *Result, cfg TrainConfig, step int, set *nn.ParamSet) {
	if cfg.SnapshotEvery <= 0 {
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
