package core

import (
	"fmt"

	"dropback/internal/nn"
)

// tracking is the state and telemetry both DropBack trainers share — the
// dense *DropBack and the sparse-native *TrackedTrainer embed it: the
// configuration, the score and mask buffers, the phase flags, and the
// swap/regeneration/tracked-write counters their checkpoints carry.
type tracking struct {
	cfg Config
	set *nn.ParamSet

	scores   []float32
	mask     []bool
	prevMask []bool
	havePrev bool
	frozen   bool

	stepCount     int
	swapHistory   []int
	swapSummary   SwapSummary
	regenerations int64
	trackedWrites int64
}

// newTracking validates the budget, clamps it to the parameter count, and
// allocates the n-length buffers.
func newTracking(set *nn.ParamSet, cfg Config) tracking {
	if cfg.Budget <= 0 {
		panic(fmt.Sprintf("core: budget must be positive, got %d", cfg.Budget))
	}
	if cfg.Budget > set.Total() {
		cfg.Budget = set.Total()
	}
	n := set.Total()
	return tracking{
		cfg:      cfg,
		set:      set,
		scores:   make([]float32, n),
		mask:     make([]bool, n),
		prevMask: make([]bool, n),
	}
}

// Config returns the configuration the trainer was built with.
func (d *tracking) Config() Config { return d.cfg }

// Budget returns k, the tracked-weight budget.
func (d *tracking) Budget() int { return d.cfg.Budget }

// CompressionRatio returns total parameters divided by the budget — the
// "weight compression" column of the paper's tables.
func (d *tracking) CompressionRatio() float64 {
	return float64(d.set.Total()) / float64(d.cfg.Budget)
}

// Frozen reports whether the tracked set is frozen.
func (d *tracking) Frozen() bool { return d.frozen }

// BeginEpoch is a no-op: DropBack has no epoch-start work.
func (d *tracking) BeginEpoch(int) {}

// Resume is a no-op: RestoreState already rewound everything.
func (d *tracking) Resume(int) {}

// liveMask is the latest selection while unfrozen: after Apply it lives in
// prevMask; before any selection, and on the dense frozen path, in mask.
func (d *tracking) liveMask() []bool {
	if d.havePrev && !d.frozen {
		return d.prevMask
	}
	return d.mask
}

// recordSwaps folds one step's swap count into the O(1) summary and, unless
// the series is disabled, appends it to the full per-step history.
func (d *tracking) recordSwaps(swaps int) {
	d.swapSummary.Add(swaps)
	if !d.cfg.DisableSwapHistory {
		d.swapHistory = append(d.swapHistory, swaps)
	}
}

// AccumulatedGradients returns a copy of the most recent |W_t − W_0| score
// vector (Fig 1's distribution). Call after at least one Apply. The final
// pre-freeze scores are retained after a freeze.
func (d *tracking) AccumulatedGradients() []float32 {
	out := make([]float32, len(d.scores))
	copy(out, d.scores)
	return out
}

// SwapHistory returns the number of weights that entered the tracked set at
// each step (Fig 2's series). Empty when Config.DisableSwapHistory is set —
// use Swaps for the bounded summary.
func (d *tracking) SwapHistory() []int {
	out := make([]int, len(d.swapHistory))
	copy(out, d.swapHistory)
	return out
}

// Swaps returns the bounded swap-telemetry summary, available regardless of
// whether the full series is kept.
func (d *tracking) Swaps() SwapSummary { return d.swapSummary }

// Regenerations returns the total number of untracked-weight regenerations
// performed — each one replacing what would otherwise be an off-chip weight
// store+load pair (the energy model consumes this).
func (d *tracking) Regenerations() int64 { return d.regenerations }

// TrackedWrites returns the total number of tracked-weight writes retained.
func (d *tracking) TrackedWrites() int64 { return d.trackedWrites }

// state captures the shared part of State; mask supplies the trainer's
// global tracked-set mask.
func (d *tracking) state(mask func() []bool) State {
	st := State{
		Frozen:        d.frozen,
		HaveSelection: d.havePrev,
		StepCount:     d.stepCount,
		Regenerations: d.regenerations,
		TrackedWrites: d.trackedWrites,
		Swaps:         d.swapSummary,
	}
	if d.havePrev {
		st.Mask = mask()
	}
	return st
}

// restore validates st against the parameter space and rewinds the phase
// flags and telemetry counters; the trainers restore their masks.
func (d *tracking) restore(st State) error {
	if st.HaveSelection && len(st.Mask) != d.set.Total() {
		return fmt.Errorf("core: state mask covers %d weights, parameter space has %d", len(st.Mask), d.set.Total())
	}
	d.frozen = st.Frozen
	d.havePrev = st.HaveSelection
	d.stepCount = st.StepCount
	d.regenerations = st.Regenerations
	d.trackedWrites = st.TrackedWrites
	d.swapSummary = st.Swaps
	// The in-memory series is deterministic, so any prefix of it is exact:
	// a rollback (series longer than the restored step count) truncates to
	// the captured prefix; a resume into a fresh trainer (series shorter)
	// keeps what it has and the series covers post-resume steps only.
	if len(d.swapHistory) > st.Swaps.Steps {
		d.swapHistory = d.swapHistory[:st.Swaps.Steps]
	}
	return nil
}
