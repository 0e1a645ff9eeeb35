package core

import (
	"dropback/internal/nn"
	"dropback/internal/optim"
)

// Config parameterizes a DropBack run.
type Config struct {
	// Budget is k, the number of weights whose updates are tracked. All
	// other weights are regenerated to their initialization values after
	// every step.
	Budget int
	// FreezeAfterEpoch, if >= 0, freezes the tracked set at the end of
	// that (zero-based) epoch: afterwards no new weights may enter the set
	// (the paper's "freeze the tracked parameter set after a small number
	// of epochs"). Negative means never freeze.
	FreezeAfterEpoch int
	// Strategy selects the top-k engine (quickselect or bounded min-heap).
	Strategy TopKStrategy
	// DryRun observes which weights would be tracked without constraining
	// the network — used to reproduce Fig 2's baseline-SGD telemetry.
	DryRun bool
	// ZeroUntracked resets untracked weights to zero instead of their
	// regenerated initialization values — the ablation of §2.1, where the
	// paper reports zeroing cuts achievable compression from 60× to 2×
	// ("preserving the scaffolding provided by the initialization values
	// is critical").
	ZeroUntracked bool
	// SelectByMagnitude scores weights by |W_t| rather than accumulated
	// gradient |W_t − W_0| — the "naïve approach" §2.1 argues against.
	SelectByMagnitude bool
	// PerLayerBudget allocates the budget proportionally to each parameter
	// tensor's size and selects top-k within each tensor, instead of the
	// paper's single global competition. Table 2 shows the global scheme
	// deliberately skews retention toward later layers; this ablation
	// quantifies what that freedom is worth.
	PerLayerBudget bool
	// DisableSwapHistory drops the per-step swap series (Fig 2's telemetry),
	// keeping only the O(1) SwapSummary. Long-running jobs that never read
	// SwapHistory() set this to keep constraint memory independent of step
	// count.
	DisableSwapHistory bool
}

// DropBack applies the paper's continuous-pruning constraint to a model's
// flat parameter space after every SGD update.
//
// The accumulated gradient of weight i is |W_t[i] − W_0[i]|: because
// untracked weights are regenerated to W_0 after every step, this single
// expression covers both cases of Algorithm 1 — for tracked weights it is
// the magnitude of the sum of all applied updates, and for a previously
// untracked weight it is exactly |α·∂f/∂w| from the current step, its bid
// to enter the tracked set.
type DropBack struct {
	tracking

	// shares is the per-tensor budget scratch for the PerLayerBudget path,
	// reused across steps so selection stays allocation-free.
	shares []int
}

// New builds a DropBack constraint over the given parameter set. Budget
// must be positive and is clamped to the parameter count.
func New(set *nn.ParamSet, cfg Config) *DropBack {
	return &DropBack{tracking: newTracking(set, cfg)}
}

// Apply enforces the DropBack constraint after an SGD update: it recomputes
// accumulated gradients, selects the top-k set (unless frozen), and
// regenerates every untracked weight to its initialization value. It
// returns the number of weights that entered the tracked set this step.
func (d *DropBack) Apply() int {
	d.stepCount++
	if d.frozen {
		// Selection is fixed; only the regeneration of untracked weights
		// remains (their gradients no longer need to be computed at all —
		// the compute/energy saving the paper freezes for).
		if !d.cfg.DryRun {
			d.regenerateUntracked()
		}
		d.recordSwaps(0)
		return 0
	}
	d.computeScores()
	d.selectMask()
	swaps := 0
	if d.havePrev {
		for i, m := range d.mask {
			if m && !d.prevMask[i] {
				swaps++
			}
		}
	}
	d.recordSwaps(swaps)
	if !d.cfg.DryRun {
		d.regenerateUntracked()
	}
	d.mask, d.prevMask = d.prevMask, d.mask
	d.havePrev = true
	// After the swap, prevMask holds the current selection.
	return swaps
}

// computeScores fills d.scores with |W_t − W_0| for every global index.
// Under the SelectByMagnitude ablation the score is |W_t| instead; the
// ZeroUntracked ablation also scores against zero, because zero is the
// reset point untracked weights accumulate from there.
func (d *DropBack) computeScores() {
	if d.cfg.SelectByMagnitude || d.cfg.ZeroUntracked {
		for i, p := range d.set.Params() {
			base := d.set.Offset(i)
			for e, v := range p.Value.Data {
				if v < 0 {
					v = -v
				}
				d.scores[base+e] = v
			}
		}
		return
	}
	d.set.VisitDiffFromInit(func(g int, diff float32) {
		d.scores[g] = diff
	})
}

// selectMask writes the current top-k selection into d.mask: one global
// competition by default, or per-tensor competitions under the
// PerLayerBudget ablation.
func (d *DropBack) selectMask() {
	if !d.cfg.PerLayerBudget {
		SelectTopKInto(d.mask, d.scores, d.cfg.Budget, d.cfg.Strategy)
		return
	}
	total := d.set.Total()
	remaining := d.cfg.Budget
	params := d.set.Params()
	if cap(d.shares) < len(params) {
		d.shares = make([]int, len(params))
	}
	shares := d.shares[:len(params)]
	for i, p := range params {
		// Proportional share, rounded down; the final tensor absorbs the
		// rounding drift so the overall budget is exact.
		share := d.cfg.Budget * p.Len() / total
		if i == len(params)-1 {
			share = remaining
		}
		if share > p.Len() {
			share = p.Len()
		}
		if share < 0 {
			share = 0
		}
		remaining -= share
		shares[i] = share
	}
	// If the final tensor could not absorb the full drift (its share was
	// clamped to its length), spill the surplus into earlier tensors with
	// headroom. Budget <= Total guarantees the headroom sum covers it, so
	// the overall allocation is exact rather than silently short.
	for i, p := range params {
		if remaining <= 0 {
			break
		}
		if head := p.Len() - shares[i]; head > 0 {
			give := head
			if give > remaining {
				give = remaining
			}
			shares[i] += give
			remaining -= give
		}
	}
	for i, p := range params {
		base := d.set.Offset(i)
		SelectTopKInto(d.mask[base:base+p.Len()], d.scores[base:base+p.Len()], shares[i], d.cfg.Strategy)
	}
}

// regenerateUntracked resets every weight outside d.mask to its regenerated
// initialization value (or zero under the ZeroUntracked ablation).
func (d *DropBack) regenerateUntracked() {
	for i, p := range d.set.Params() {
		base := d.set.Offset(i)
		for e := range p.Value.Data {
			if d.mask[base+e] {
				d.trackedWrites++
				continue
			}
			if d.cfg.ZeroUntracked {
				p.Value.Data[e] = 0
			} else {
				p.Value.Data[e] = p.Init.Regenerate(e)
			}
			d.regenerations++
		}
	}
}

// Freeze fixes the tracked set from this point on. If called before the
// first Apply, the initial selection happens on the next Apply and then
// freezes (mask would otherwise be empty).
func (d *DropBack) Freeze() {
	if !d.havePrev {
		// No selection yet: run one selection so the frozen set is the
		// current top-k rather than the empty set. The frozen path reads
		// d.mask directly, so select straight into it.
		d.computeScores()
		d.selectMask()
		copy(d.prevMask, d.mask)
		d.havePrev = true
	} else {
		// prevMask holds the latest selection; copy it into the active mask.
		copy(d.mask, d.prevMask)
	}
	d.frozen = true
}

// MaybeFreezeAtEpochEnd freezes the tracked set if the configured freeze
// epoch has just completed. The trainer calls it after every epoch.
func (d *DropBack) MaybeFreezeAtEpochEnd(epoch int) {
	if !d.frozen && d.cfg.FreezeAfterEpoch >= 0 && epoch >= d.cfg.FreezeAfterEpoch {
		d.Freeze()
	}
}

// Update applies opt's step to the parameter set, then the constraint, and
// returns Apply's swap count.
func (d *DropBack) Update(opt *optim.SGD) int {
	opt.Step(d.set)
	return d.Apply()
}

// EndEpoch runs MaybeFreezeAtEpochEnd.
func (d *DropBack) EndEpoch(epoch int) { d.MaybeFreezeAtEpochEnd(epoch) }

// SwapSummary is the bounded form of the swap-history telemetry: the
// per-step series collapsed to four scalars. It is what checkpoints store —
// a long run's checkpoint no longer grows by one int per training step —
// and what recovery snapshots copy instead of the full series.
type SwapSummary struct {
	// Steps is the number of recorded steps (the series length).
	Steps int
	// Total is the sum of swaps over all recorded steps.
	Total int64
	// Max is the largest single-step swap count.
	Max int
	// Last is the most recent step's swap count.
	Last int
}

// Add folds one step's swap count into the summary.
func (s *SwapSummary) Add(swaps int) {
	s.Steps++
	s.Total += int64(swaps)
	if swaps > s.Max {
		s.Max = swaps
	}
	s.Last = swaps
}

// SummarizeSwaps collapses a full per-step swap series into its summary —
// the conversion applied when reading format-1 checkpoints that stored the
// whole series.
func SummarizeSwaps(series []int) SwapSummary {
	var s SwapSummary
	for _, v := range series {
		s.Add(v)
	}
	return s
}

// State is DropBack's resumable constraint state: everything Apply's
// behavior depends on beyond the weights themselves (which the caller
// checkpoints separately), plus the telemetry counters so a resumed run
// reports the same totals an uninterrupted run would.
type State struct {
	// Frozen and HaveSelection mirror the constraint's phase: whether the
	// tracked set is locked, and whether any selection has happened yet.
	Frozen        bool
	HaveSelection bool
	// Mask is the latest tracked-set selection (empty if none yet).
	Mask []bool
	// StepCount, Regenerations, TrackedWrites and Swaps restore the
	// telemetry counters. Swaps is the bounded summary of the swap series;
	// the full series stays in memory only (and only when enabled).
	StepCount     int
	Regenerations int64
	TrackedWrites int64
	Swaps         SwapSummary
}

// State captures the constraint's resumable state.
func (d *DropBack) State() State { return d.state(d.Mask) }

// RestoreState rewinds the constraint to a previously captured state. The
// mask length must match the parameter space (or be empty when no selection
// had happened yet).
func (d *DropBack) RestoreState(st State) error {
	if err := d.restore(st); err != nil {
		return err
	}
	if st.HaveSelection {
		// After Apply the latest selection lives in prevMask; the frozen
		// path reads mask directly. Restore both so either path resumes
		// exactly where the captured run stood.
		copy(d.prevMask, st.Mask)
		copy(d.mask, st.Mask)
	} else {
		clear(d.mask)
		clear(d.prevMask)
	}
	return nil
}

// Mask returns a copy of the current tracked-set mask over global indices.
func (d *DropBack) Mask() []bool {
	return append([]bool(nil), d.liveMask()...)
}

// TrackedCount returns the number of currently tracked weights. It counts
// the live mask in place — the trainer polls this per step for the tracked
// gauge, so it must not copy the n-element mask.
func (d *DropBack) TrackedCount() int {
	n := 0
	for _, m := range d.liveMask() {
		if m {
			n++
		}
	}
	return n
}

// AppendTrackedIndices appends the ascending global indices of the current
// tracked set to dst and returns the extended slice. Every node of a
// multi-node run derives the identical list from its own (bit-identical)
// constraint state, which is what lets the frozen-phase wire frames carry
// k values with no index side-band.
func (d *DropBack) AppendTrackedIndices(dst []int32) []int32 {
	for i, m := range d.liveMask() {
		if m {
			dst = append(dst, int32(i))
		}
	}
	return dst
}

// LayerRetention describes how many of a parameter tensor's weights are in
// the tracked set — Table 2's per-layer breakdown.
type LayerRetention struct {
	Name     string
	Total    int
	Retained int
}

// Compression returns the per-layer compression ratio Total/Retained
// (infinite retention maps to 0 retained; reported as +Inf by the caller).
func (r LayerRetention) Compression() float64 {
	if r.Retained == 0 {
		return 0
	}
	return float64(r.Total) / float64(r.Retained)
}

// RetentionByParam returns the tracked count for every parameter tensor, in
// registration order.
func (d *DropBack) RetentionByParam() []LayerRetention {
	mask := d.Mask()
	out := make([]LayerRetention, 0, len(d.set.Params()))
	for i, p := range d.set.Params() {
		base := d.set.Offset(i)
		r := LayerRetention{Name: p.Name, Total: p.Len()}
		for e := 0; e < p.Len(); e++ {
			if mask[base+e] {
				r.Retained++
			}
		}
		out = append(out, r)
	}
	return out
}

// RetentionByLayer aggregates RetentionByParam by layer name (the parameter
// name up to the final '/'), sorted by name for stable output.
func (d *DropBack) RetentionByLayer() []LayerRetention {
	return aggregateRetention(d.RetentionByParam())
}

func lastSlash(s string) int {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == '/' {
			return i
		}
	}
	return -1
}
