package core

import (
	"fmt"
	"math"
	"sort"
	"strings"

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
//
// Each parameter tensor has one of two storages. By default it stays dense
// in the model next to a w0 slab of its initialization values, filled once
// by Init.Fill: the optimizer steps it in place and the constraint scores
// and resets it against the slab. Once the set is frozen and the untracked
// entries are known to sit at W_0, Update steps only the tracked entries
// and skips the reset, which would restore exactly the bits they already
// hold. Virtualize moves a tensor to CSR storage (the Param's nn.CSR),
// which holds only the tracked entries; Update fuses their SGD step into
// the selection pass, so untracked values are never stored. Devirtualize
// moves every CSR tensor back to dense storage.
// Both storages feed one global score vector and one selection, with
// bit-identical arithmetic: CSR values step by optim.TrackedSGD's
// v + (-lr)·g, the dense AXPY expression. Before the freeze every weight is
// a candidate, so scoring is O(n); Freeze drops the global masks, after
// which a CSR tensor costs only its tracked values, indices and gradients —
// the steady state WeightStateBytes reports.
type DropBack struct {
	cfg Config
	set *nn.ParamSet
	sgd optim.TrackedSGD // the rate of the latest Update, for CSR tensors

	// spare is aligned with set.Params(): the second entry arrays of each
	// CSR tensor's per-step rebuild (see commitStep). A tensor is on CSR
	// storage when its Param's CSR is set.
	spare []csrSpare
	// w0 is aligned with set.Params(): a dense tensor's initialization
	// values, the reset point of its untracked entries. Entries are nil on
	// CSR storage, which regenerates them instead, and under the
	// ZeroUntracked ablation, whose reset point is zero.
	w0 [][]float32

	scores []float32
	// mask and prevMask are the global selections while the set is live;
	// after an Apply the latest one is prevMask. Both are nil once frozen:
	// a dense tensor then keeps its own ascending frozenIdx, and a CSR
	// tensor's membership is its index array.
	mask, prevMask []bool
	frozenIdx      [][]int32
	frozenTracked  int
	havePrev       bool
	frozen         bool
	// shares is the PerLayerBudget per-tensor budget scratch and selBuf the
	// top-k scratch, reused across steps so selection stays allocation-free.
	// selBuf is freed at the freeze.
	shares []int
	selBuf []float32

	stepCount   int
	swapHistory []int
	swapSummary SwapSummary
	// regenerations and trackedWrites count the modelled per-step work,
	// n−k and k per step, not Init.Regenerate calls (see Regenerations).
	regenerations int64
	trackedWrites int64
}

// New builds a DropBack constraint over the given parameter set, with every
// tensor on dense storage and its w0 slab filled by Init.Fill, which is
// defined through Regenerate, so the slab is byte-equal to regeneration.
// Budget must be positive and is clamped to the parameter count.
func New(set *nn.ParamSet, cfg Config) *DropBack {
	if cfg.Budget <= 0 {
		panic(fmt.Sprintf("core: budget must be positive, got %d", cfg.Budget))
	}
	n := set.Total()
	cfg.Budget = min(cfg.Budget, n)
	d := &DropBack{
		cfg:       cfg,
		set:       set,
		spare:     make([]csrSpare, len(set.Params())),
		w0:        make([][]float32, len(set.Params())),
		frozenIdx: make([][]int32, len(set.Params())),
		scores:    make([]float32, n),
		mask:      make([]bool, n),
		prevMask:  make([]bool, n),
	}
	if !cfg.ZeroUntracked {
		for i, p := range set.Params() {
			d.w0[i] = make([]float32, p.Len())
			p.Init.Fill(d.w0[i])
		}
	}
	return d
}

// Virtualize moves one parameter tensor to CSR storage, viewed as a matrix
// whose rows are dimension 0 of its shape — (Out, In) for Linear,
// (OutC, InC·KH·KW) for Conv2D — and drops its w0 slab. The current dense
// values seed the tracked set: every element whose bits differ from its
// regenerated init becomes a tracked delta (a fresh model seeds an empty
// CSR). Must be called before the first step. The ablation switches exist
// on dense storage only, so an engine configured with any of them refuses.
func (d *DropBack) Virtualize(p *nn.Param) error {
	if c := d.cfg; c.DryRun || c.ZeroUntracked || c.SelectByMagnitude || c.PerLayerBudget {
		return fmt.Errorf("core: parameter %q: the ablation switches run on dense storage only", p.Name)
	}
	idx := -1
	for i, q := range d.set.Params() {
		if q == p {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("core: parameter %q is not in the engine's set", p.Name)
	}
	if p.CSR != nil {
		return fmt.Errorf("core: parameter %q virtualized twice", p.Name)
	}
	rows := p.Value.Shape[0]
	p.CSR = nn.NewCSR(p.Init, rows, p.Len()/rows, nil, nil)
	loadCSR(p.CSR, p.Value.Data, nil)
	d.w0[idx] = nil
	return nil
}

// Devirtualize moves every CSR tensor back to dense storage: Densify writes
// its values into the model, its w0 slab is refilled and, once frozen, its
// tracked indices become the dense tensor's. The engine then carries on as
// if the tensor had always been dense.
func (d *DropBack) Devirtualize() {
	d.Densify()
	for i, p := range d.set.Params() {
		t := p.CSR
		if t == nil {
			continue
		}
		if d.frozen {
			d.frozenIdx[i] = append(d.frozenIdx[i][:0], t.Idx...)
		}
		d.w0[i] = make([]float32, p.Len())
		p.Init.Fill(d.w0[i])
		d.spare[i] = csrSpare{}
		p.CSR = nil
	}
}

// Update is the per-step entry: it applies opt's step to the dense tensors,
// then runs the constraint pass, which steps the CSR tensors at opt's rate
// as part of selection. Once frozen, a dense tensor is stepped at its
// tracked indices only, with optim.TrackedSGD's per-element expression, and
// the pass skips its reset: freezeTransition already reset the untracked
// entries, and stepping then resetting them would write the same bits. The
// DryRun ablation constrains nothing, so it keeps the full dense step. It
// returns the number of weights that entered the tracked set this step.
func (d *DropBack) Update(opt *optim.SGD) int {
	d.sgd.LR = opt.LR
	tracked := d.frozen && !d.cfg.DryRun
	for i, p := range d.set.Params() {
		switch {
		case p.CSR != nil:
		case tracked:
			w, g := p.Value.Data, p.Grad.Data
			for _, e := range d.frozenIdx[i] {
				w[e] = d.sgd.Update(w[e], g[e])
			}
		default:
			opt.StepParam(p)
		}
	}
	return d.pass(!tracked)
}

// Apply is Update's constraint pass without the optimizer step, for callers
// that stepped the weights themselves (the ablation studies, Fig 2's dry-run
// observer). CSR tensors are stepped only inside Update, so Apply panics
// once any tensor is virtualized.
func (d *DropBack) Apply() int {
	for _, p := range d.set.Params() {
		if p.CSR != nil {
			panic("core: Apply cannot step CSR storage; use Update")
		}
	}
	return d.pass(true)
}

// pass enforces the constraint on weights whose dense tensors are already
// stepped: it recomputes accumulated gradients, selects the top-k set
// (unless frozen), writes the CSR tensors' stepped tracked values, and,
// with reset set, resets every untracked dense weight to its
// initialization value. It returns the number of weights that entered the
// tracked set.
func (d *DropBack) pass(reset bool) int {
	d.stepCount++
	if d.frozen {
		// Selection is fixed: CSR tensors step their tracked values from
		// the tracked gradients, and dense tensors reset what a full dense
		// step touched outside the set.
		for i, p := range d.set.Params() {
			k := len(d.frozenIdx[i])
			switch t := p.CSR; {
			case t != nil:
				d.sgd.StepTracked(t.Val, t.TGrad)
				k = len(t.Idx)
			case d.cfg.DryRun:
				continue
			case reset:
				d.resetFrozen(i)
			}
			d.trackedWrites += int64(k)
			d.regenerations += int64(p.Len() - k)
		}
		d.recordSwaps(0)
		return 0
	}
	d.score(true)
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
	for i, p := range d.set.Params() {
		keep := d.mask[d.set.Offset(i):][:p.Len()]
		if t := p.CSR; t != nil {
			commitStep(t, &d.spare[i], keep, p.Grad.Data, d.sgd)
			d.trackedWrites += int64(len(t.Idx))
			d.regenerations += int64(p.Len() - len(t.Idx))
		} else if !d.cfg.DryRun {
			d.reset(i, keep)
		}
	}
	// After the swap, prevMask holds the current selection.
	d.mask, d.prevMask = d.prevMask, d.mask
	d.havePrev = true
	return swaps
}

// score fills d.scores with |W_t − W_0| for every global index. Under the
// SelectByMagnitude ablation the score is |W_t| instead; the ZeroUntracked
// ablation also scores against zero, because zero is the reset point
// untracked weights accumulate from there. With step set, a CSR tensor
// scores the value its pending SGD step produces; otherwise it scores its
// current values. A dense tensor scores the model's values against its w0
// slab.
func (d *DropBack) score(step bool) {
	byValue := d.cfg.SelectByMagnitude || d.cfg.ZeroUntracked
	for i, p := range d.set.Params() {
		s := d.scores[d.set.Offset(i):][:p.Len()]
		if t := p.CSR; t != nil {
			if step {
				scoreStep(t, s, p.Grad.Data, d.sgd)
			} else {
				scoreValues(t, s)
			}
			continue
		}
		if byValue {
			for e, v := range p.Value.Data {
				if v < 0 {
					v = -v
				}
				s[e] = v
			}
			continue
		}
		w0 := d.w0[i]
		for e, v := range p.Value.Data {
			v -= w0[e]
			if v < 0 {
				v = -v
			}
			s[e] = v
		}
	}
}

// selectMask writes the current top-k selection into d.mask: one global
// competition by default, or per-tensor competitions under the
// PerLayerBudget ablation.
func (d *DropBack) selectMask() {
	if !d.cfg.PerLayerBudget {
		d.selBuf = selectTopK(d.mask, d.scores, d.cfg.Budget, d.selBuf)
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
		share = max(min(share, p.Len()), 0)
		remaining -= share
		shares[i] = share
	}
	// If the final tensor could not absorb the full drift (its share was
	// clamped to its length), spill the surplus into earlier tensors with
	// headroom. Budget <= Total guarantees the headroom sum covers it, so
	// the overall allocation is exact rather than silently short.
	for i, p := range params {
		give := min(p.Len()-shares[i], remaining)
		if give > 0 {
			shares[i] += give
			remaining -= give
		}
	}
	for i, p := range params {
		base := d.set.Offset(i)
		d.selBuf = selectTopK(d.mask[base:base+p.Len()], d.scores[base:base+p.Len()], shares[i], d.selBuf)
	}
}

// reset sets every entry of dense tensor i outside keep to its
// initialization value from the w0 slab (zero under the ZeroUntracked
// ablation, which has no slab).
func (d *DropBack) reset(i int, keep []bool) {
	w, w0 := d.set.Params()[i].Value.Data, d.w0[i]
	kept := 0
	for e, m := range keep {
		switch {
		case m:
			kept++
		case w0 != nil:
			w[e] = w0[e]
		default:
			w[e] = 0
		}
	}
	d.trackedWrites += int64(kept)
	d.regenerations += int64(len(w) - kept)
}

// resetFrozen is reset over the frozen selection: it restores each gap
// between dense tensor i's ascending tracked indices in one run.
func (d *DropBack) resetFrozen(i int) {
	w, w0 := d.set.Params()[i].Value.Data, d.w0[i]
	from := 0
	gap := func(to int) {
		if w0 != nil {
			copy(w[from:to], w0[from:to])
		} else {
			clear(w[from:to])
		}
	}
	for _, e := range d.frozenIdx[i] {
		gap(int(e))
		from = int(e) + 1
	}
	gap(len(w))
}

// recordSwaps folds one step's swap count into the O(1) summary and, unless
// the series is disabled, appends it to the full per-step history.
func (d *DropBack) recordSwaps(swaps int) {
	d.swapSummary.Add(swaps)
	if !d.cfg.DisableSwapHistory {
		d.swapHistory = append(d.swapHistory, swaps)
	}
}

// Freeze fixes the tracked set from this point on, switching to the steady
// state: CSR tensors gain tracked gradients in place of dense ones, the
// global masks are freed, and selection never runs again. If called before
// the first step, it selects once rather than freeze the empty set.
func (d *DropBack) Freeze() {
	if d.frozen {
		return
	}
	d.Densify() // freezeTransition rebuilds CSR tensors from the model's values
	sel := d.prevMask
	if !d.havePrev {
		d.score(false)
		d.selectMask()
		sel = d.mask
		d.havePrev = true
	}
	d.freezeTransition(sel)
}

// freezeTransition converts the masked representation into the frozen one
// from the model's dense values: CSR tensors are rebuilt at the selected
// entries, dense tensors keep the ascending indices of theirs and reset
// every untracked entry from the w0 slab. After Freeze before any
// selection, or RestoreState, nothing else proves those entries sit at W_0;
// resetting here leaves both storages reading W_0 in every gap, so every
// frozen Update may step the tracked entries alone. DryRun constrains
// nothing and resets nothing.
func (d *DropBack) freezeTransition(sel []bool) {
	d.frozenTracked = 0
	for i, p := range d.set.Params() {
		keep := sel[d.set.Offset(i):][:p.Len()]
		if t := p.CSR; t != nil {
			loadCSR(t, p.Value.Data, keep)
			t.TGrad = make([]float32, len(t.Idx))
			d.spare[i] = csrSpare{}
			d.frozenTracked += len(t.Idx)
			continue
		}
		idx := d.frozenIdx[i][:0]
		for e, m := range keep {
			if m {
				idx = append(idx, int32(e))
			}
		}
		d.frozenIdx[i] = idx
		d.frozenTracked += len(idx)
		if !d.cfg.DryRun {
			d.resetFrozen(i)
		}
	}
	d.frozen = true
	d.mask, d.prevMask, d.selBuf = nil, nil, nil
}

// MaybeFreezeAtEpochEnd freezes the tracked set if the configured freeze
// epoch has just completed. The trainer calls it after every epoch.
func (d *DropBack) MaybeFreezeAtEpochEnd(epoch int) {
	if !d.frozen && d.cfg.FreezeAfterEpoch >= 0 && epoch >= d.cfg.FreezeAfterEpoch {
		d.Freeze()
	}
}

// EndEpoch runs MaybeFreezeAtEpochEnd, then Densify, so evaluation,
// best-snapshot capture and checkpoints see every tensor's current values.
func (d *DropBack) EndEpoch(epoch int) {
	d.MaybeFreezeAtEpochEnd(epoch)
	d.Densify()
}

// BeginEpoch is a no-op: DropBack has no epoch-start work.
func (d *DropBack) BeginEpoch(int) {}

// Resume is a no-op: RestoreState already rewound everything.
func (d *DropBack) Resume(int) {}

// Densify writes every CSR tensor's values (tracked values over
// regenerated gaps) into the model's dense parameter tensor, which is
// otherwise stale between epoch boundaries.
func (d *DropBack) Densify() {
	for _, p := range d.set.Params() {
		if p.CSR != nil {
			p.CSR.Fill(p.Value.Data)
		}
	}
}

// Budget returns k, the tracked-weight budget.
func (d *DropBack) Budget() int { return d.cfg.Budget }

// CompressionRatio returns total parameters divided by the budget — the
// "weight compression" column of the paper's tables.
func (d *DropBack) CompressionRatio() float64 {
	return float64(d.set.Total()) / float64(d.cfg.Budget)
}

// Frozen reports whether the tracked set is frozen.
func (d *DropBack) Frozen() bool { return d.frozen }

// AccumulatedGradients returns a copy of the most recent |W_t − W_0| score
// vector (Fig 1's distribution). Call after at least one step. The final
// pre-freeze scores are retained after a freeze.
func (d *DropBack) AccumulatedGradients() []float32 {
	return append([]float32(nil), d.scores...)
}

// SwapHistory returns the number of weights that entered the tracked set at
// each step (Fig 2's series). Empty when Config.DisableSwapHistory is set —
// use Swaps for the bounded summary.
func (d *DropBack) SwapHistory() []int {
	return append(make([]int, 0, len(d.swapHistory)), d.swapHistory...)
}

// Swaps returns the bounded swap-telemetry summary, available regardless of
// whether the full series is kept.
func (d *DropBack) Swaps() SwapSummary { return d.swapSummary }

// Regenerations returns the modelled number of untracked-weight
// regenerations: n−k per constrained step, each one replacing what would
// otherwise be an off-chip weight store+load pair (internal/energy prices
// it). It counts the work the paper's hardware does, not Init.Regenerate
// calls: dense storage reads its w0 slab, and once frozen it touches no
// untracked weight at all. DryRun steps of dense tensors count nothing.
func (d *DropBack) Regenerations() int64 { return d.regenerations }

// TrackedWrites returns the modelled number of tracked-weight writes, k per
// constrained step, counted like Regenerations.
func (d *DropBack) TrackedWrites() int64 { return d.trackedWrites }

// TrackedCount returns the number of currently tracked weights. It counts
// in place — the trainer polls this per step for the tracked gauge, so it
// must not copy the n-element mask.
func (d *DropBack) TrackedCount() int {
	if d.frozen {
		return d.frozenTracked
	}
	n := 0
	for _, m := range d.liveMask() {
		if m {
			n++
		}
	}
	return n
}

// liveMask is the latest selection while unfrozen: after a step it lives
// in prevMask, before any selection in mask.
func (d *DropBack) liveMask() []bool {
	if d.havePrev {
		return d.prevMask
	}
	return d.mask
}

// AppendTrackedIndices appends the ascending global indices of the current
// tracked set to dst and returns the extended slice. Every node of a
// multi-node run derives the identical list from its own (bit-identical)
// constraint state, which is what lets the frozen-phase wire frames carry k
// values with no index side-band. Once frozen it walks the CSR index arrays
// and dense-tensor index lists — O(k) work with no n-length scan.
func (d *DropBack) AppendTrackedIndices(dst []int32) []int32 {
	if !d.frozen {
		for i, m := range d.liveMask() {
			if m {
				dst = append(dst, int32(i))
			}
		}
		return dst
	}
	for i, p := range d.set.Params() {
		base := int32(d.set.Offset(i))
		if t := p.CSR; t != nil {
			for _, e := range t.Idx {
				dst = append(dst, base+e)
			}
			continue
		}
		for _, e := range d.frozenIdx[i] {
			dst = append(dst, base+e)
		}
	}
	return dst
}

// Mask returns the current tracked-set mask over global indices.
func (d *DropBack) Mask() []bool {
	out := make([]bool, d.set.Total())
	for _, g := range d.AppendTrackedIndices(nil) {
		out[g] = true
	}
	return out
}

// WeightStateBytes reports the engine's weight-state size: CSR arrays plus
// tracked gradients for CSR tensors; dense values, gradients, the w0 slab
// and the frozen index list for dense tensors. After Freeze this scales with the budget k (plus the
// dense tensors), not with n — the measured claim BENCH_train.json gates.
// The retained telemetry score vector, the live top-k scratch and the
// model's host-side copies of CSR tensors (used only at epoch boundaries)
// are deliberately excluded;
// DESIGN.md §11 spells out the accounting.
func (d *DropBack) WeightStateBytes() int64 {
	var b int64
	for i, p := range d.set.Params() {
		if t := p.CSR; t != nil {
			b += int64(len(t.Val)+len(t.TGrad)+len(t.Idx)+len(t.RowPtr)) * 4
			b += int64(cap(d.spare[i].idx)+cap(d.spare[i].val)) * 4
			if !d.frozen {
				b += int64(p.Len()) * 4 // every weight is a candidate: dense gradient
			}
			continue
		}
		b += int64(p.Len())*8 + int64(len(d.w0[i])+len(d.frozenIdx[i]))*4 // value + gradient, w0, frozen indices
	}
	if !d.frozen {
		b += 2 * int64(d.set.Total()) // mask + prevMask
	}
	return b
}

// DenseWeightStateBytes is the all-dense equivalent: every weight stores a
// value and a gradient.
func (d *DropBack) DenseWeightStateBytes() int64 {
	return int64(d.set.Total()) * 8
}

// State captures the constraint's resumable state. It is the same for both
// storages, so checkpoints cross-resume between dense and CSR runs.
func (d *DropBack) State() State {
	st := State{
		Frozen:        d.frozen,
		HaveSelection: d.havePrev,
		StepCount:     d.stepCount,
		Regenerations: d.regenerations,
		TrackedWrites: d.trackedWrites,
		Swaps:         d.swapSummary,
	}
	if d.havePrev {
		st.Mask = d.Mask()
	}
	return st
}

// RestoreState rewinds the constraint to a previously captured state. The
// mask length must match the parameter space (or be empty when no selection
// had happened yet). The model's dense values must already hold the
// checkpointed weights (the trainer restores them first): CSR tensors are
// rebuilt from them, after checking that every untracked entry equals its
// regenerated init — the invariant both storages maintain. On error the
// engine is untouched.
func (d *DropBack) RestoreState(st State) error {
	if st.HaveSelection && len(st.Mask) != d.set.Total() {
		return fmt.Errorf("core: state mask covers %d weights, parameter space has %d", len(st.Mask), d.set.Total())
	}
	for i, p := range d.set.Params() {
		if p.CSR == nil || !st.HaveSelection {
			continue
		}
		base := d.set.Offset(i)
		for e, v := range p.Value.Data {
			if !st.Mask[base+e] && math.Float32bits(v) != math.Float32bits(p.Init.Regenerate(e)) {
				return fmt.Errorf("core: untracked weight %s[%d] deviates from its regenerated init", p.Name, e)
			}
		}
	}
	d.frozen = st.Frozen
	d.havePrev = st.HaveSelection
	d.stepCount = st.StepCount
	d.regenerations = st.Regenerations
	d.trackedWrites = st.TrackedWrites
	d.swapSummary = st.Swaps
	// The in-memory series is deterministic, so any prefix of it is exact:
	// a rollback (series longer than the restored step count) truncates to
	// the captured prefix; a resume into a fresh engine (series shorter)
	// keeps what it has and the series covers post-resume steps only.
	if len(d.swapHistory) > st.Swaps.Steps {
		d.swapHistory = d.swapHistory[:st.Swaps.Steps]
	}
	if d.mask == nil {
		d.mask = make([]bool, d.set.Total())
		d.prevMask = make([]bool, d.set.Total())
	}
	clear(d.mask)
	copy(d.mask, st.Mask)
	copy(d.prevMask, d.mask)
	if st.Frozen {
		d.freezeTransition(d.mask)
		return nil
	}
	clear(d.frozenIdx)
	d.frozenTracked = 0
	for i, p := range d.set.Params() {
		if t := p.CSR; t != nil {
			var keep []bool // no selection yet: seed from the deviating entries
			if st.HaveSelection {
				keep = d.mask[d.set.Offset(i):][:p.Len()]
			}
			loadCSR(t, p.Value.Data, keep)
		}
	}
	return nil
}

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

// State is DropBack's resumable constraint state: everything the constraint
// pass depends on beyond the weights themselves (which the caller
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
	params := d.set.Params()
	out := make([]LayerRetention, len(params))
	for i, p := range params {
		out[i] = LayerRetention{Name: p.Name, Total: p.Len()}
	}
	i := 0
	for _, g := range d.AppendTrackedIndices(nil) {
		for int(g) >= d.set.Offset(i)+params[i].Len() {
			i++
		}
		out[i].Retained++
	}
	return out
}

// RetentionByLayer aggregates RetentionByParam by layer name (the parameter
// name up to the final '/'), sorted by name for stable output.
func (d *DropBack) RetentionByLayer() []LayerRetention {
	byLayer := map[string]*LayerRetention{}
	var order []string
	for _, r := range d.RetentionByParam() {
		layer := r.Name
		if i := strings.LastIndexByte(layer, '/'); i >= 0 {
			layer = layer[:i]
		}
		agg, ok := byLayer[layer]
		if !ok {
			agg = &LayerRetention{Name: layer}
			byLayer[layer] = agg
			order = append(order, layer)
		}
		agg.Total += r.Total
		agg.Retained += r.Retained
	}
	sort.Strings(order)
	out := make([]LayerRetention, 0, len(order))
	for _, n := range order {
		out = append(out, *byLayer[n])
	}
	return out
}
