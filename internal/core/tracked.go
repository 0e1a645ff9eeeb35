package core

import (
	"fmt"
	"math"
	"sort"

	"dropback/internal/nn"
	"dropback/internal/optim"
	"dropback/internal/xorshift"
)

// TrackedTensor is the CSR view of one weight tensor: only the tracked
// entries are stored (flat index + value over the tensor's own index space),
// everything else is regenerated from the init stream on demand. Rows/RowLen
// give the matrix shape the sparse kernels walk (Linear: Out×In, Conv2D:
// OutC×(InC·KH·KW)). It is the one weight encoding of both sparse training
// (TrackedTrainer mutates it) and sparse inference (a compiled plan reads it
// immutably), and it holds no reference to the dense parameter.
type TrackedTensor struct {
	Init   xorshift.Init
	Rows   int
	RowLen int
	// RowPtr/Idx/Val are the CSR arrays: Idx holds ascending flat indices
	// into the tensor, Val the tracked values, RowPtr the per-row spans.
	RowPtr []int32
	Idx    []int32
	Val    []float32
	// TGrad receives the tracked-set gradients once the selection is
	// frozen (aligned with Idx); nil before that — pre-freeze every weight
	// is a candidate, so gradients stay dense in P.Grad.
	TGrad []float32

	// Double buffers for the per-step reselection rebuild; freed at freeze.
	idx2 []int32
	val2 []float32
}

// NewTrackedTensor builds the CSR view of a rows×rowLen tensor whose tracked
// entries are idx (ascending flat indices into the tensor) and val. The
// slices are retained, not copied; the row pointers are derived from idx.
func NewTrackedTensor(init xorshift.Init, rows, rowLen int, idx []int32, val []float32) *TrackedTensor {
	t := &TrackedTensor{Init: init, Rows: rows, RowLen: rowLen, RowPtr: make([]int32, rows+1), Idx: idx, Val: val}
	t.rebuildRowPtr()
	return t
}

// FillRow materializes one row of the virtual dense tensor into dst
// (len(dst) == RowLen): tracked values verbatim, gaps regenerated from the
// init stream — byte-for-byte the row a dense tensor holding the same
// tracked values over its regenerated init would contain.
func (t *TrackedTensor) FillRow(dst []float32, r int) {
	init := t.Init
	base := r * t.RowLen
	dst = dst[:t.RowLen]
	p := 0
	for k := t.RowPtr[r]; k < t.RowPtr[r+1]; k++ {
		c := int(t.Idx[k]) - base
		for ; p < c; p++ {
			dst[p] = init.Regenerate(base + p)
		}
		dst[c] = t.Val[k]
		p = c + 1
	}
	for ; p < len(dst); p++ {
		dst[p] = init.Regenerate(base + p)
	}
}

func (t *TrackedTensor) rebuildRowPtr() {
	k := 0
	for r := 0; r < t.Rows; r++ {
		t.RowPtr[r] = int32(k)
		limit := (r + 1) * t.RowLen
		for k < len(t.Idx) && int(t.Idx[k]) < limit {
			k++
		}
	}
	t.RowPtr[t.Rows] = int32(len(t.Idx))
}

// TrackedTrainer is the sparse-native counterpart of DropBack + dense SGD:
// one Apply call performs the SGD update, the top-k reselection, and the
// untracked regeneration, but stores and updates only the tracked set for
// virtualized (large) tensors. Small tensors (biases, BN parameters) stay
// dense in the model and are updated in place.
//
// The arithmetic is arranged to be bit-identical to the dense pipeline
// (sgd.Step then DropBack.Apply): the update is optim.TrackedSGD's
// v + (-lr)·g (the dense AXPY expression), scores are u − Regenerate(e)
// exactly as VisitDiffFromInit computes them, and selection reuses
// SelectTopKInto. Pre-freeze the candidate set is every weight, so scoring
// remains O(n) and gradients stay dense; after Freeze the engine keeps only
// CSR values + tracked gradients + small tensors — the steady state whose
// byte count WeightStateBytes reports and the benchmarks gate.
type TrackedTrainer struct {
	tracking // mask and prevMask are nil once frozen
	sgd      optim.TrackedSGD

	// big is aligned with set.Params(); nil entries are dense-updated
	// small tensors.
	big []*TrackedTensor

	// smallMask holds per-small-tensor tracked masks once frozen (the
	// global n-mask is freed at freeze — big-tensor membership is the CSR
	// index array itself).
	smallMask     [][]bool
	frozenTracked int
}

// NewTrackedTrainer builds the sparse-native training engine over the given
// parameter set. Only the plain DropBack path is supported: the ablation
// switches (DryRun, ZeroUntracked, SelectByMagnitude, PerLayerBudget) stay
// on the dense trainer.
func NewTrackedTrainer(set *nn.ParamSet, cfg Config) *TrackedTrainer {
	if cfg.DryRun || cfg.ZeroUntracked || cfg.SelectByMagnitude || cfg.PerLayerBudget {
		panic("core: tracked trainer supports the plain DropBack path only")
	}
	return &TrackedTrainer{
		tracking:  newTracking(set, cfg),
		big:       make([]*TrackedTensor, len(set.Params())),
		smallMask: make([][]bool, len(set.Params())),
	}
}

// Virtualize registers one parameter tensor for CSR storage, viewed as a
// rows×(Len/rows) matrix. The current dense values seed the tracked set:
// every element whose bits differ from its regenerated init value becomes a
// tracked delta (a fresh model seeds an empty CSR). Must be called before
// the first Apply; returns the CSR handle the sparse kernels close over.
func (d *TrackedTrainer) Virtualize(p *nn.Param, rows int) (*TrackedTensor, error) {
	idx := -1
	for i, q := range d.set.Params() {
		if q == p {
			idx = i
			break
		}
	}
	if idx < 0 {
		return nil, fmt.Errorf("core: parameter %q is not in the engine's set", p.Name)
	}
	if d.big[idx] != nil {
		return nil, fmt.Errorf("core: parameter %q virtualized twice", p.Name)
	}
	if rows <= 0 || p.Len()%rows != 0 {
		return nil, fmt.Errorf("core: parameter %q (%d weights) cannot be viewed as %d rows", p.Name, p.Len(), rows)
	}
	var tIdx []int32
	var tVal []float32
	for e, v := range p.Value.Data {
		if math.Float32bits(v) != math.Float32bits(p.Init.Regenerate(e)) {
			tIdx = append(tIdx, int32(e))
			tVal = append(tVal, v)
		}
	}
	t := NewTrackedTensor(p.Init, rows, p.Len()/rows, tIdx, tVal)
	d.big[idx] = t
	return t, nil
}

// Apply performs one optimizer step under the DropBack constraint: SGD
// update, accumulated-gradient scoring, top-k reselection, and untracked
// regeneration — all fused so untracked dense values are never stored for
// virtualized tensors. It returns the number of weights that entered the
// tracked set this step.
func (d *TrackedTrainer) Apply(lr float32) int {
	d.sgd.LR = lr
	d.stepCount++
	if d.frozen {
		d.applyFrozen()
		d.recordSwaps(0)
		return 0
	}
	params := d.set.Params()
	// Pass A: compute every candidate's post-update score. For virtualized
	// tensors the candidate value is read from the CSR merge walk (tracked
	// value or regenerated gap); the updated value u is discarded — pass B
	// recomputes it for the winners, which is exact because the expression
	// is deterministic.
	for i, p := range params {
		base := d.set.Offset(i)
		if t := d.big[i]; t != nil {
			g := p.Grad.Data
			k := 0
			for e := 0; e < p.Len(); e++ {
				r := p.Init.Regenerate(e)
				v := r
				if k < len(t.Idx) && int(t.Idx[k]) == e {
					v = t.Val[k]
					k++
				}
				u := d.sgd.Update(v, g[e])
				diff := u - r
				if diff < 0 {
					diff = -diff
				}
				d.scores[base+e] = diff
			}
		} else {
			d.sgd.StepTracked(p.Value.Data, p.Grad.Data)
			for e, v := range p.Value.Data {
				diff := v - p.Init.Regenerate(e)
				if diff < 0 {
					diff = -diff
				}
				d.scores[base+e] = diff
			}
		}
	}
	SelectTopKInto(d.mask, d.scores, d.cfg.Budget, d.cfg.Strategy)
	swaps := 0
	if d.havePrev {
		for i, m := range d.mask {
			if m && !d.prevMask[i] {
				swaps++
			}
		}
	}
	d.recordSwaps(swaps)
	// Pass B: commit the new selection. Virtualized tensors rebuild their
	// CSR into the double buffer (winners get their updated value, computed
	// from the old CSR walk); small tensors regenerate their untracked
	// entries in place, exactly like the dense regenerateUntracked.
	for i, p := range params {
		base := d.set.Offset(i)
		if t := d.big[i]; t != nil {
			g := p.Grad.Data
			idx2 := t.idx2[:0]
			val2 := t.val2[:0]
			k := 0
			for e := 0; e < p.Len(); e++ {
				if !d.mask[base+e] {
					continue
				}
				for k < len(t.Idx) && int(t.Idx[k]) < e {
					k++
				}
				v := float32(0)
				if k < len(t.Idx) && int(t.Idx[k]) == e {
					v = t.Val[k]
					k++
				} else {
					v = p.Init.Regenerate(e)
				}
				idx2 = append(idx2, int32(e))
				val2 = append(val2, d.sgd.Update(v, g[e]))
			}
			t.idx2, t.val2 = t.Idx, t.Val
			t.Idx, t.Val = idx2, val2
			t.rebuildRowPtr()
			d.trackedWrites += int64(len(t.Idx))
			d.regenerations += int64(p.Len() - len(t.Idx))
		} else {
			for e := range p.Value.Data {
				if d.mask[base+e] {
					d.trackedWrites++
					continue
				}
				p.Value.Data[e] = p.Init.Regenerate(e)
				d.regenerations++
			}
		}
	}
	d.mask, d.prevMask = d.prevMask, d.mask
	d.havePrev = true
	return swaps
}

// applyFrozen updates the fixed tracked set only: CSR values from the
// tracked gradients the sparse backward kernels produced, small tensors
// densely with regeneration of their untracked entries.
func (d *TrackedTrainer) applyFrozen() {
	for i, p := range d.set.Params() {
		if t := d.big[i]; t != nil {
			d.sgd.StepTracked(t.Val, t.TGrad)
			d.trackedWrites += int64(len(t.Idx))
			d.regenerations += int64(p.Len() - len(t.Idx))
			continue
		}
		d.sgd.StepTracked(p.Value.Data, p.Grad.Data)
		m := d.smallMask[i]
		for e := range p.Value.Data {
			if m[e] {
				d.trackedWrites++
				continue
			}
			p.Value.Data[e] = p.Init.Regenerate(e)
			d.regenerations++
		}
	}
}

// Freeze fixes the tracked set from this point on, switching the engine to
// its steady state: per-big-tensor tracked gradients replace dense ones,
// the global masks are freed, and selection never runs again.
func (d *TrackedTrainer) Freeze() {
	if d.frozen {
		return
	}
	if !d.havePrev {
		// No selection yet: score the current effective values so the
		// frozen set is the present top-k rather than the empty set.
		for i, p := range d.set.Params() {
			base := d.set.Offset(i)
			if t := d.big[i]; t != nil {
				for e := base; e < base+p.Len(); e++ {
					d.scores[e] = 0
				}
				for k, fi := range t.Idx {
					e := int(fi)
					diff := t.Val[k] - p.Init.Regenerate(e)
					if diff < 0 {
						diff = -diff
					}
					d.scores[base+e] = diff
				}
			} else {
				for e, v := range p.Value.Data {
					diff := v - p.Init.Regenerate(e)
					if diff < 0 {
						diff = -diff
					}
					d.scores[base+e] = diff
				}
			}
		}
		SelectTopKInto(d.mask, d.scores, d.cfg.Budget, d.cfg.Strategy)
		copy(d.prevMask, d.mask)
		d.havePrev = true
	} else {
		copy(d.mask, d.prevMask)
	}
	d.frozen = true
	d.freezeTransition()
}

// freezeTransition converts the masked representation into the steady-state
// one: big tensors rebuild their CSR from d.mask (keeping current effective
// values) and gain TGrad; small tensors keep a per-tensor mask copy; the
// global masks and double buffers are released.
func (d *TrackedTrainer) freezeTransition() {
	count := 0
	for i, p := range d.set.Params() {
		base := d.set.Offset(i)
		if t := d.big[i]; t != nil {
			idx2 := t.idx2[:0]
			val2 := t.val2[:0]
			k := 0
			for e := 0; e < p.Len(); e++ {
				if !d.mask[base+e] {
					continue
				}
				for k < len(t.Idx) && int(t.Idx[k]) < e {
					k++
				}
				v := float32(0)
				if k < len(t.Idx) && int(t.Idx[k]) == e {
					v = t.Val[k]
					k++
				} else {
					v = p.Init.Regenerate(e)
				}
				idx2 = append(idx2, int32(e))
				val2 = append(val2, v)
			}
			t.Idx, t.Val = idx2, val2
			t.idx2, t.val2 = nil, nil
			t.rebuildRowPtr()
			t.TGrad = make([]float32, len(t.Idx))
			count += len(t.Idx)
		} else {
			m := make([]bool, p.Len())
			for e := range m {
				if d.mask[base+e] {
					m[e] = true
					count++
				}
			}
			d.smallMask[i] = m
		}
	}
	d.frozenTracked = count
	d.mask, d.prevMask = nil, nil
}

// MaybeFreezeAtEpochEnd freezes the tracked set if the configured freeze
// epoch has just completed.
func (d *TrackedTrainer) MaybeFreezeAtEpochEnd(epoch int) {
	if !d.frozen && d.cfg.FreezeAfterEpoch >= 0 && epoch >= d.cfg.FreezeAfterEpoch {
		d.Freeze()
	}
}

// Update runs Apply at opt's learning rate. The engine fuses the SGD update
// with selection and regeneration over the tracked representation, so
// opt.Step itself never runs: the model's dense big tensors are stale
// between epoch boundaries.
func (d *TrackedTrainer) Update(opt *optim.SGD) int { return d.Apply(opt.LR) }

// EndEpoch runs MaybeFreezeAtEpochEnd, then Densify, so evaluation,
// best-snapshot capture and checkpoints see exactly the values the dense
// trainer holds here.
func (d *TrackedTrainer) EndEpoch(epoch int) {
	d.MaybeFreezeAtEpochEnd(epoch)
	d.Densify()
}

// Densify writes every virtualized tensor's dense values (tracked values
// over regenerated gaps) back into the model's parameter tensors — used at
// epoch boundaries so evaluation, best-snapshot capture, and checkpoints
// see exactly the values the dense trainer would hold.
func (d *TrackedTrainer) Densify() {
	for i, p := range d.set.Params() {
		t := d.big[i]
		if t == nil {
			continue
		}
		data := p.Value.Data
		for r := 0; r < t.Rows; r++ {
			t.FillRow(data[r*t.RowLen:(r+1)*t.RowLen], r)
		}
	}
}

// Mask returns a copy of the current tracked-set mask over global indices,
// following the same convention as DropBack.Mask.
func (d *TrackedTrainer) Mask() []bool {
	out := make([]bool, d.set.Total())
	if !d.frozen {
		copy(out, d.liveMask())
		return out
	}
	for i, p := range d.set.Params() {
		base := d.set.Offset(i)
		if t := d.big[i]; t != nil {
			for _, fi := range t.Idx {
				out[base+int(fi)] = true
			}
		} else {
			copy(out[base:base+p.Len()], d.smallMask[i])
		}
	}
	return out
}

// TrackedCount returns the number of currently tracked weights without
// allocating.
func (d *TrackedTrainer) TrackedCount() int {
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

// AppendTrackedIndices appends the ascending global indices of the current
// tracked set to dst and returns the extended slice. Pre-freeze it scans the
// live mask like DropBack.AppendTrackedIndices; once frozen it walks the CSR
// index arrays and small-tensor masks directly — O(k) work with no dense
// n-length scan, the extraction the tracked-delta wire frames are built
// from. Ascending order holds because parameters are visited in registration
// order and each CSR's Idx array is ascending.
func (d *TrackedTrainer) AppendTrackedIndices(dst []int32) []int32 {
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
		if t := d.big[i]; t != nil {
			for _, fi := range t.Idx {
				dst = append(dst, base+fi)
			}
			continue
		}
		for e := 0; e < p.Len(); e++ {
			if d.smallMask[i][e] {
				dst = append(dst, base+int32(e))
			}
		}
	}
	return dst
}

// RetentionByParam returns the tracked count for every parameter tensor.
func (d *TrackedTrainer) RetentionByParam() []LayerRetention {
	out := make([]LayerRetention, 0, len(d.set.Params()))
	for i, p := range d.set.Params() {
		base := d.set.Offset(i)
		r := LayerRetention{Name: p.Name, Total: p.Len()}
		switch {
		case d.frozen && d.big[i] != nil:
			r.Retained = len(d.big[i].Idx)
		case d.frozen:
			for _, m := range d.smallMask[i] {
				if m {
					r.Retained++
				}
			}
		default:
			src := d.liveMask()
			for e := 0; e < p.Len(); e++ {
				if src[base+e] {
					r.Retained++
				}
			}
		}
		out = append(out, r)
	}
	return out
}

// RetentionByLayer aggregates RetentionByParam by layer name.
func (d *TrackedTrainer) RetentionByLayer() []LayerRetention {
	return aggregateRetention(d.RetentionByParam())
}

// WeightStateBytes reports the engine's steady-state weight-state size: CSR
// arrays plus tracked gradients for virtualized tensors, dense values +
// gradients + mask for small tensors. After Freeze this scales with the
// budget k (plus the small tensors), not with n — the measured claim
// BENCH_train.json gates. The retained telemetry score vector and the
// model's host-side dense tensors (used only at epoch boundaries) are
// deliberately excluded; DESIGN.md §11 spells out the accounting.
func (d *TrackedTrainer) WeightStateBytes() int64 {
	var b int64
	for i, p := range d.set.Params() {
		if t := d.big[i]; t != nil {
			b += int64(len(t.Val)+len(t.TGrad))*4 + int64(len(t.Idx))*4 + int64(len(t.RowPtr))*4
			b += int64(cap(t.idx2))*4 + int64(cap(t.val2))*4
		} else {
			b += int64(p.Len()) * 8 // dense value + gradient
			if m := d.smallMask[i]; m != nil {
				b += int64(len(m))
			}
		}
	}
	if !d.frozen {
		// Pre-freeze every weight is a candidate: dense gradients and the
		// global masks are part of the working state.
		for i, p := range d.set.Params() {
			if d.big[i] != nil {
				b += int64(p.Len()) * 4 // dense gradient
			}
		}
		b += 2 * int64(d.set.Total()) // mask + prevMask
	}
	return b
}

// DenseWeightStateBytes is the dense trainer's equivalent: every weight
// stores a value and a gradient.
func (d *TrackedTrainer) DenseWeightStateBytes() int64 {
	return int64(d.set.Total()) * 8
}

// State captures the engine's resumable state in the same form as
// DropBack.State, so checkpoints cross-resume between the dense and sparse
// trainers.
func (d *TrackedTrainer) State() State { return d.state(d.Mask) }

// RestoreState rewinds the engine to a previously captured state. The
// model's dense parameter values must already hold the checkpointed values
// (the trainer restores them first); the CSR arrays are rebuilt from them
// at the masked indices, and every untracked virtualized value is verified
// to be bit-equal to its regenerated init — the invariant both trainers
// maintain.
func (d *TrackedTrainer) RestoreState(st State) error {
	if err := d.restore(st); err != nil {
		return err
	}
	if d.mask == nil {
		n := d.set.Total()
		d.mask = make([]bool, n)
		d.prevMask = make([]bool, n)
	}
	if !st.HaveSelection {
		clear(d.mask)
		clear(d.prevMask)
		for i, p := range d.set.Params() {
			t := d.big[i]
			if t == nil {
				continue
			}
			t.Idx = t.Idx[:0]
			t.Val = t.Val[:0]
			for e, v := range p.Value.Data {
				if math.Float32bits(v) != math.Float32bits(p.Init.Regenerate(e)) {
					t.Idx = append(t.Idx, int32(e))
					t.Val = append(t.Val, v)
				}
			}
			t.rebuildRowPtr()
		}
		return nil
	}
	copy(d.mask, st.Mask)
	copy(d.prevMask, st.Mask)
	for i, p := range d.set.Params() {
		base := d.set.Offset(i)
		t := d.big[i]
		if t == nil {
			continue
		}
		t.Idx = t.Idx[:0]
		t.Val = t.Val[:0]
		for e, v := range p.Value.Data {
			if st.Mask[base+e] {
				t.Idx = append(t.Idx, int32(e))
				t.Val = append(t.Val, v)
				continue
			}
			if math.Float32bits(v) != math.Float32bits(p.Init.Regenerate(e)) {
				return fmt.Errorf("core: untracked weight %s[%d] deviates from its regenerated init", p.Name, e)
			}
		}
		t.rebuildRowPtr()
	}
	if st.Frozen {
		d.freezeTransition()
	} else {
		d.smallMask = make([][]bool, len(d.set.Params()))
		d.frozenTracked = 0
	}
	return nil
}

// aggregateRetention merges per-parameter retention into per-layer rows,
// shared by DropBack and TrackedTrainer.
func aggregateRetention(perParam []LayerRetention) []LayerRetention {
	byLayer := map[string]*LayerRetention{}
	order := make([]string, 0, len(perParam))
	for _, r := range perParam {
		layer := r.Name
		if i := lastSlash(layer); i >= 0 {
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
