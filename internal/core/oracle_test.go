package core

import (
	"fmt"

	"dropback/internal/nn"
)

// denseOracle is the reference dense DropBack pipeline the engine is
// checked against: the caller runs sgd.Step over the whole set, then Apply
// scores |W_t − W_0| over the dense values, selects one global top-k (or
// per-tensor top-k under PerLayerBudget), and regenerates every untracked
// weight. It keeps one global mask through the freeze and implements every
// ablation switch, written for clarity rather than speed.
type denseOracle struct {
	cfg                          Config
	set                          *nn.ParamSet
	scores                       []float32
	mask                         []bool
	haveSel, frozen              bool
	steps                        int
	regenerations, trackedWrites int64
	swaps                        SwapSummary
}

func newDenseOracle(set *nn.ParamSet, cfg Config) *denseOracle {
	cfg.Budget = min(cfg.Budget, set.Total())
	return &denseOracle{cfg: cfg, set: set, scores: make([]float32, set.Total()), mask: make([]bool, set.Total())}
}

func (o *denseOracle) Apply() int {
	o.steps++
	swaps := 0
	if !o.frozen {
		prev := append([]bool(nil), o.mask...)
		o.selectTopK()
		if o.haveSel {
			for g, m := range o.mask {
				if m && !prev[g] {
					swaps++
				}
			}
		}
		o.haveSel = true
	}
	o.swaps.Add(swaps)
	if o.cfg.DryRun {
		return swaps
	}
	for g := 0; g < o.set.Total(); g++ {
		switch {
		case o.mask[g]:
			o.trackedWrites++
			continue
		case o.cfg.ZeroUntracked:
			o.set.Set(g, 0)
		default:
			o.set.Set(g, o.set.InitialValue(g))
		}
		o.regenerations++
	}
	return swaps
}

func (o *denseOracle) selectTopK() {
	for g := range o.scores {
		v := o.set.Get(g)
		if !o.cfg.SelectByMagnitude && !o.cfg.ZeroUntracked {
			v -= o.set.InitialValue(g)
		}
		if v < 0 {
			v = -v
		}
		o.scores[g] = v
	}
	if !o.cfg.PerLayerBudget {
		SelectTopKInto(o.mask, o.scores, o.cfg.Budget)
		return
	}
	// Proportional floor shares, the last tensor taking the drift up to
	// its size, then any surplus spilled into earlier tensors in order.
	params := o.set.Params()
	shares := make([]int, len(params))
	left := o.cfg.Budget
	for i, p := range params {
		shares[i] = o.cfg.Budget * p.Len() / o.set.Total()
		if i == len(params)-1 {
			shares[i] = min(left, p.Len())
		}
		left -= shares[i]
	}
	for i, p := range params {
		give := min(p.Len()-shares[i], left)
		if give > 0 {
			shares[i] += give
			left -= give
		}
	}
	for i, p := range params {
		b := o.set.Offset(i)
		SelectTopKInto(o.mask[b:b+p.Len()], o.scores[b:b+p.Len()], shares[i])
	}
}

func (o *denseOracle) MaybeFreezeAtEpochEnd(epoch int) {
	if o.cfg.FreezeAfterEpoch >= 0 && epoch >= o.cfg.FreezeAfterEpoch {
		o.Freeze()
	}
}

// Freeze fixes the mask, selecting once from the current values if no step
// has selected yet, and resets every untracked weight (unless DryRun), so
// the frozen model reads W_0 (zero under ZeroUntracked) outside the set
// from the moment of the freeze. The reset is not counted: it is the
// transition, not a step.
func (o *denseOracle) Freeze() {
	if o.frozen {
		return
	}
	if !o.haveSel {
		o.selectTopK()
		o.haveSel = true
	}
	o.frozen = true
	if o.cfg.DryRun {
		return
	}
	for g, m := range o.mask {
		switch {
		case m:
		case o.cfg.ZeroUntracked:
			o.set.Set(g, 0)
		default:
			o.set.Set(g, o.set.InitialValue(g))
		}
	}
}

func (o *denseOracle) State() State {
	st := State{Frozen: o.frozen, HaveSelection: o.haveSel, StepCount: o.steps,
		Regenerations: o.regenerations, TrackedWrites: o.trackedWrites, Swaps: o.swaps}
	if o.haveSel {
		st.Mask = append([]bool(nil), o.mask...)
	}
	return st
}

func (o *denseOracle) RestoreState(st State) error {
	if st.HaveSelection && len(st.Mask) != o.set.Total() {
		return fmt.Errorf("oracle: mask covers %d weights, want %d", len(st.Mask), o.set.Total())
	}
	o.frozen, o.haveSel, o.steps = st.Frozen, st.HaveSelection, st.StepCount
	o.regenerations, o.trackedWrites, o.swaps = st.Regenerations, st.TrackedWrites, st.Swaps
	clear(o.mask)
	copy(o.mask, st.Mask)
	return nil
}
