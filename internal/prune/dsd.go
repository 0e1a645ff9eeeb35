package prune

import (
	"fmt"

	"dropback/internal/core"
	"dropback/internal/nn"
	"dropback/internal/optim"
)

// DSD implements dense-sparse-dense training (Han et al. 2017), the
// regularization technique §2.2 of the paper explicitly contrasts DropBack
// with: "DSD repeatedly alternates sparse phases (where the lowest-
// absolute-value weights are deleted) and dense refinement phases (where
// all weights may be updated)". Unlike DropBack it trains the full dense
// network first, needs dense weight memory throughout, and uses sparsity
// only as a regularizer — the final model is dense.
type DSD struct {
	set *nn.ParamSet
	// SparseFraction is the share of weights masked to zero during sparse
	// phases (DSD's paper uses 30–50%).
	SparseFraction float64
	// SparseStart and SparseEnd bound the sparse phase: it begins at the
	// start of epoch SparseStart and ends at the start of epoch SparseEnd.
	SparseStart, SparseEnd int
	// phase tracks whether a sparse phase is active.
	sparse bool
	mask   []bool // keep-mask during sparse phases
	scores []float32
}

// NewDSD builds a dense-sparse-dense scheduler over the parameter set whose
// sparse phase spans epochs [sparseStart, sparseEnd).
func NewDSD(set *nn.ParamSet, sparseFraction float64, sparseStart, sparseEnd int) *DSD {
	if sparseFraction <= 0 || sparseFraction >= 1 {
		panic(fmt.Sprintf("prune: DSD sparse fraction %v out of (0,1)", sparseFraction))
	}
	n := set.Total()
	return &DSD{
		set:            set,
		SparseFraction: sparseFraction,
		SparseStart:    sparseStart,
		SparseEnd:      sparseEnd,
		mask:           make([]bool, n),
		scores:         make([]float32, n),
	}
}

// Sparse reports whether a sparse phase is active.
func (d *DSD) Sparse() bool { return d.sparse }

// BeginEpoch crosses the phase edges that fall at the start of epoch.
func (d *DSD) BeginEpoch(epoch int) {
	if epoch == d.SparseStart && !d.sparse {
		d.beginSparsePhase()
	}
	if epoch == d.SparseEnd && d.sparse {
		d.sparse = false
	}
}

// Update applies opt's step, then re-applies the sparse mask in sparse
// phases. It returns −1: there is no tracked set to report swaps for.
func (d *DSD) Update(opt *optim.SGD) int {
	opt.Step(d.set)
	d.afterStep()
	return -1
}

// EndEpoch is a no-op.
func (d *DSD) EndEpoch(int) {}

// Resume re-enters the sparse phase when the run resumes inside it (epochs
// completed epochs), reselecting the mask from the restored weights. Masked
// weights hold exactly zero there, so the reselection keeps the same set
// unless a kept weight is itself exactly zero and ties with them.
func (d *DSD) Resume(epochs int) {
	ended := d.SparseStart <= d.SparseEnd && d.SparseEnd <= epochs
	if d.SparseStart < epochs && !ended {
		d.beginSparsePhase()
	}
}

// beginSparsePhase selects the keep-mask (top-|w| by magnitude, like DSD's
// pruning step) and zeroes the masked weights. Subsequent Update calls keep
// them at zero until the phase ends; masked weights then resume from zero
// (the "dense refinement" phase).
func (d *DSD) beginSparsePhase() {
	keep := max(int(float64(d.set.Total())*(1-d.SparseFraction)), 1)
	for i, p := range d.set.Params() {
		base := d.set.Offset(i)
		for e, v := range p.Value.Data {
			if v < 0 {
				v = -v
			}
			d.scores[base+e] = v
		}
	}
	core.SelectTopKInto(d.mask, d.scores, keep)
	d.applyMask()
	d.sparse = true
}

// afterStep re-applies the sparse mask after an optimizer step; a no-op in
// dense phases.
func (d *DSD) afterStep() {
	if d.sparse {
		d.applyMask()
	}
}

func (d *DSD) applyMask() {
	for i, p := range d.set.Params() {
		base := d.set.Offset(i)
		for e := range p.Value.Data {
			if !d.mask[base+e] {
				p.Value.Data[e] = 0
			}
		}
	}
}

// CompressionRatio is always 1: DSD's final model is dense (its sparsity is
// a transient regularizer, not a storage saving) — the paper's §2.2 point.
func (d *DSD) CompressionRatio() float64 { return 1 }

// MaskedCount returns how many weights the current mask suppresses (0 in
// dense phases).
func (d *DSD) MaskedCount() int {
	if !d.sparse {
		return 0
	}
	n := 0
	for _, keep := range d.mask {
		if !keep {
			n++
		}
	}
	return n
}
