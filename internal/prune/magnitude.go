// Package prune implements the three comparison baselines evaluated in the
// paper's §3: iterative magnitude-based pruning, variational dropout
// (Kingma et al. 2015, with the Molchanov et al. 2017 sparsification), and
// network slimming (Liu et al. 2017).
//
// The baselines differ from DropBack in exactly the ways the paper's
// analysis (§4) highlights: magnitude pruning zeroes weights (destroying
// the initialization "scaffolding", so its L2 diffusion starts displaced),
// variational dropout perturbs the loss surface (diffusing much faster and
// failing to converge on dense networks), and network slimming requires a
// full train-prune-retrain cycle with dense training-time memory traffic.
//
// Magnitude, VD, Slimming and DSD all plug into the trainer through the
// same four hooks: BeginEpoch before an epoch's first step; Update after
// each backward pass, for the method's gradient terms, the optimizer step
// and the method's projection; EndEpoch after an epoch's last step; and
// Resume to re-derive state a checkpoint does not carry.
package prune

import (
	"fmt"

	"dropback/internal/core"
	"dropback/internal/nn"
	"dropback/internal/optim"
)

// Magnitude is the paper's "straightforward magnitude-based pruning
// implementation where only the highest weights are kept after each
// iteration": after every SGD update, all but the top keep-fraction of
// weights by absolute value are set to zero (not regenerated — zeroing is
// the point of contrast with DropBack).
type Magnitude struct {
	set *nn.ParamSet
	// PruneFraction is the fraction of weights zeroed each iteration; the
	// paper's "Mag Pruning .75" rows correspond to PruneFraction = 0.75.
	PruneFraction float64

	keep   int
	scores []float32
	mask   []bool
	zeroed int64
}

// NewMagnitude builds an iterative magnitude pruner keeping the top
// (1−pruneFraction) of weights by |w| each step.
func NewMagnitude(set *nn.ParamSet, pruneFraction float64) *Magnitude {
	if pruneFraction < 0 || pruneFraction >= 1 {
		panic(fmt.Sprintf("prune: prune fraction %v out of [0,1)", pruneFraction))
	}
	n := set.Total()
	keep := max(int(float64(n)*(1-pruneFraction)), 1)
	return &Magnitude{
		set:           set,
		PruneFraction: pruneFraction,
		keep:          keep,
		scores:        make([]float32, n),
		mask:          make([]bool, n),
	}
}

// Keep returns the number of weights preserved each iteration.
func (m *Magnitude) Keep() int { return m.keep }

// CompressionRatio returns total/kept weights.
func (m *Magnitude) CompressionRatio() float64 {
	return float64(m.set.Total()) / float64(m.keep)
}

// Apply zeroes all but the top-|w| weights. It uses the same deterministic
// top-k selection as DropBack, but scored by current magnitude rather than
// accumulated gradient, and resets losers to zero rather than to their
// regenerated initialization values.
func (m *Magnitude) Apply() {
	for i, p := range m.set.Params() {
		base := m.set.Offset(i)
		for e, v := range p.Value.Data {
			if v < 0 {
				v = -v
			}
			m.scores[base+e] = v
		}
	}
	core.SelectTopKInto(m.mask, m.scores, m.keep)
	for i, p := range m.set.Params() {
		base := m.set.Offset(i)
		for e := range p.Value.Data {
			if !m.mask[base+e] && p.Value.Data[e] != 0 {
				p.Value.Data[e] = 0
				m.zeroed++
			}
		}
	}
}

// BeginEpoch is a no-op.
func (m *Magnitude) BeginEpoch(int) {}

// Update applies opt's step, then Apply. It returns −1: there is no tracked
// set to report swaps for.
func (m *Magnitude) Update(opt *optim.SGD) int {
	opt.Step(m.set)
	m.Apply()
	return -1
}

// EndEpoch is a no-op.
func (m *Magnitude) EndEpoch(int) {}

// Resume is a no-op: the next Apply re-derives the mask from the weights.
func (m *Magnitude) Resume(int) {}

// Zeroed returns the cumulative number of weight-zeroing writes performed.
func (m *Magnitude) Zeroed() int64 { return m.zeroed }

// Mask returns a copy of the latest keep-mask.
func (m *Magnitude) Mask() []bool {
	out := make([]bool, len(m.mask))
	copy(out, m.mask)
	return out
}
