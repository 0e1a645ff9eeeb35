package prune

import (
	"fmt"
	"sort"

	"dropback/internal/nn"
	"dropback/internal/optim"
)

// Slimming implements network slimming (Liu et al. 2017), the paper's
// train-prune-retrain baseline: training adds an L1 penalty on every batch
// normalization scale factor γ, pruning removes the channels with the
// globally smallest |γ|, and fine-tuning continues training with the pruned
// channels pinned to zero.
//
// Because BN scale factors gate entire channels, zeroing (γ, β) for a
// channel removes its contribution exactly; the convolution weights feeding
// it become dead and are counted as removed in the compression estimate.
type Slimming struct {
	// Lambda is the L1 penalty strength on γ.
	Lambda float32
	// PruneFraction is the fraction of BN channels removed at the prune;
	// the paper's "Slimming .75" rows use 0.75.
	PruneFraction float64
	// PruneAtEpoch is the zero-based epoch whose end triggers the prune
	// and the switch to fine-tuning.
	PruneAtEpoch int

	set    *nn.ParamSet
	bns    []*nn.BatchNorm
	pruned bool
	// masks[i][c] is true when channel c of bns[i] survives pruning.
	masks [][]bool
}

// NewSlimming collects every BatchNorm in the layer tree; set is the
// model's full parameter set, which Update steps.
func NewSlimming(set *nn.ParamSet, root nn.Layer, lambda float32, pruneFraction float64, pruneAtEpoch int) *Slimming {
	if pruneFraction < 0 || pruneFraction >= 1 {
		panic(fmt.Sprintf("prune: slimming fraction %v out of [0,1)", pruneFraction))
	}
	s := &Slimming{Lambda: lambda, PruneFraction: pruneFraction, PruneAtEpoch: pruneAtEpoch, set: set}
	nn.Walk(root, func(l nn.Layer) {
		if bn, ok := l.(*nn.BatchNorm); ok {
			s.bns = append(s.bns, bn)
		}
	})
	return s
}

// BatchNormCount returns the number of BN layers under management.
func (s *Slimming) BatchNormCount() int { return len(s.bns) }

// BeginEpoch is a no-op.
func (s *Slimming) BeginEpoch(int) {}

// Update adds the L1 gradient until the prune, applies opt's step, then
// re-zeroes the pruned channels. It returns −1: there is no tracked set to
// report swaps for.
func (s *Slimming) Update(opt *optim.SGD) int {
	if !s.pruned {
		s.addL1Grads()
	}
	opt.Step(s.set)
	s.killPruned()
	return -1
}

// addL1Grads injects λ·sign(γ) into every γ gradient buffer.
func (s *Slimming) addL1Grads() {
	for _, bn := range s.bns {
		for i, g := range bn.Gamma.Value.Data {
			switch {
			case g > 0:
				bn.Gamma.Grad.Data[i] += s.Lambda
			case g < 0:
				bn.Gamma.Grad.Data[i] -= s.Lambda
			}
		}
	}
}

// EndEpoch prunes once PruneAtEpoch has completed.
func (s *Slimming) EndEpoch(epoch int) {
	if !s.pruned && epoch >= s.PruneAtEpoch {
		s.prune()
	}
}

// Resume re-derives the channel masks, which checkpoints do not carry, when
// the run resumes after its prune (epochs completed epochs > PruneAtEpoch).
// Pruned channels hold exactly zero (γ, β), since Update re-zeroes them after
// every step, so the masks are read back from the restored weights.
func (s *Slimming) Resume(epochs int) {
	if epochs <= s.PruneAtEpoch {
		return
	}
	s.masks = s.masks[:0]
	for _, bn := range s.bns {
		mask := make([]bool, bn.C)
		for c := range mask {
			mask[c] = bn.Gamma.Value.Data[c] != 0 || bn.Beta.Value.Data[c] != 0
		}
		s.masks = append(s.masks, mask)
	}
	s.pruned = true
}

// prune selects the global |γ| threshold removing PruneFraction of all
// channels, zeroes (γ, β) for pruned channels, and records the channel
// masks used during fine-tuning. It returns the number of channels pruned.
func (s *Slimming) prune() int {
	var all []float32
	for _, bn := range s.bns {
		for _, g := range bn.Gamma.Value.Data {
			a := g
			if a < 0 {
				a = -a
			}
			all = append(all, a)
		}
	}
	if len(all) == 0 {
		s.pruned = true
		return 0
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	cut := int(float64(len(all)) * s.PruneFraction)
	if cut >= len(all) {
		cut = len(all) - 1
	}
	thresh := all[cut]
	prunedCount := 0
	s.masks = s.masks[:0]
	for _, bn := range s.bns {
		mask := make([]bool, bn.C)
		kept := 0
		for c, g := range bn.Gamma.Value.Data {
			a := g
			if a < 0 {
				a = -a
			}
			if a >= thresh && kept < bn.C { // keep channels at/above threshold
				mask[c] = true
				kept++
			}
		}
		// Never prune every channel of a layer: the network would emit
		// all-zero activations. Keep the largest-|γ| channel.
		if kept == 0 {
			best, bestAbs := 0, float32(-1)
			for c, g := range bn.Gamma.Value.Data {
				a := g
				if a < 0 {
					a = -a
				}
				if a > bestAbs {
					bestAbs, best = a, c
				}
			}
			mask[best] = true
		}
		for c, keep := range mask {
			if !keep {
				bn.Gamma.Value.Data[c] = 0
				bn.Beta.Value.Data[c] = 0
				prunedCount++
			}
		}
		s.masks = append(s.masks, mask)
	}
	s.pruned = true
	return prunedCount
}

// killPruned keeps pruned channels dead during fine-tuning by re-zeroing
// their (γ, β). Before the prune it is a no-op.
func (s *Slimming) killPruned() {
	if !s.pruned {
		return
	}
	for i, bn := range s.bns {
		for c, keep := range s.masks[i] {
			if !keep {
				bn.Gamma.Value.Data[c] = 0
				bn.Beta.Value.Data[c] = 0
			}
		}
	}
}

// ChannelCounts returns (pruned, total) channel counts after the prune.
func (s *Slimming) ChannelCounts() (pruned, total int) {
	for i, bn := range s.bns {
		total += bn.C
		if s.pruned {
			for _, keep := range s.masks[i] {
				if !keep {
					pruned++
				}
			}
		}
	}
	return pruned, total
}

// CompressionRatio estimates the weight compression achieved by channel
// pruning as total/kept channels. Each pruned channel removes its incoming
// convolution filter and BN parameters, so channel-level compression tracks
// parameter-level compression to first order — the same accounting the
// slimming paper reports.
func (s *Slimming) CompressionRatio() float64 {
	pruned, total := s.ChannelCounts()
	kept := total - pruned
	if kept <= 0 || total == 0 {
		return 1
	}
	return float64(total) / float64(kept)
}
