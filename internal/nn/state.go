package nn

import "fmt"

// BNStats is one BatchNorm's running statistics under its layer name, the
// record checkpoints and sparse artifacts store.
type BNStats struct {
	Name        string
	RunningMean []float32
	RunningVar  []float32
}

// CaptureBNStats copies the running statistics of every BatchNorm under
// root, in walk order.
func CaptureBNStats(root Layer) []BNStats {
	var out []BNStats
	Walk(root, func(l Layer) {
		if bn, ok := l.(*BatchNorm); ok {
			out = append(out, BNStats{
				Name:        bn.Name(),
				RunningMean: append([]float32(nil), bn.RunningMean...),
				RunningVar:  append([]float32(nil), bn.RunningVar...),
			})
		}
	})
	return out
}

// LookupBNStats returns the entry of stats named after bn, or nil when
// there is none. An entry whose channel count differs from bn's is an
// error; its message carries no package prefix, so callers add theirs.
func LookupBNStats(stats []BNStats, bn *BatchNorm) (*BNStats, error) {
	for i := range stats {
		s := &stats[i]
		if s.Name != bn.Name() {
			continue
		}
		if len(s.RunningMean) != bn.C || len(s.RunningVar) != bn.C {
			return nil, fmt.Errorf("batch norm %q has %d channels, stored statistics hold %d", bn.Name(), bn.C, len(s.RunningMean))
		}
		return s, nil
	}
	return nil, nil
}

// ApplyBNStats writes stats into the BatchNorms under root, matched by name
// (see LookupBNStats); a BatchNorm without an entry keeps its statistics.
// Every entry is checked before any is written, so on error root is
// unchanged.
func ApplyBNStats(root Layer, stats []BNStats) error {
	var bns []*BatchNorm
	var found []*BNStats
	var err error
	Walk(root, func(l Layer) {
		bn, ok := l.(*BatchNorm)
		if !ok || err != nil {
			return
		}
		var s *BNStats
		if s, err = LookupBNStats(stats, bn); s != nil {
			bns, found = append(bns, bn), append(found, s)
		}
	})
	if err != nil {
		return err
	}
	for i, bn := range bns {
		copy(bn.RunningMean, found[i].RunningMean)
		copy(bn.RunningVar, found[i].RunningVar)
	}
	return nil
}

// CaptureBNState copies every BatchNorm's running statistics, walking the
// layer tree in deterministic order. One entry per BatchNorm, the layer's
// running mean followed by its running variance. These statistics live
// outside the ParamSet (they are activation statistics, not weights) but
// matter for evaluation, so checkpointing and best-epoch restoration both
// need them.
func CaptureBNState(root Layer) [][]float32 {
	var out [][]float32
	Walk(root, func(l Layer) {
		if bn, ok := l.(*BatchNorm); ok {
			s := make([]float32, 0, 2*bn.C)
			s = append(s, bn.RunningMean...)
			s = append(s, bn.RunningVar...)
			out = append(out, s)
		}
	})
	return out
}

// RNGStateful is a layer with internal random state that advances during
// training (Dropout's sample count, a variational-dropout noise stream).
// Checkpointing must capture it: a resumed run can only be bit-identical to
// an uninterrupted one if every stochastic layer picks up exactly where it
// left off.
type RNGStateful interface {
	Layer
	RNGState() uint64
	SetRNGState(uint64)
}

// CaptureLayerRNG collects the internal RNG state of every stochastic
// layer, keyed by layer name.
func CaptureLayerRNG(root Layer) map[string]uint64 {
	out := map[string]uint64{}
	Walk(root, func(l Layer) {
		if s, ok := l.(RNGStateful); ok {
			out[s.Name()] = s.RNGState()
		}
	})
	return out
}

// RestoreLayerRNG writes back states captured by CaptureLayerRNG, matching
// layers by name. Nil maps and unmatched names are no-ops.
func RestoreLayerRNG(root Layer, state map[string]uint64) {
	if state == nil {
		return
	}
	Walk(root, func(l Layer) {
		if s, ok := l.(RNGStateful); ok {
			if v, ok := state[s.Name()]; ok {
				s.SetRNGState(v)
			}
		}
	})
}

// RestoreBNState writes back statistics captured by CaptureBNState on a
// model with the same layer structure. A nil state is a no-op; extra or
// missing entries are ignored (the walk simply stops matching), and entries
// of the wrong width are skipped rather than partially applied.
func RestoreBNState(root Layer, state [][]float32) {
	if state == nil {
		return
	}
	i := 0
	Walk(root, func(l Layer) {
		if bn, ok := l.(*BatchNorm); ok {
			if i < len(state) && len(state[i]) == 2*bn.C {
				copy(bn.RunningMean, state[i][:bn.C])
				copy(bn.RunningVar, state[i][bn.C:])
			}
			i++
		}
	})
}
