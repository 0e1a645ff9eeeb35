package core

import (
	"math"

	"dropback/internal/nn"
	"dropback/internal/optim"
)

// This file holds DropBack's selection logic over CSR storage (nn.CSR):
// loading a tracked set from dense values, scoring, and committing a step.
// Only the tracked entries are stored; every other value is regenerated
// from the tensor's init stream.

// csrSpare is a CSR tensor's second set of entry arrays: commitStep builds
// the next step's entries into it and swaps. Freed at the freeze.
type csrSpare struct {
	idx []int32
	val []float32
}

// loadCSR rebuilds t's entries from dense values: the entries keep marks,
// or, with keep nil, every entry whose bits differ from its regenerated
// init (a fresh tracked set's seed).
func loadCSR(t *nn.CSR, dense []float32, keep []bool) {
	t.Idx, t.Val, t.TGrad = t.Idx[:0], t.Val[:0], nil
	for e, v := range dense {
		if keep != nil && keep[e] || keep == nil && math.Float32bits(v) != math.Float32bits(t.Init.Regenerate(e)) {
			t.Idx = append(t.Idx, int32(e))
			t.Val = append(t.Val, v)
		}
	}
	t.RebuildRowPtr()
}

// scoreStep writes |u − W_0| for every element of t into scores, where u is
// the element's value after the pending SGD step: the tracked value or the
// regenerated gap, stepped with grad. u itself is discarded — commitStep
// recomputes it for the winners, which is exact because the expression is
// deterministic.
func scoreStep(t *nn.CSR, scores, grad []float32, sgd optim.TrackedSGD) {
	k := 0
	for e := range scores {
		r := t.Init.Regenerate(e)
		v := r
		if k < len(t.Idx) && int(t.Idx[k]) == e {
			v = t.Val[k]
			k++
		}
		diff := sgd.Update(v, grad[e]) - r
		if diff < 0 {
			diff = -diff
		}
		scores[e] = diff
	}
}

// scoreValues writes |v − W_0| for every element of t into scores without a
// step: zero at the gaps, which hold W_0 exactly, and the tracked values'
// distance from their regenerated init elsewhere.
func scoreValues(t *nn.CSR, scores []float32) {
	clear(scores)
	for k, e := range t.Idx {
		diff := t.Val[k] - t.Init.Regenerate(int(e))
		if diff < 0 {
			diff = -diff
		}
		scores[e] = diff
	}
}

// commitStep rebuilds t, through the spare arrays, to hold exactly the
// entries keep marks, each at its stepped value (read from the old entries,
// or regenerated for a newcomer, then stepped with grad).
func commitStep(t *nn.CSR, spare *csrSpare, keep []bool, grad []float32, sgd optim.TrackedSGD) {
	idx2, val2 := spare.idx[:0], spare.val[:0]
	k := 0
	for e, m := range keep {
		if !m {
			continue
		}
		for k < len(t.Idx) && int(t.Idx[k]) < e {
			k++
		}
		var v float32
		if k < len(t.Idx) && int(t.Idx[k]) == e {
			v = t.Val[k]
			k++
		} else {
			v = t.Init.Regenerate(e)
		}
		idx2 = append(idx2, int32(e))
		val2 = append(val2, sgd.Update(v, grad[e]))
	}
	spare.idx, spare.val = t.Idx, t.Val
	t.Idx, t.Val = idx2, val2
	t.RebuildRowPtr()
}
