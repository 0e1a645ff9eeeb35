package core

import (
	"math"

	"dropback/internal/optim"
	"dropback/internal/xorshift"
)

// TrackedTensor is the CSR view of one weight tensor: only the tracked
// entries are stored (flat index + value over the tensor's own index space),
// everything else is regenerated from the init stream on demand. Rows/RowLen
// give the matrix shape the sparse kernels walk (Linear: Out×In, Conv2D:
// OutC×(InC·KH·KW)). It is the one weight encoding of both sparse training
// (DropBack's CSR storage mutates it) and sparse inference (a compiled plan
// reads it immutably), and it holds no reference to the dense parameter.
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

// load rebuilds the CSR arrays from dense values: the entries keep marks,
// or, with keep nil, every entry whose bits differ from its regenerated
// init (a fresh tracked set's seed).
func (t *TrackedTensor) load(dense []float32, keep []bool) {
	t.Idx, t.Val, t.TGrad = t.Idx[:0], t.Val[:0], nil
	for e, v := range dense {
		if keep != nil && keep[e] || keep == nil && math.Float32bits(v) != math.Float32bits(t.Init.Regenerate(e)) {
			t.Idx = append(t.Idx, int32(e))
			t.Val = append(t.Val, v)
		}
	}
	t.rebuildRowPtr()
}

// scoreStep writes |u − W_0| for every element into scores, where u is the
// element's value after the pending SGD step: the tracked value or the
// regenerated gap, stepped with grad. u itself is discarded — commitStep
// recomputes it for the winners, which is exact because the expression is
// deterministic.
func (t *TrackedTensor) scoreStep(scores, grad []float32, sgd optim.TrackedSGD) {
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

// scoreValues writes |v − W_0| for every element into scores without a
// step: zero at the gaps, which hold W_0 exactly, and the tracked values'
// distance from their regenerated init elsewhere.
func (t *TrackedTensor) scoreValues(scores []float32) {
	clear(scores)
	for k, e := range t.Idx {
		diff := t.Val[k] - t.Init.Regenerate(int(e))
		if diff < 0 {
			diff = -diff
		}
		scores[e] = diff
	}
}

// commitStep rebuilds the CSR, through its double buffer, to hold exactly
// the entries keep marks, each at its stepped value (read from the old CSR
// walk, or regenerated for a newcomer, then stepped with grad).
func (t *TrackedTensor) commitStep(keep []bool, grad []float32, sgd optim.TrackedSGD) {
	idx2, val2 := t.idx2[:0], t.val2[:0]
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
	t.idx2, t.val2 = t.Idx, t.Val
	t.Idx, t.Val = idx2, val2
	t.rebuildRowPtr()
}
