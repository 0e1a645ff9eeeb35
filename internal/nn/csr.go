package nn

import "dropback/internal/xorshift"

// CSR is the compressed storage of one weight tensor: only the tracked
// entries are stored (flat index + value over the tensor's own index space),
// everything else is regenerated from the init stream on demand. Rows and
// RowLen give the matrix shape the layers walk: dimension 0 of the weight's
// shape by the product of the rest — Linear (Out, In), Conv2D
// (OutC, InC·KH·KW). It is the one sparse weight encoding of training
// (core.DropBack mutates it) and of inference (a compiled sparse.Plan
// shares it read-only with its executors' replicas), and it holds no
// reference to a dense tensor.
type CSR struct {
	Init   xorshift.Init
	Rows   int
	RowLen int
	// RowPtr/Idx/Val are the CSR arrays: Idx holds ascending flat indices
	// into the tensor, Val the tracked values, RowPtr the per-row spans.
	RowPtr []int32
	Idx    []int32
	Val    []float32
	// TGrad receives the tracked-set gradients once the selection is
	// frozen (aligned with Idx); nil before that — while every weight is a
	// candidate, gradients stay dense in Param.Grad.
	TGrad []float32
}

// NewCSR builds the CSR storage of a rows×rowLen tensor whose tracked
// entries are idx (ascending flat indices into the tensor) and val. The
// slices are retained, not copied; the row pointers are derived from idx.
func NewCSR(init xorshift.Init, rows, rowLen int, idx []int32, val []float32) *CSR {
	t := &CSR{Init: init, Rows: rows, RowLen: rowLen, RowPtr: make([]int32, rows+1), Idx: idx, Val: val}
	t.RebuildRowPtr()
	return t
}

// FillRow materializes one row of the virtual dense tensor into dst
// (len(dst) ≥ RowLen): tracked values verbatim, gaps regenerated from the
// init stream — byte for byte the row a dense tensor holding the same
// tracked values over its regenerated init would contain.
func (t *CSR) FillRow(dst []float32, r int) { t.FillRowRange(dst, r, 0, t.RowLen) }

// FillRowRange is FillRow for columns [lo, hi) of row r only, written to
// dst[:hi-lo]; each column regenerates the same value either way.
func (t *CSR) FillRowRange(dst []float32, r, lo, hi int) {
	init := t.Init
	base := r * t.RowLen
	dst = dst[:hi-lo]
	k, end := int(t.RowPtr[r]), int(t.RowPtr[r+1])
	for k < end && int(t.Idx[k]) < base+lo {
		k++
	}
	p := lo
	for ; k < end && int(t.Idx[k]) < base+hi; k++ {
		c := int(t.Idx[k]) - base
		for ; p < c; p++ {
			dst[p-lo] = init.Regenerate(base + p)
		}
		dst[c-lo] = t.Val[k]
		p = c + 1
	}
	for ; p < hi; p++ {
		dst[p-lo] = init.Regenerate(base + p)
	}
}

// Fill writes the whole virtual dense tensor into dst (Rows·RowLen values).
func (t *CSR) Fill(dst []float32) {
	for r := 0; r < t.Rows; r++ {
		t.FillRow(dst[r*t.RowLen:], r)
	}
}

// RebuildRowPtr re-derives RowPtr from Idx after the entries change.
func (t *CSR) RebuildRowPtr() {
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
