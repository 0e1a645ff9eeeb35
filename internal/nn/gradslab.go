package nn

import (
	"fmt"

	"dropback/internal/tensor"
)

// GradBinding redirects a ParamSet's gradient buffers into caller-owned flat
// slabs. The data-parallel trainer gives every sample of a minibatch its own
// slab row of ParamSet.Total() scalars: a worker binds its replica's
// gradients to the current sample's row, runs backward (which accumulates
// into the row), and the trainer later reduces the rows in ascending sample
// order. Bind re-slices a fixed set of view tensors, so rebinding per sample
// allocates nothing.
//
// A binding belongs to one ParamSet (one model replica) and is
// single-goroutine, like the model itself.
type GradBinding struct {
	set   *ParamSet
	orig  []*tensor.Tensor
	views []*tensor.Tensor
}

// NewGradBinding prepares a binding for the set, remembering the original
// gradient tensors so Unbind can restore them.
func NewGradBinding(set *ParamSet) *GradBinding {
	b := &GradBinding{set: set}
	for _, p := range set.Params() {
		b.orig = append(b.orig, p.Grad)
		shape := append([]int(nil), p.Grad.Shape...)
		b.views = append(b.views, &tensor.Tensor{Shape: shape})
	}
	return b
}

// Bind points every parameter's Grad at its segment of buf, which must hold
// exactly ParamSet.Total() scalars laid out in global index order. The
// buffer contents are left untouched — clear the row first when the backward
// pass should accumulate from zero.
func (b *GradBinding) Bind(buf []float32) {
	if len(buf) != b.set.Total() {
		panic(fmt.Sprintf("nn: grad slab row has %d scalars, parameter set has %d", len(buf), b.set.Total()))
	}
	for i, p := range b.set.Params() {
		off := b.set.Offset(i)
		v := b.views[i]
		v.Data = buf[off : off+p.Len()]
		p.Grad = v
	}
}

// Unbind restores the original gradient tensors captured at construction.
func (b *GradBinding) Unbind() {
	for i, p := range b.set.Params() {
		p.Grad = b.orig[i]
	}
}

// BindSampleSlab arms per-sample slab emission on every parameter of the
// set: until UnbindSampleSlab, each slab-aware layer's Backward writes
// sample s's parameter-gradient partial into row base+s of slab (rows of
// ParamSet.Total() scalars in global index order — the same layout
// GradBinding and ReduceGradSlab use) instead of accumulating into
// Param.Grad.
//
// This is the batched-shard counterpart of GradBinding's per-sample
// rebinding: a shard worker binds once with its first global sample index
// as base, runs ONE batched forward/backward over its contiguous
// sub-batch, and every parameter layer scatters per-sample partials to the
// right global rows. Emission fully overwrites each (sample, parameter)
// segment, so rows need not be cleared beforehand; the trainer's ascending
// ReduceGradSlab then replays the sequential accumulation exactly (see
// DESIGN.md §8).
//
// Every parameter-carrying layer certified by CheckShardable (Linear,
// Conv2D) implements emission; arming a set containing a parameter whose
// layer does not would silently leave stale slab rows, which is why
// CheckShardable's whitelist is also the slab-emission contract.
func (ps *ParamSet) BindSampleSlab(slab []float32, base int) {
	if ps.total == 0 {
		return
	}
	if len(slab)%ps.total != 0 {
		panic(fmt.Sprintf("nn: sample slab holds %d scalars, not a multiple of the %d-scalar row", len(slab), ps.total))
	}
	if base < 0 || base*ps.total > len(slab) {
		panic(fmt.Sprintf("nn: sample slab base row %d outside the %d-row slab", base, len(slab)/ps.total))
	}
	rows := slab[base*ps.total:]
	for i, p := range ps.params {
		p.slabRows = rows
		p.slabStride = ps.total
		p.slabOff = ps.offsets[i]
	}
}

// UnbindSampleSlab disarms per-sample slab emission, returning every layer
// to ordinary in-place gradient accumulation.
func (ps *ParamSet) UnbindSampleSlab() {
	for _, p := range ps.params {
		p.slabRows = nil
	}
}

// ReduceGradSlab folds per-sample gradient rows into the set's gradient
// buffers: grad[j] += slab[s*P+j] for s = 0…rows−1, strictly ascending per
// element. The element range is fanned out across ParallelChunks workers,
// which cannot perturb the result because every element's accumulation
// order is fixed regardless of how elements are grouped. Call ZeroGrads
// first to reproduce the sequential path's zero-then-accumulate sequence.
func (ps *ParamSet) ReduceGradSlab(slab []float32, rows int) {
	total := ps.Total()
	if len(slab) < rows*total {
		panic(fmt.Sprintf("nn: grad slab holds %d scalars, need %d rows × %d", len(slab), rows, total))
	}
	for i, p := range ps.params {
		off := ps.offsets[i]
		g := p.Grad.Data
		n := len(g)
		tensor.ParallelChunks(n, n*rows, func(_, lo, hi int) {
			for s := 0; s < rows; s++ {
				row := slab[s*total+off : s*total+off+n]
				for j := lo; j < hi; j++ {
					g[j] += row[j]
				}
			}
		})
	}
}

// CheckShardable reports whether every layer reachable from root is safe
// for shard-parallel training: a layer qualifies only if its forward pass
// treats batch rows independently and its backward pass accumulates
// parameter gradients as a per-sample sum in ascending sample order (so
// per-sample partials reduce bit-identically to the full-batch pass), and —
// for parameter-carrying layers — it implements per-sample slab emission
// (BindSampleSlab) so a batched sub-batch pass can scatter partials to
// global slab rows. The check is a conservative whitelist — an unknown
// layer type is rejected rather than assumed safe.
//
// Known-unsafe layers: BatchNorm computes training-mode statistics over the
// whole batch, so its per-sample outputs are not row-independent; PReLU
// accumulates its slope gradient in one float64 across all batch elements,
// rounding to float32 once per batch instead of once per sample.
func CheckShardable(root Layer) error {
	var err error
	Walk(root, func(l Layer) {
		if err != nil {
			return
		}
		switch l.(type) {
		case *Sequential, *Residual, *DenseBlock, *Identity, *Flatten,
			*Linear, *Conv2D, *ReLU, *Dropout,
			*MaxPool2D, *AvgPool2D, *GlobalAvgPool2D:
		case *BatchNorm:
			err = fmt.Errorf("nn: layer %q: BatchNorm training-mode statistics couple all batch samples; shard-parallel training would change results", l.Name())
		case *PReLU:
			err = fmt.Errorf("nn: layer %q: PReLU accumulates its slope gradient in float64 across the whole batch; shard-parallel training would change rounding", l.Name())
		default:
			err = fmt.Errorf("nn: layer %q (%T) is not certified for shard-parallel training", l.Name(), l)
		}
	})
	return err
}

// AdvanceDropoutSamples adds n to the sample count of every Dropout layer
// under root (see Dropout.AdvanceSamples). The shard executor uses it to
// start each worker at its shard's first global sample and to leave the
// primary's count where a full-batch pass would.
func AdvanceDropoutSamples(root Layer, n int) {
	Walk(root, func(l Layer) {
		if d, ok := l.(*Dropout); ok {
			d.AdvanceSamples(n)
		}
	})
}
