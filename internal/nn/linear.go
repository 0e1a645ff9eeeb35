package nn

import (
	"fmt"

	"dropback/internal/tensor"
	"dropback/internal/xorshift"
)

// Linear is a fully connected layer computing y = x Wᵀ + b for x of shape
// (N, In), with W stored (Out, In) and b of length Out. Weights use the
// LeCun scaled-normal initialization the paper trains with; biases start at
// zero (and are regenerated to zero when untracked).
//
// W may sit on either storage (see Param). Forward and the input gradient
// walk W one row at a time — a slice of Value, or a CSR row regenerated
// into a per-worker buffer — so one kernel serves both storages, and
// each output element sees the same float operations in the same order
// whichever storage holds the weights.
type Linear struct {
	name string
	In   int
	Out  int
	W    *Param
	B    *Param         // nil when the layer has no bias
	x    *tensor.Tensor // cached forward input
	ws   *tensor.Workspace
}

// NewLinear builds a fully connected layer named name with the given fan-in
// and fan-out, seeded from the model seed.
func NewLinear(name string, modelSeed uint64, in, out int) *Linear {
	return NewLinearOver(name, in, out,
		NewParam(name+"/W", modelSeed, xorshift.InitScaledNormal, xorshift.LeCunScale(in), out, in),
		NewParam(name+"/b", modelSeed, xorshift.InitZero, 0, out))
}

// NewLinearNoBias builds a fully connected layer without a bias term.
func NewLinearNoBias(name string, modelSeed uint64, in, out int) *Linear {
	return NewLinearOver(name, in, out,
		NewParam(name+"/W", modelSeed, xorshift.InitScaledNormal, xorshift.LeCunScale(in), out, in), nil)
}

// NewLinearOver builds a fully connected layer over existing parameters: w
// holds (Out, In) weights on either storage and b, nil for none, the Out
// biases. Model.Replica uses it to share one copy of the weights
// between replicas, and variational-dropout layers to compute over the
// noisy weights they sample.
func NewLinearOver(name string, in, out int, w, b *Param) *Linear {
	return &Linear{name: name, In: in, Out: out, W: w, B: b, ws: tensor.NewWorkspace()}
}

// Name implements Layer.
func (l *Linear) Name() string { return l.name }

// Forward implements Layer. The output is workspace-owned, valid until the
// next Forward.
func (l *Linear) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if len(x.Shape) != 2 || x.Shape[1] != l.In {
		panic(fmt.Sprintf("nn: linear %q expected (N,%d) input, got %v", l.name, l.In, x.Shape))
	}
	l.x = x
	n := x.Shape[0]
	y := l.ws.GetRaw("y", n, l.Out)
	// Output columns (weight rows) are split across workers, so each
	// weight row is read — or regenerated — once per forward.
	work := n * l.Out * l.In
	chunks := tensor.ParallelChunkCount(l.Out, work)
	bufs := l.W.rowBufs(l.ws, chunks, l.In)
	if chunks == 1 {
		// A direct call keeps small batches free of closure allocations.
		l.forwardRows(x, y, bufs, 0, l.Out)
	} else {
		tensor.ParallelChunks(l.Out, work, func(c, lo, hi int) {
			l.forwardRows(x, y, chunkBuf(bufs, c, l.In), lo, hi)
		})
	}
	if l.B != nil {
		tensor.AddRowVector(y, l.B.Value)
	}
	return y
}

// forwardRows computes output columns [lo, hi) for the whole batch: each
// y[i][j] is the ascending-p dot product Σ x[i][p]·W[j][p] from a zero
// accumulator, with no zero skip.
func (l *Linear) forwardRows(x, y *tensor.Tensor, buf []float32, lo, hi int) {
	// Locals, not fields, in the loops: the compiler would reload fields
	// after every store to y.
	n, in, out, xd, yd := x.Shape[0], l.In, l.Out, x.Data, y.Data
	for j := lo; j < hi; j++ {
		wrow := l.W.row(buf, j, in, 0, in)
		for i := 0; i < n; i++ {
			xrow := xd[i*in : (i+1)*in]
			wrow := wrow[:len(xrow)] // drops the bounds check below
			var acc float32
			for p, xv := range xrow {
				acc += xv * wrow[p]
			}
			yd[i*out+j] = acc
		}
	}
}

// Backward implements Layer.
func (l *Linear) Backward(dy *tensor.Tensor) *tensor.Tensor {
	if l.x == nil {
		panic(fmt.Sprintf("nn: linear %q Backward before Forward", l.name))
	}
	n := dy.Shape[0]
	switch {
	case l.W.SlabBound():
		// Per-sample slab emission (ParamSet.BindSampleSlab): sample s's
		// weight partial dW_s = dy_sᵀ x_s lands in its own slab row,
		// computed by the same k=1 kernel a batch-1 backward runs — so the
		// trainer's ascending-sample reduction replays the full-batch
		// MatMulTransAInto accumulation (ascending k from a cleared buffer) bit
		// for bit. Each bias row is sample s's dy row folded into a zeroed
		// accumulator (0 + v, not a copy: dy can carry −0.0, which the
		// sequential accumulate-from-cleared-buffer path normalizes to
		// +0.0 — the explicit add keeps the slab byte-equal to a per-sample
		// loop). Samples own disjoint rows, so emission fans out across
		// goroutines freely.
		tensor.ParallelChunks(n, n*l.Out*l.In, func(_, lo, hi int) {
			for s := lo; s < hi; s++ {
				dyRow := dy.Data[s*l.Out : (s+1)*l.Out]
				tensor.MatMulTransASlice(l.W.SampleGrad(s), dyRow,
					l.x.Data[s*l.In:(s+1)*l.In], 1, l.Out, l.In)
				if l.B != nil {
					bg := l.B.SampleGrad(s)
					for j, v := range dyRow {
						bg[j] = 0 + v
					}
				}
			}
		})
		return l.inputGrad(dy)
	case l.W.trackedGrad():
		// Frozen CSR weight: only the tracked entries have a gradient. Each
		// tracked (r,c) replays the dense MatMulTransAInto element alone — an
		// ascending-sample fold from zero that skips dy[p][r]==0 — which is
		// the value the dense path would add to a zeroed W.Grad.
		t := l.W.CSR
		for k, fi := range t.Idx {
			r, c := int(fi)/l.In, int(fi)%l.In
			var acc float32
			for p := 0; p < n; p++ {
				av := dy.Data[p*l.Out+r]
				if av == 0 {
					continue
				}
				acc += av * l.x.Data[p*l.In+c]
			}
			t.TGrad[k] = acc
		}
	default:
		// dW = dyᵀ @ x into a reusable scratch, then accumulate — no fresh
		// gradient tensor per step. It reads no weights, so it serves
		// both storages.
		dW := l.ws.GetRaw("dw", l.Out, l.In)
		tensor.MatMulTransAInto(dW, dy, l.x)
		tensor.AddInPlace(l.W.Grad, dW)
	}
	if l.B != nil {
		for i := 0; i < n; i++ {
			row := dy.Data[i*l.Out : (i+1)*l.Out]
			for j, v := range row {
				l.B.Grad.Data[j] += v
			}
		}
	}
	return l.inputGrad(dy)
}

// inputGrad computes dx = dy @ W with one kernel and a split that depends
// on the storage. Dense storage splits samples, so each worker's rows of dx
// are contiguous. CSR storage splits input columns in whole cache lines
// instead, so each worker regenerates only its columns of each weight row
// and every weight is regenerated once per pass.
func (l *Linear) inputGrad(dy *tensor.Tensor) *tensor.Tensor {
	n := dy.Shape[0]
	dx := l.ws.GetRaw("dx", n, l.In)
	work := n * l.Out * l.In
	const line = 16 // float32s per 64-byte cache line
	lines := (l.In + line - 1) / line
	switch {
	case l.W.CSR == nil && tensor.ParallelChunkCount(n, work) > 1:
		tensor.ParallelChunks(n, work, func(_, lo, hi int) {
			l.inputGradBlock(dy, dx, nil, lo, hi, 0, l.In)
		})
	case l.W.CSR != nil && tensor.ParallelChunkCount(lines, work) > 1:
		bufs := l.W.rowBufs(l.ws, tensor.ParallelChunkCount(lines, work), l.In)
		tensor.ParallelChunks(lines, work, func(c, lo, hi int) {
			l.inputGradBlock(dy, dx, chunkBuf(bufs, c, l.In), 0, n, lo*line, min(hi*line, l.In))
		})
	default:
		// A direct call keeps small batches free of closure allocations.
		l.inputGradBlock(dy, dx, l.W.rowBufs(l.ws, 1, l.In), 0, n, 0, l.In)
	}
	return dx
}

// inputGradBlock computes dx rows [i0, i1) × columns [j0, j1) weight row by
// weight row: each dx[i][j] accumulates dy[i][p]·W[p][j] in ascending p
// from a cleared buffer, skipping dy[i][p]==0 — the MatMulInto sequence
// per element, with the loop over p outermost so each weight row is
// fetched once per block.
func (l *Linear) inputGradBlock(dy, dx *tensor.Tensor, buf []float32, i0, i1, j0, j1 int) {
	in, out, dyd, dxd := l.In, l.Out, dy.Data, dx.Data
	for i := i0; i < i1; i++ {
		clear(dxd[i*in+j0 : i*in+j1])
	}
	for p := 0; p < out; p++ {
		wrow := l.W.row(buf, p, in, j0, j1)
		for i := i0; i < i1; i++ {
			av := dyd[i*out+p]
			if av == 0 {
				continue
			}
			row := dxd[i*in+j0 : i*in+j1][:len(wrow)] // drops the bounds check below
			for j, wv := range wrow {
				row[j] += av * wv
			}
		}
	}
}

// Params implements Layer.
func (l *Linear) Params() []*Param {
	if l.B != nil {
		return []*Param{l.W, l.B}
	}
	return []*Param{l.W}
}
