package nn

import (
	"fmt"

	"dropback/internal/tensor"
	"dropback/internal/xorshift"
)

// Conv2D is a 2-D convolution over (N, C, H, W) activations with weight
// (F, C, KH, KW) and optional bias (F), implemented by im2col lowering so
// the inner kernel is the blocked matmul. Weights use He-scaled normal
// initialization (ReLU networks); biases start at zero.
//
// The layer runs as a batch-parallel, allocation-free pipeline: the batch is
// partitioned across GOMAXPROCS workers, each sample's im2col lowering,
// matmul, and gradient work writes only sample-disjoint regions of reusable
// workspace slabs, and the cross-sample dW/dB reduction happens sequentially
// in ascending sample order at the end of Backward — so results are
// bit-identical to a per-sample sequential implementation at any GOMAXPROCS.
//
// W may sit on either storage (see Param). The weight gradient reads no
// weights, so it is one loop. The forward multiply and the input gradient
// take one of two loop orders by storage: dense storage goes sample by
// sample through the tiled matmul kernels, and CSR storage regenerates
// each filter row once per worker and applies it to all of the worker's
// samples (see Backward). Both orders give every output element the same
// float operations.
type Conv2D struct {
	name        string
	InC, OutC   int
	KH, KW      int
	Stride, Pad int
	W           *Param
	B           *Param // nil when the layer has no bias
	ws          *tensor.Workspace
	cols        *tensor.Tensor // (N, C*KH*KW, OH*OW) im2col slab, reused across steps
	inShape     []int
	outH, outW  int
}

// NewConv2D builds a convolution layer; kernel is square (k×k).
func NewConv2D(name string, modelSeed uint64, inC, outC, k, stride, pad int) *Conv2D {
	return NewConv2DOver(name, inC, outC, k, stride, pad, convWeight(name, modelSeed, inC, outC, k),
		NewParam(name+"/b", modelSeed, xorshift.InitZero, 0, outC))
}

// NewConv2DNoBias builds a convolution without a bias term (the standard
// choice when a BatchNorm immediately follows).
func NewConv2DNoBias(name string, modelSeed uint64, inC, outC, k, stride, pad int) *Conv2D {
	return NewConv2DOver(name, inC, outC, k, stride, pad, convWeight(name, modelSeed, inC, outC, k), nil)
}

func convWeight(name string, modelSeed uint64, inC, outC, k int) *Param {
	return NewParam(name+"/W", modelSeed, xorshift.InitScaledNormal, xorshift.HeScale(inC*k*k), outC, inC, k, k)
}

// NewConv2DOver builds a k×k convolution over existing parameters: w holds
// the (OutC, InC, k, k) filters on either storage and b, nil for none, the
// OutC biases. Model.Replica uses it to share one copy of the weights
// between replicas, and variational-dropout layers to compute over the
// noisy weights they sample.
func NewConv2DOver(name string, inC, outC, k, stride, pad int, w, b *Param) *Conv2D {
	return &Conv2D{
		name: name, InC: inC, OutC: outC, KH: k, KW: k, Stride: stride, Pad: pad,
		W: w, B: b, ws: tensor.NewWorkspace(),
	}
}

// Name implements Layer.
func (l *Conv2D) Name() string { return l.name }

// convGeom carries the dimensions derived from the last forward input.
type convGeom struct {
	h, w, colRows, spatial, imgSize, perSample, colSize int
}

func (l *Conv2D) geom() convGeom {
	h, w := l.inShape[2], l.inShape[3]
	colRows := l.InC * l.KH * l.KW
	spatial := l.outH * l.outW
	return convGeom{h: h, w: w, colRows: colRows, spatial: spatial,
		imgSize: l.InC * h * w, perSample: l.OutC * spatial, colSize: colRows * spatial}
}

// Forward implements Layer.
func (l *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if len(x.Shape) != 4 || x.Shape[1] != l.InC {
		panic(fmt.Sprintf("nn: conv %q expected (N,%d,H,W) input, got %v", l.name, l.InC, x.Shape))
	}
	n, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	l.inShape = append(l.inShape[:0], x.Shape...)
	l.outH = tensor.ConvOutSize(h, l.KH, l.Stride, l.Pad)
	l.outW = tensor.ConvOutSize(w, l.KW, l.Stride, l.Pad)
	g := l.geom()

	// The im2col slab and the output are fully overwritten per sample
	// (padding written as explicit zeros, matmul rows cleared before
	// accumulation), so stale contents from the previous step are fine.
	l.cols = l.ws.GetRaw("cols", n, g.colRows, g.spatial)
	y := l.ws.GetRaw("y", n, l.OutC, l.outH, l.outW)
	work := n * g.perSample * g.colRows
	chunks := tensor.ParallelChunkCount(n, work)
	bufs := l.W.rowBufs(l.ws, chunks, g.colRows)
	if chunks == 1 {
		// A direct call keeps small batches free of closure allocations.
		l.forwardSamples(x, y, bufs, 0, n, g)
	} else {
		tensor.ParallelChunks(n, work, func(c, lo, hi int) {
			l.forwardSamples(x, y, chunkBuf(bufs, c, g.colRows), lo, hi, g)
		})
	}
	return y
}

// forwardSamples lowers and convolves samples [lo, hi): im2col each
// sample, multiply by the filter matrix, then add the bias planes. The
// multiply takes one of two loop orders by storage, as the input gradient
// does (see Backward): dense storage runs tensor.MatMulSlice per sample,
// whose tiling reuses each lowered panel across all filter rows; CSR
// storage regenerates each filter row once and runs it against every
// sample with tensor.MatMulRowSlice. That performs exactly the operations
// MatMulSlice performs for one row (same tiling, cleared start, ascending
// order and zero skip), so the two orders differ only in which whole
// output elements come first.
func (l *Conv2D) forwardSamples(x, y *tensor.Tensor, buf []float32, lo, hi int, g convGeom) {
	csr := l.W.CSR
	for i := lo; i < hi; i++ {
		tensor.Im2ColSlice(l.cols.Data[i*g.colSize:(i+1)*g.colSize], x.Data[i*g.imgSize:(i+1)*g.imgSize],
			l.InC, g.h, g.w, l.KH, l.KW, l.Stride, l.Pad)
		if csr == nil {
			tensor.MatMulSlice(y.Data[i*g.perSample:(i+1)*g.perSample], l.W.Value.Data,
				l.cols.Data[i*g.colSize:(i+1)*g.colSize], l.OutC, g.colRows, g.spatial)
		}
	}
	if csr != nil {
		for f := 0; f < l.OutC; f++ {
			csr.FillRow(buf, f)
			for i := lo; i < hi; i++ {
				tensor.MatMulRowSlice(y.Data[i*g.perSample+f*g.spatial:i*g.perSample+(f+1)*g.spatial],
					buf, l.cols.Data[i*g.colSize:(i+1)*g.colSize], g.colRows, g.spatial)
			}
		}
	}
	if l.B == nil {
		return
	}
	for f, b := range l.B.Value.Data {
		for i := lo; i < hi; i++ {
			plane := y.Data[i*g.perSample+f*g.spatial : i*g.perSample+(f+1)*g.spatial]
			for j := range plane {
				plane[j] += b
			}
		}
	}
}

// Backward implements Layer.
//
// The input gradient dcols = Wᵀ dy accumulates, per element, W[f][c]·dy[f][s]
// in ascending f from a cleared buffer, skipping W[f][c]==0. The storages
// want different loops for it. Dense storage runs tensor.MatMulTransASlice
// sample by sample, so a worker needs one dcols buffer and reads the
// resident filter matrix for each sample. A CSR row costs a regeneration,
// so CSR storage takes filter rows outermost: each row is filled once per
// worker and applied to all of the worker's samples, which then need a
// dcols buffer each. Both loops perform the same operations per element.
func (l *Conv2D) Backward(dy *tensor.Tensor) *tensor.Tensor {
	if l.cols == nil {
		panic(fmt.Sprintf("nn: conv %q Backward before Forward", l.name))
	}
	g := l.geom()
	n := l.inShape[0]
	wSize := l.OutC * g.colRows
	work := 2 * n * g.perSample * g.colRows

	// Per-sample dW/dB partials and the input-gradient slab are fully
	// overwritten (Col2ImSlice zeroes its region), so raw reuse is safe.
	// Under slab emission (ParamSet.BindSampleSlab) the partials go straight
	// to each sample's global slab row instead of a layer-private buffer —
	// the values are identical either way; only who performs the ascending
	// reduction changes (the trainer's ReduceGradSlab instead of the loop at
	// the bottom of this function). A frozen CSR weight skips the dense
	// partials: its tracked gradients are folded after the parallel pass.
	slabMode := l.W.SlabBound()
	tracked := l.W.trackedGrad()
	dx := l.ws.GetRaw("dx", l.inShape...)
	var dwPart, dbPart *tensor.Tensor
	if !slabMode {
		if !tracked {
			dwPart = l.ws.GetRaw("dwpart", n, wSize)
		}
		if l.B != nil {
			dbPart = l.ws.GetRaw("dbpart", n, l.OutC)
		}
	}
	// Chunk-local scratch never influences the reduction order, so the
	// chunk count (which varies with GOMAXPROCS) cannot change results.
	chunks := tensor.ParallelChunkCount(n, work)
	dense := l.W.CSR == nil
	var dcols *tensor.Tensor
	if dense {
		dcols = l.ws.GetRaw("dcols", chunks, g.colSize)
	} else {
		dcols = l.ws.GetRaw("dcols", n, g.colSize)
	}
	bufs := l.W.rowBufs(l.ws, chunks, g.colRows)
	tensor.ParallelChunks(n, work, func(c, lo, hi int) {
		for i := lo; i < hi; i++ {
			dyI := dy.Data[i*g.perSample : (i+1)*g.perSample]
			colsI := l.cols.Data[i*g.colSize : (i+1)*g.colSize]
			// dW_i = dy_i @ cols_iᵀ, into this sample's private partial (its
			// global slab row under slab emission).
			switch {
			case slabMode:
				tensor.MatMulTransBSlice(l.W.SampleGrad(i), dyI, colsI, l.OutC, g.spatial, g.colRows)
			case !tracked:
				tensor.MatMulTransBSlice(dwPart.Data[i*wSize:(i+1)*wSize], dyI, colsI, l.OutC, g.spatial, g.colRows)
			}
			if l.B != nil {
				var db []float32
				if slabMode {
					db = l.B.SampleGrad(i)
				} else {
					db = dbPart.Data[i*l.OutC : (i+1)*l.OutC]
				}
				for f := 0; f < l.OutC; f++ {
					var s float64
					for _, v := range dyI[f*g.spatial : (f+1)*g.spatial] {
						s += float64(v)
					}
					db[f] = float32(s)
				}
			}
			if dense {
				dc := dcols.Data[c*g.colSize : (c+1)*g.colSize]
				tensor.MatMulTransASlice(dc, l.W.Value.Data, dyI, l.OutC, g.colRows, g.spatial)
				tensor.Col2ImSlice(dx.Data[i*g.imgSize:(i+1)*g.imgSize], dc,
					l.InC, g.h, g.w, l.KH, l.KW, l.Stride, l.Pad)
			}
		}
		if !dense {
			l.inputGradRows(dy, dx, dcols, chunkBuf(bufs, c, g.colRows), lo, hi, g)
		}
	})
	if tracked {
		l.trackedWeightGrad(dy, g)
	}
	if slabMode {
		return dx
	}
	// Deterministic reduction: accumulate the per-sample partials into the
	// shared gradients in ascending sample order, exactly as the sequential
	// reference does.
	for i := 0; i < n; i++ {
		if dwPart != nil {
			dW := l.W.Grad.Data
			for j, v := range dwPart.Data[i*wSize : (i+1)*wSize] {
				dW[j] += v
			}
		}
		if dbPart != nil {
			for f := 0; f < l.OutC; f++ {
				l.B.Grad.Data[f] += dbPart.Data[i*l.OutC+f]
			}
		}
	}
	return dx
}

// inputGradRows is the CSR storage's input gradient for samples [lo, hi):
// clear their dcols, accumulate filter row by filter row, then scatter each
// sample back to its image.
func (l *Conv2D) inputGradRows(dy, dx, dcols *tensor.Tensor, buf []float32, lo, hi int, g convGeom) {
	clear(dcols.Data[lo*g.colSize : hi*g.colSize])
	for f := 0; f < l.OutC; f++ {
		l.W.CSR.FillRow(buf, f)
		for i := lo; i < hi; i++ {
			dyRow := dy.Data[i*g.perSample+f*g.spatial : i*g.perSample+(f+1)*g.spatial]
			dcI := dcols.Data[i*g.colSize : (i+1)*g.colSize]
			for c, wv := range buf[:g.colRows] {
				if wv == 0 {
					continue
				}
				dcRow := dcI[c*g.spatial : (c+1)*g.spatial][:len(dyRow)]
				for j, v := range dyRow {
					dcRow[j] += wv * v
				}
			}
		}
	}
	for i := lo; i < hi; i++ {
		tensor.Col2ImSlice(dx.Data[i*g.imgSize:(i+1)*g.imgSize], dcols.Data[i*g.colSize:(i+1)*g.colSize],
			l.InC, g.h, g.w, l.KH, l.KW, l.Stride, l.Pad)
	}
}

// trackedWeightGrad writes a frozen CSR weight's gradient at its tracked
// entries only: each tracked (f,c) folds the per-sample dots (the dense
// MatMulTransBSlice elements, no zero skip) in ascending sample order from
// zero — the value the dense reduction would land in W.Grad.
func (l *Conv2D) trackedWeightGrad(dy *tensor.Tensor, g convGeom) {
	t := l.W.CSR
	n := l.inShape[0]
	for k, fi := range t.Idx {
		f, c := int(fi)/g.colRows, int(fi)%g.colRows
		var acc float32
		for i := 0; i < n; i++ {
			dyRow := dy.Data[i*g.perSample+f*g.spatial : i*g.perSample+(f+1)*g.spatial]
			colRow := l.cols.Data[i*g.colSize+c*g.spatial : i*g.colSize+(c+1)*g.spatial]
			var dot float32
			for j, v := range dyRow {
				dot += v * colRow[j]
			}
			acc += dot
		}
		t.TGrad[k] = acc
	}
}

// Params implements Layer.
func (l *Conv2D) Params() []*Param {
	if l.B != nil {
		return []*Param{l.W, l.B}
	}
	return []*Param{l.W}
}
