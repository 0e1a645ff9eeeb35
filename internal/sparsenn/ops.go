package sparsenn

import (
	"fmt"
	"math"

	"dropback/internal/core"
	"dropback/internal/nn"
	"dropback/internal/tensor"
)

// layerSpec is one compiled layer: immutable plan-owned weight state plus
// the recipe for building a per-executor mirror layer. The mirror tree
// implements nn.Layer so the existing containers (Sequential, Residual,
// DenseBlock) orchestrate it unchanged; only the weight-bearing leaves are
// replaced by sparse kernels.
type layerSpec interface {
	build(ex *Executor) nn.Layer
}

// Container and parameter-free specs reuse the nn layers directly: they hold
// no weights, and a fresh instance per executor gives each replica its own
// activation workspaces (the nn concurrency contract).

type seqSpec struct {
	name     string
	children []layerSpec
}

func (s *seqSpec) build(ex *Executor) nn.Layer {
	layers := make([]nn.Layer, len(s.children))
	for i, c := range s.children {
		layers[i] = c.build(ex)
	}
	return nn.NewSequential(s.name, layers...)
}

type resSpec struct {
	name           string
	body, shortcut layerSpec
}

func (s *resSpec) build(ex *Executor) nn.Layer {
	return nn.NewResidual(s.name, s.body.build(ex), s.shortcut.build(ex))
}

type denseBlockSpec struct {
	name        string
	inC, growth int
	units       []layerSpec
}

func (s *denseBlockSpec) build(ex *Executor) nn.Layer {
	units := make([]nn.Layer, len(s.units))
	for i, u := range s.units {
		units[i] = u.build(ex)
	}
	return nn.NewDenseBlock(s.name, s.inC, s.growth, units...)
}

type identitySpec struct{ name string }

func (s *identitySpec) build(ex *Executor) nn.Layer { return nn.NewIdentity(s.name) }

type flattenSpec struct{ name string }

func (s *flattenSpec) build(ex *Executor) nn.Layer { return nn.NewFlatten(s.name) }

type reluSpec struct{ name string }

func (s *reluSpec) build(ex *Executor) nn.Layer { return nn.NewReLU(s.name) }

type maxPoolSpec struct {
	name      string
	k, stride int
}

func (s *maxPoolSpec) build(ex *Executor) nn.Layer { return nn.NewMaxPool2D(s.name, s.k, s.stride) }

type avgPoolSpec struct {
	name      string
	k, stride int
}

func (s *avgPoolSpec) build(ex *Executor) nn.Layer { return nn.NewAvgPool2D(s.name, s.k, s.stride) }

type gapSpec struct{ name string }

func (s *gapSpec) build(ex *Executor) nn.Layer { return nn.NewGlobalAvgPool2D(s.name) }

// Weight-bearing specs build sparse leaf ops: one op instance per executor
// (owning that executor's scratch), all sharing the spec's plan-owned weight
// state. The training mirror builds the same Linear and Conv2D ops over a
// spec whose CSR view is the engine's and whose bias is the live parameter.

type linearSpec struct {
	name        string
	in, out     int
	w           *core.TrackedTensor
	bias        []float32 // nil when the layer has no bias
	biasTracked int
}

func (s *linearSpec) build(ex *Executor) nn.Layer {
	return &linearOp{spec: s, ws: tensor.NewWorkspace(), ex: ex}
}

type convSpec struct {
	name                           string
	inC, outC, kh, kw, stride, pad int
	w                              *core.TrackedTensor
	bias                           []float32
	biasTracked                    int
}

func (s *convSpec) build(ex *Executor) nn.Layer {
	return &convOp{spec: s, ws: tensor.NewWorkspace(), ex: ex}
}

type bnSpec struct {
	name                        string
	c                           int
	eps                         float32
	gamma, beta, mean, variance []float32
	tracked, elems              int
}

func (s *bnSpec) build(ex *Executor) nn.Layer {
	return &bnOp{spec: s, ws: tensor.NewWorkspace(), ex: ex}
}

type preluSpec struct {
	name           string
	a              float32
	tracked, elems int
}

func (s *preluSpec) build(ex *Executor) nn.Layer {
	return &preluOp{spec: s, ws: tensor.NewWorkspace(), ex: ex}
}

// inferenceOnlyPanic is the shared Backward stub of the sparse leaf ops
// built without a training engine.
func inferenceOnlyPanic(name string) {
	panic(fmt.Sprintf("sparsenn: %q is inference-only (no Backward)", name))
}

// linearOp is the sparse Linear layer: y = x Wᵀ + b with W in CSR +
// regeneration form. Inference executors and the training mirror build this
// one type; the mirror also sets the training fields Backward needs.
//
// Bit-identity argument: the dense path (tensor.MatMulTransB) computes each
// output element y[i][j] as an independent dot product Σ_p x[i][p]·W[j][p]
// accumulated in ascending p with no zero skip, then adds the bias row by
// row. This kernel materializes W row j into a per-chunk bounce buffer
// (tracked values + regenerated values — exactly the dense row) and runs the
// identical ascending-p accumulation, so every output element sees the same
// float32 operations in the same order. Partitioning output columns across
// workers instead of batch rows is safe because each element's dot product
// is self-contained.
type linearOp struct {
	spec *linearSpec
	ws   *tensor.Workspace
	ex   *Executor      // weight-traffic counters; nil in the training mirror
	x    *tensor.Tensor // last forward input, which Backward reuses

	// Training state, nil in inference-only mode.
	layer *nn.Linear
	eng   *core.TrackedTrainer
}

func (op *linearOp) Name() string { return op.spec.name }

func (op *linearOp) Params() []*nn.Param {
	if op.layer == nil {
		return nil
	}
	return op.layer.Params()
}

func (op *linearOp) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	s := op.spec
	if len(x.Shape) != 2 || x.Shape[1] != s.in {
		panic(fmt.Sprintf("sparsenn: linear %q expected (N,%d) input, got %v", s.name, s.in, x.Shape))
	}
	op.x = x
	n := x.Shape[0]
	y := op.ws.GetRaw("y", n, s.out)
	work := n * s.out * s.in
	chunks := tensor.ParallelChunkCount(s.out, work)
	wrows := op.ws.GetRaw("wrow", chunks, s.in)
	if chunks == 1 {
		// Calling the worker directly keeps the steady-state serving path
		// (small batches never fan out) free of closure allocations.
		op.rowRange(x, y, wrows.Data[:s.in], 0, s.out)
	} else {
		tensor.ParallelChunks(s.out, work, func(c, lo, hi int) {
			op.rowRange(x, y, wrows.Data[c*s.in:(c+1)*s.in], lo, hi)
		})
	}
	if s.bias != nil {
		for i := 0; i < n; i++ {
			row := y.Data[i*s.out : (i+1)*s.out]
			for j := range row {
				row[j] += s.bias[j]
			}
		}
		op.ex.countWeights(s.biasTracked, len(s.bias), 1)
	}
	// Output rows are partitioned across chunks, so each weight row is
	// materialized exactly once per forward regardless of worker count.
	op.ex.countWeights(len(s.w.Val), s.out*s.in, 1)
	return y
}

// rowRange computes output columns [lo, hi) for the whole batch, streaming
// each weight row through the caller-provided bounce buffer.
func (op *linearOp) rowRange(x, y *tensor.Tensor, wrow []float32, lo, hi int) {
	s := op.spec
	n := x.Shape[0]
	for j := lo; j < hi; j++ {
		s.w.FillRow(wrow, j)
		for i := 0; i < n; i++ {
			xrow := x.Data[i*s.in : (i+1)*s.in]
			var acc float32
			for p, xv := range xrow {
				acc += xv * wrow[p]
			}
			y.Data[i*s.out+j] = acc
		}
	}
}

// convOp is the sparse Conv2D layer: im2col lowering with the filter matrix
// in CSR + regeneration form. Inference executors and the training mirror
// build this one type; the mirror also sets the training fields Backward
// needs.
//
// Bit-identity argument: the dense path lowers each sample and runs
// tensor.MatMulSlice(y_i, W, cols_i) — a jb-tiled kernel where each output
// element accumulates from a cleared tile in ascending filter-column order,
// skipping zero weight values. This kernel materializes one filter row at a
// time into a per-chunk bounce buffer and runs tensor.MatMulRowSlice, which
// performs that row's exact operation sequence (same tiling, same clear,
// same ascending order, same zero skip on the same values). Hoisting the
// filter-row loop outside the sample loop reorders only whole output
// elements, never the operations within one, and the trailing bias adds per
// sample match the dense per-plane adds element for element.
type convOp struct {
	spec *convSpec
	ws   *tensor.Workspace
	ex   *Executor // weight-traffic counters; nil in the training mirror
	// Lowering and geometry of the last forward input, which Backward reuses.
	cols       *tensor.Tensor // (N, C·KH·KW, OH·OW) lowering slab
	inShape    []int
	outH, outW int

	// Training state, nil in inference-only mode.
	layer *nn.Conv2D
	eng   *core.TrackedTrainer
}

func (op *convOp) Name() string { return op.spec.name }

func (op *convOp) Params() []*nn.Param {
	if op.layer == nil {
		return nil
	}
	return op.layer.Params()
}

func (op *convOp) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	s := op.spec
	if len(x.Shape) != 4 || x.Shape[1] != s.inC {
		panic(fmt.Sprintf("sparsenn: conv %q expected (N,%d,H,W) input, got %v", s.name, s.inC, x.Shape))
	}
	n, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	op.inShape = append(op.inShape[:0], x.Shape...)
	op.outH = tensor.ConvOutSize(h, s.kh, s.stride, s.pad)
	op.outW = tensor.ConvOutSize(w, s.kw, s.stride, s.pad)
	g := op.geom()

	op.cols = op.ws.GetRaw("cols", n, g.colRows, g.spatial)
	y := op.ws.GetRaw("y", n, s.outC, op.outH, op.outW)
	work := n * g.perSample * g.colRows
	chunks := tensor.ParallelChunkCount(n, work)
	wrows := op.ws.GetRaw("wrow", chunks, g.colRows)
	if chunks == 1 {
		// Direct call: the steady-state serving path (small batches never fan
		// out) stays free of closure allocations.
		op.sampleRange(x, y, wrows.Data[:g.colRows], 0, n, g)
	} else {
		tensor.ParallelChunks(n, work, func(c, lo, hi int) {
			op.sampleRange(x, y, wrows.Data[c*g.colRows:(c+1)*g.colRows], lo, hi, g)
		})
	}
	// Each worker chunk regenerates the full filter matrix once, so measured
	// traffic scales with the chunk count (1 for small batches).
	op.ex.countWeights(len(s.w.Val), s.outC*g.colRows, chunks)
	if s.bias != nil {
		op.ex.countWeights(s.biasTracked, len(s.bias), 1)
	}
	return y
}

// convGeom carries the dimensions derived from the last forward input.
type convGeom struct {
	h, w, colRows, spatial, imgSize, perSample, colSize int
}

func (op *convOp) geom() convGeom {
	s := op.spec
	h, w := op.inShape[2], op.inShape[3]
	colRows := s.inC * s.kh * s.kw
	spatial := op.outH * op.outW
	return convGeom{h: h, w: w, colRows: colRows, spatial: spatial,
		imgSize: s.inC * h * w, perSample: s.outC * spatial, colSize: colRows * spatial}
}

// sampleRange lowers and convolves samples [lo, hi): im2col each sample,
// then bounce each filter row through wrow and multiply it against every
// lowered sample, then add the bias planes.
func (op *convOp) sampleRange(x, y *tensor.Tensor, wrow []float32, lo, hi int, g convGeom) {
	s := op.spec
	cols := op.cols
	for i := lo; i < hi; i++ {
		tensor.Im2ColSlice(cols.Data[i*g.colSize:(i+1)*g.colSize], x.Data[i*g.imgSize:(i+1)*g.imgSize],
			s.inC, g.h, g.w, s.kh, s.kw, s.stride, s.pad)
	}
	// Filter rows are materialized once per chunk and reused across the
	// chunk's samples, amortizing regeneration over the batch.
	for f := 0; f < s.outC; f++ {
		s.w.FillRow(wrow, f)
		for i := lo; i < hi; i++ {
			tensor.MatMulRowSlice(y.Data[i*g.perSample+f*g.spatial:i*g.perSample+(f+1)*g.spatial],
				wrow, cols.Data[i*g.colSize:(i+1)*g.colSize], g.colRows, g.spatial)
		}
	}
	for f := 0; f < len(s.bias); f++ {
		b := s.bias[f]
		for i := lo; i < hi; i++ {
			plane := y.Data[i*g.perSample+f*g.spatial : i*g.perSample+(f+1)*g.spatial]
			for j := range plane {
				plane[j] += b
			}
		}
	}
}

// bnOp applies inference-mode batch normalization using the plan's shared
// gamma/beta vectors and running statistics. The per-element expression is
// copied verbatim from nn.BatchNorm's inference branch, so outputs are
// bit-identical.
type bnOp struct {
	spec *bnSpec
	ws   *tensor.Workspace
	ex   *Executor
}

func (l *bnOp) Name() string { return l.spec.name }

func (l *bnOp) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	s := l.spec
	var groups, spatial int
	switch len(x.Shape) {
	case 2:
		groups, spatial = x.Shape[0], 1
	case 4:
		groups, spatial = x.Shape[0], x.Shape[2]*x.Shape[3]
	default:
		panic(fmt.Sprintf("sparsenn: batchnorm %q supports 2-D or 4-D input, got %v", s.name, x.Shape))
	}
	if x.Shape[1] != s.c {
		panic(fmt.Sprintf("sparsenn: batchnorm %q expected %d channels, got %v", s.name, s.c, x.Shape))
	}
	y := l.ws.GetRaw("y", x.Shape...)
	for c := 0; c < s.c; c++ {
		inv := float32(1 / math.Sqrt(float64(s.variance[c])+float64(s.eps)))
		mu := s.mean[c]
		gamma, beta := s.gamma[c], s.beta[c]
		for g := 0; g < groups; g++ {
			base := (g*s.c + c) * spatial
			for sp := 0; sp < spatial; sp++ {
				y.Data[base+sp] = gamma*(x.Data[base+sp]-mu)*inv + beta
			}
		}
	}
	l.ex.countWeights(s.tracked, s.elems, 1)
	return y
}

func (l *bnOp) Backward(dy *tensor.Tensor) *tensor.Tensor {
	inferenceOnlyPanic(l.spec.name)
	return nil
}

func (l *bnOp) Params() []*nn.Param { return nil }

// preluOp applies the parametric ReLU with the plan's shared slope,
// reproducing nn.PReLU's forward expression exactly (workspace output
// instead of a fresh allocation; the values are identical).
type preluOp struct {
	spec *preluSpec
	ws   *tensor.Workspace
	ex   *Executor
}

func (l *preluOp) Name() string { return l.spec.name }

func (l *preluOp) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	s := l.spec
	y := l.ws.GetRaw("y", x.Shape...)
	a := s.a
	for i, v := range x.Data {
		if v > 0 {
			y.Data[i] = v
		} else {
			y.Data[i] = a * v
		}
	}
	l.ex.countWeights(s.tracked, s.elems, 1)
	return y
}

func (l *preluOp) Backward(dy *tensor.Tensor) *tensor.Tensor {
	inferenceOnlyPanic(l.spec.name)
	return nil
}

func (l *preluOp) Params() []*nn.Param { return nil }
