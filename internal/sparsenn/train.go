// Sparse-native training: the mirror tree built by NewTrainingMirror runs
// forward AND backward passes straight off the engine's CSR weight state
// (the same core.TrackedTensor form a compiled Plan serves from),
// regenerating untracked weights inside the kernel loops per minibatch. The
// model's dense weight tensors are never read during a training step — they
// are refreshed only at epoch boundaries via DropBack.Densify for
// evaluation and checkpointing.
//
// Correctness contract (the training half of the package contract): every
// activation, gradient, and parameter update is bit-identical to the dense
// trainer's. Forward is the inference kernel itself — the mirror builds the
// same linearOp/convOp a Plan does — so the ops.go bit-identity argument
// covers it, ParallelChunks fan-out included (each output element's dot
// product is computed whole by one worker). The backward kernels replay the
// dense gradient kernels' per-element operation sequences — same
// accumulation order, same cleared accumulators, same zero skips on the same
// values — with weight rows materialized through TrackedTensor.FillRow
// instead of read from DRAM:
//
//   - Linear dX (dense tensor.MatMulInto(dy, W)): each element dx[i][j]
//     accumulates dy[i][p]·W[p][j] in ascending p from a cleared buffer,
//     skipping dy[i][p]==0. Hoisting p outward so each weight row is
//     materialized once reorders whole elements, never the operations
//     within one.
//   - Linear dW pre-freeze needs no weights at all, so the mirror calls the
//     exact dense kernels (MatMulTransAInto + AddInPlace). Post-freeze each
//     tracked element (r,c) folds dy[p][r]·x[p][c] in ascending p from zero,
//     skipping dy[p][r]==0 — the dense MatMulTransA element replayed alone.
//   - Conv dW is a per-sample MatMulTransBSlice (independent ascending dot
//     per element, no skip) reduced in ascending sample order; the tracked
//     replay folds those per-sample dots in the same order. dB always runs
//     the dense float64-sum code (biases stay dense).
//   - Conv dX (dense MatMulTransASlice) accumulates W[f][c]·dy[f][s] in
//     ascending f from a cleared buffer, skipping W[f][c]==0; the replay
//     hoists f outward and skips on the regenerated row's identical bits.
package sparsenn

import (
	"fmt"

	"dropback/internal/core"
	"dropback/internal/nn"
	"dropback/internal/tensor"
)

// NewTrainingMirror builds a training-mode mirror of m.Net over the tracked
// engine: Linear and Conv2D layers are virtualized into CSR form and
// replaced by the sparse Linear/Conv2D ops a Plan also runs, containers are
// rebuilt around them, and every other layer (activations, pooling, batch
// norm, dropout — anything whose parameters the engine keeps dense) is
// shared with the original tree so its internal state (BN statistics,
// dropout RNG) advances exactly as in a dense run. The mirror and m.Net must not run concurrently; the trainer
// uses the mirror for steps and the densified m.Net for evaluation.
func NewTrainingMirror(m *nn.Model, eng *core.DropBack) (nn.Layer, error) {
	return mirrorLayer(m.Net, eng)
}

func mirrorLayer(l nn.Layer, eng *core.DropBack) (nn.Layer, error) {
	switch t := l.(type) {
	case *nn.Sequential:
		children := make([]nn.Layer, 0, len(t.Layers()))
		for _, c := range t.Layers() {
			mc, err := mirrorLayer(c, eng)
			if err != nil {
				return nil, err
			}
			children = append(children, mc)
		}
		return nn.NewSequential(t.Name(), children...), nil
	case *nn.Residual:
		body, err := mirrorLayer(t.Body, eng)
		if err != nil {
			return nil, err
		}
		shortcut, err := mirrorLayer(t.Shortcut, eng)
		if err != nil {
			return nil, err
		}
		return nn.NewResidual(t.Name(), body, shortcut), nil
	case *nn.DenseBlock:
		units := make([]nn.Layer, 0, len(t.Units))
		for _, u := range t.Units {
			mu, err := mirrorLayer(u, eng)
			if err != nil {
				return nil, err
			}
			units = append(units, mu)
		}
		return nn.NewDenseBlock(t.Name(), t.InC, t.Growth, units...), nil
	case *nn.Linear:
		w, err := eng.Virtualize(t.W, t.Out)
		if err != nil {
			return nil, err
		}
		s := &linearSpec{name: t.Name(), in: t.In, out: t.Out, w: w}
		if t.B != nil {
			s.bias = t.B.Value.Data
		}
		return &linearOp{spec: s, ws: tensor.NewWorkspace(), layer: t, eng: eng}, nil
	case *nn.Conv2D:
		w, err := eng.Virtualize(t.W, t.OutC)
		if err != nil {
			return nil, err
		}
		s := &convSpec{
			name: t.Name(), inC: t.InC, outC: t.OutC,
			kh: t.KH, kw: t.KW, stride: t.Stride, pad: t.Pad, w: w,
		}
		if t.B != nil {
			s.bias = t.B.Value.Data
		}
		return &convOp{spec: s, ws: tensor.NewWorkspace(), layer: t, eng: eng}, nil
	default:
		// Parameter-free layers and small-parameter layers (BatchNorm,
		// PReLU, variational wrappers) stay dense: the engine updates their
		// parameters in place, and sharing the instance keeps stateful
		// layers (BN statistics, dropout RNG) in lockstep with a dense run.
		return l, nil
	}
}

// TrainStep is the sparse counterpart of nn.Model.Step: one forward/backward
// pass through the mirror tree, gradients left in the parameter Grad buffers
// (dense for small tensors and pre-freeze big tensors, TGrad for frozen big
// tensors). Loss and accuracy come from the model's own loss head so the
// numbers are bit-identical to the dense step.
func TrainStep(m *nn.Model, mirror nn.Layer, x *tensor.Tensor, labels []int) (loss, acc float64) {
	m.Set.ZeroGrads()
	logits := mirror.Forward(x, true)
	loss, acc = m.Loss.Forward(logits, labels)
	mirror.Backward(m.Loss.Backward())
	return loss, acc
}

// Backward is the training-mode sparse Linear backward pass; it panics in
// inference-only mode.
func (op *linearOp) Backward(dy *tensor.Tensor) *tensor.Tensor {
	if op.eng == nil {
		inferenceOnlyPanic(op.spec.name)
	}
	l := op.layer
	if op.x == nil {
		panic(fmt.Sprintf("sparsenn: linear %q Backward before Forward", l.Name()))
	}
	n := dy.Shape[0]
	if op.eng.Frozen() {
		// Tracked-set-only dW: replay the dense MatMulTransA element for
		// each tracked (r,c) — ascending-sample fold from zero, skipping
		// dy[p][r]==0 — exactly the value AddInPlace would land in W.Grad.
		t := op.spec.w
		for k, fi := range t.Idx {
			r := int(fi) / l.In
			c := int(fi) % l.In
			var acc float32
			for p := 0; p < n; p++ {
				av := dy.Data[p*l.Out+r]
				if av == 0 {
					continue
				}
				acc += av * op.x.Data[p*l.In+c]
			}
			t.TGrad[k] = acc
		}
	} else {
		// Pre-freeze every weight is a candidate: dense gradients via the
		// exact dense kernels (dW = dyᵀ x needs no weight values).
		dW := op.ws.GetRaw("dw", l.Out, l.In)
		tensor.MatMulTransAInto(dW, dy, op.x)
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
	// dx = dy @ W with regenerated rows: clear, then ascending-p
	// accumulation skipping dy==0 — the dense MatMulInto sequence with the
	// weight-row loop hoisted outward.
	dx := op.ws.GetRaw("dx", n, l.In)
	for i := range dx.Data {
		dx.Data[i] = 0
	}
	wrow := op.ws.GetRaw("wrow", l.In).Data
	for p := 0; p < l.Out; p++ {
		op.spec.w.FillRow(wrow, p)
		for i := 0; i < n; i++ {
			av := dy.Data[i*l.Out+p]
			if av == 0 {
				continue
			}
			row := dx.Data[i*l.In : (i+1)*l.In]
			for j, wv := range wrow {
				row[j] += av * wv
			}
		}
	}
	return dx
}

// Backward is the training-mode sparse Conv2D backward pass; it panics in
// inference-only mode.
func (op *convOp) Backward(dy *tensor.Tensor) *tensor.Tensor {
	if op.eng == nil {
		inferenceOnlyPanic(op.spec.name)
	}
	l := op.layer
	if op.cols == nil {
		panic(fmt.Sprintf("sparsenn: conv %q Backward before Forward", l.Name()))
	}
	g := op.geom()
	n := op.inShape[0]
	colRows, spatial, perSample, colSize := g.colRows, g.spatial, g.perSample, g.colSize
	wSize := l.OutC * colRows

	if op.eng.Frozen() {
		// Tracked-set-only dW: each tracked (f,c) folds the per-sample
		// independent dots (dense MatMulTransBSlice elements) in ascending
		// sample order from zero — the value the dense reduction loop would
		// land in W.Grad.
		t := op.spec.w
		for k, fi := range t.Idx {
			f := int(fi) / colRows
			c := int(fi) % colRows
			var acc float32
			for i := 0; i < n; i++ {
				dyRow := dy.Data[i*perSample+f*spatial : i*perSample+(f+1)*spatial]
				colRow := op.cols.Data[i*colSize+c*spatial : i*colSize+(c+1)*spatial]
				var dot float32
				for j, v := range dyRow {
					dot += v * colRow[j]
				}
				acc += dot
			}
			t.TGrad[k] = acc
		}
	} else {
		// Pre-freeze dense dW: the exact per-sample kernel plus the dense
		// ascending-sample reduction (weights are not read).
		dwPart := op.ws.GetRaw("dwpart", n, wSize)
		for i := 0; i < n; i++ {
			tensor.MatMulTransBSlice(dwPart.Data[i*wSize:(i+1)*wSize],
				dy.Data[i*perSample:(i+1)*perSample], op.cols.Data[i*colSize:(i+1)*colSize],
				l.OutC, spatial, colRows)
		}
		dW := l.W.Grad.Data
		for i := 0; i < n; i++ {
			part := dwPart.Data[i*wSize : (i+1)*wSize]
			for j := range part {
				dW[j] += part[j]
			}
		}
	}
	if l.B != nil {
		// Biases stay dense in both modes: per-sample float64 plane sums
		// accumulated in ascending sample order, the dense dB code verbatim.
		for i := 0; i < n; i++ {
			dyI := dy.Data[i*perSample : (i+1)*perSample]
			for f := 0; f < l.OutC; f++ {
				var sum float64
				row := dyI[f*spatial : (f+1)*spatial]
				for _, v := range row {
					sum += float64(v)
				}
				l.B.Grad.Data[f] += float32(sum)
			}
		}
	}
	// dX: dcols = Wᵀ dy with regenerated filter rows — clear, ascending-f
	// accumulation skipping W[f][c]==0 (the dense MatMulTransASlice
	// sequence with the filter-row loop hoisted outward) — then the dense
	// col2im scatter per sample.
	dx := op.ws.GetRaw("dx", op.inShape...)
	dcols := op.ws.GetRaw("dcols", n, colSize)
	for i := range dcols.Data {
		dcols.Data[i] = 0
	}
	wrow := op.ws.GetRaw("wrow", colRows).Data
	for f := 0; f < l.OutC; f++ {
		op.spec.w.FillRow(wrow, f)
		for i := 0; i < n; i++ {
			dyRow := dy.Data[i*perSample+f*spatial : i*perSample+(f+1)*spatial]
			dcI := dcols.Data[i*colSize : (i+1)*colSize]
			for c := 0; c < colRows; c++ {
				wv := wrow[c]
				if wv == 0 {
					continue
				}
				dcRow := dcI[c*spatial : (c+1)*spatial]
				for j, v := range dyRow {
					dcRow[j] += wv * v
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		tensor.Col2ImSlice(dx.Data[i*g.imgSize:(i+1)*g.imgSize], dcols.Data[i*colSize:(i+1)*colSize],
			l.InC, g.h, g.w, l.KH, l.KW, l.Stride, l.Pad)
	}
	return dx
}
