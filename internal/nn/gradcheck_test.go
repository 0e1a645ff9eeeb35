package nn_test

// Numerical-gradient verification of every layer, the loss head and the
// DropBack-masked optimizer update. The checkers return an error rather
// than failing a *testing.T, so a test can also assert that a broken layer
// is caught (TestCheckDetectsBrokenGradient).

import (
	"fmt"
	"math"
	"testing"

	"dropback/internal/core"
	"dropback/internal/nn"
	"dropback/internal/optim"
	"dropback/internal/tensor"
	"dropback/internal/xorshift"
)

// randInput returns a tensor of the given shape filled with deterministic
// unit normals drawn from the indexed xorshift stream for seed — the same
// recipe as the internal tests' randInput.
func randInput(seed uint64, shape ...int) *tensor.Tensor {
	x := tensor.New(shape...)
	for i := range x.Data {
		x.Data[i] = xorshift.IndexedNormal(seed, uint64(i))
	}
	return x
}

// gradCheck verifies a layer's analytic gradients (input and parameters)
// against central finite differences of the scalar loss sum(y ⊙ r), where r
// is a fixed random weighting. The layer runs in training mode, so BatchNorm is
// checked through its batch-statistics path. Stochastic layers (dropout)
// resample per Forward call and cannot be finite-differenced this way.
//
// eps is the finite-difference step (1e-2 suits float32 layers); tol is the
// relative tolerance |numeric − analytic| ≤ tol·(1 + |numeric|). Gradients
// are checked on a deterministic sample of elements (up to ~50 input and
// ~30 per-parameter elements) to keep large layers affordable.
func gradCheck(layer nn.Layer, x *tensor.Tensor, eps, tol float64) error {
	y := layer.Forward(x, true)
	r := tensor.New(y.Shape...)
	for i := range r.Data {
		r.Data[i] = xorshift.IndexedNormal(777, uint64(i))
	}
	loss := func() float64 {
		return tensor.Dot(layer.Forward(x, true), r)
	}
	// Analytic gradients.
	for _, p := range layer.Params() {
		p.ZeroGrad()
	}
	layer.Forward(x, true)
	dx := layer.Backward(r)

	feps := float32(eps)
	// Check input gradient on a sample of elements.
	stride := len(x.Data)/50 + 1
	for i := 0; i < len(x.Data); i += stride {
		orig := x.Data[i]
		x.Data[i] = orig + feps
		lp := loss()
		x.Data[i] = orig - feps
		lm := loss()
		x.Data[i] = orig
		numeric := (lp - lm) / (2 * eps)
		analytic := float64(dx.Data[i])
		if math.Abs(numeric-analytic) > tol*(1+math.Abs(numeric)) {
			return fmt.Errorf("gradcheck: %s: input grad[%d]: analytic %v vs numeric %v", layer.Name(), i, analytic, numeric)
		}
	}
	// Check parameter gradients on a sample of elements.
	for _, p := range layer.Params() {
		pstride := len(p.Value.Data)/30 + 1
		for i := 0; i < len(p.Value.Data); i += pstride {
			orig := p.Value.Data[i]
			p.Value.Data[i] = orig + feps
			lp := loss()
			p.Value.Data[i] = orig - feps
			lm := loss()
			p.Value.Data[i] = orig
			numeric := (lp - lm) / (2 * eps)
			analytic := float64(p.Grad.Data[i])
			if math.Abs(numeric-analytic) > tol*(1+math.Abs(numeric)) {
				return fmt.Errorf("gradcheck: %s: param %s grad[%d]: analytic %v vs numeric %v", layer.Name(), p.Name, i, analytic, numeric)
			}
		}
	}
	return nil
}

// checkLoss verifies the softmax-cross-entropy loss head: the analytic
// dLoss/dlogits from nn.SoftmaxCrossEntropy.Backward is compared against
// central finite differences of the mean loss over every logit element.
// The loss is smooth in the logits, so no sampling is needed.
func checkLoss(logits *tensor.Tensor, labels []int, eps, tol float64) error {
	var head nn.SoftmaxCrossEntropy
	loss := func() float64 {
		l, _ := head.Forward(logits, labels)
		return l
	}
	loss()
	dlogits := head.Backward()
	feps := float32(eps)
	for i := range logits.Data {
		orig := logits.Data[i]
		logits.Data[i] = orig + feps
		lp := loss()
		logits.Data[i] = orig - feps
		lm := loss()
		logits.Data[i] = orig
		numeric := (lp - lm) / (2 * eps)
		analytic := float64(dlogits.Data[i])
		if math.Abs(numeric-analytic) > tol*(1+math.Abs(numeric)) {
			return fmt.Errorf("gradcheck: loss head: dlogits[%d]: analytic %v vs numeric %v", i, analytic, numeric)
		}
	}
	return nil
}

// checkMaskedUpdate verifies the DropBack-masked update path after one
// SGD-step-plus-Apply cycle: every tracked weight (mask true at its global
// index) must hold exactly w − lr·g computed from the pre-update snapshot,
// and every untracked weight must hold exactly its regenerated
// initialization value. Both checks are bitwise — the masked update is a
// deterministic function of (before, grad, lr, mask), not an approximation.
//
// before and grad are flat global-index-order snapshots (nn.ParamSet.Snapshot
// layout) captured immediately before the optimizer step.
func checkMaskedUpdate(set *nn.ParamSet, mask []bool, before, grad []float32, lr float32) error {
	if len(mask) != set.Total() || len(before) != set.Total() || len(grad) != set.Total() {
		return fmt.Errorf("gradcheck: masked update: mask/before/grad lengths (%d,%d,%d) must equal parameter total %d",
			len(mask), len(before), len(grad), set.Total())
	}
	after := set.Snapshot()
	for g := range mask {
		if mask[g] {
			// Replays optim.SGD's exact arithmetic: w += (−lr)·g in float32.
			want := before[g] + (-lr)*grad[g]
			if math.Float32bits(after[g]) != math.Float32bits(want) {
				return fmt.Errorf("gradcheck: masked update: tracked weight %d: got %v, want %v (w−lr·g)", g, after[g], want)
			}
		} else {
			want := set.InitialValue(g)
			if math.Float32bits(after[g]) != math.Float32bits(want) {
				return fmt.Errorf("gradcheck: masked update: untracked weight %d: got %v, want regenerated init %v", g, after[g], want)
			}
		}
	}
	return nil
}

// check adapts the error-returning gradCheck to test failure.
func check(t *testing.T, layer nn.Layer, x *tensor.Tensor, tol float64) {
	t.Helper()
	if err := gradCheck(layer, x, 1e-2, tol); err != nil {
		t.Fatal(err)
	}
}

func TestGradCheckLinear(t *testing.T) {
	check(t, nn.NewLinear("fc", 1, 6, 4), randInput(10, 5, 6), 2e-2)
}

func TestGradCheckLinearNoBias(t *testing.T) {
	check(t, nn.NewLinearNoBias("fcnb", 1, 5, 3), randInput(11, 4, 5), 2e-2)
}

func TestGradCheckConv2D(t *testing.T) {
	check(t, nn.NewConv2D("conv", 2, 2, 3, 3, 1, 1), randInput(12, 2, 2, 5, 5), 3e-2)
}

func TestGradCheckConv2DStride2NoBias(t *testing.T) {
	check(t, nn.NewConv2DNoBias("conv2", 2, 2, 3, 3, 2, 1), randInput(13, 2, 2, 6, 6), 3e-2)
}

func TestGradCheckReLU(t *testing.T) {
	check(t, nn.NewReLU("relu"), randInput(14, 3, 7), 2e-2)
}

func TestGradCheckPReLU(t *testing.T) {
	check(t, nn.NewPReLU("prelu", 3), randInput(15, 3, 7), 2e-2)
}

// BatchNorm runs in training mode inside gradCheck, so these cover the
// batch-statistics path (mean/variance of the live batch), not the frozen
// running estimates.
func TestGradCheckBatchNorm2D(t *testing.T) {
	check(t, nn.NewBatchNorm("bn", 4, 3), randInput(16, 2, 3, 4, 4), 5e-2)
}

func TestGradCheckBatchNorm1D(t *testing.T) {
	check(t, nn.NewBatchNorm("bn1", 5, 6), randInput(17, 8, 6), 5e-2)
}

func TestGradCheckMaxPool(t *testing.T) {
	// Spread values so eps perturbations cannot flip argmax decisions.
	x := randInput(18, 1, 2, 4, 4)
	tensor.ScaleInPlace(x, 10)
	check(t, nn.NewMaxPool2D("mp", 2, 2), x, 2e-2)
}

func TestGradCheckAvgPool(t *testing.T) {
	check(t, nn.NewAvgPool2D("ap", 2, 2), randInput(19, 1, 2, 4, 4), 2e-2)
}

func TestGradCheckGlobalAvgPool(t *testing.T) {
	check(t, nn.NewGlobalAvgPool2D("gap"), randInput(20, 2, 3, 4, 4), 2e-2)
}

func TestGradCheckSequential(t *testing.T) {
	seq := nn.NewSequential("mlp",
		nn.NewLinear("mlp/fc1", 6, 5, 8),
		nn.NewReLU("mlp/r1"),
		nn.NewLinear("mlp/fc2", 6, 8, 3),
	)
	check(t, seq, randInput(21, 4, 5), 3e-2)
}

func TestGradCheckResidualIdentity(t *testing.T) {
	body := nn.NewSequential("res/body",
		nn.NewLinear("res/fc1", 7, 6, 6),
		nn.NewReLU("res/r"),
	)
	check(t, nn.NewResidual("res", body, nil), randInput(22, 3, 6), 3e-2)
}

func TestGradCheckResidualProjection(t *testing.T) {
	body := nn.NewConv2DNoBias("rb/c1", 8, 2, 4, 3, 1, 1)
	short := nn.NewConv2DNoBias("rb/sc", 8, 2, 4, 1, 1, 0)
	check(t, nn.NewResidual("rb", body, short), randInput(23, 2, 2, 4, 4), 3e-2)
}

func TestGradCheckDenseBlock(t *testing.T) {
	g := 2
	u0 := nn.NewConv2DNoBias("db/u0", 9, 3, g, 3, 1, 1)
	u1 := nn.NewConv2DNoBias("db/u1", 9, 3+g, g, 3, 1, 1)
	db := nn.NewDenseBlock("db", 3, g, u0, u1)
	check(t, db, randInput(24, 2, 3, 4, 4), 3e-2)
}

func TestGradCheckFlattenChain(t *testing.T) {
	seq := nn.NewSequential("fc",
		nn.NewFlatten("fc/flat"),
		nn.NewLinear("fc/out", 25, 12, 4),
	)
	check(t, seq, randInput(25, 3, 3, 2, 2), 3e-2)
}

func TestGradCheckSequentialWithBNAndPool(t *testing.T) {
	// No ReLU in this chain: BN centers activations at zero, where the
	// ReLU kink makes finite differences meaningless. The smooth
	// conv→BN→pool→fc composition checks cross-layer gradient routing.
	seed := uint64(95)
	net := nn.NewSequential("gc",
		nn.NewConv2DNoBias("gc/conv", seed, 2, 3, 3, 1, 1),
		nn.NewBatchNorm("gc/bn", seed, 3),
		nn.NewAvgPool2D("gc/pool", 2, 2),
		nn.NewFlatten("gc/flat"),
		nn.NewLinear("gc/fc", seed, 12, 2),
	)
	check(t, net, randInput(96, 2, 2, 4, 4), 6e-2)
}

func TestGradCheckLossHead(t *testing.T) {
	logits := randInput(30, 6, 4)
	labels := []int{0, 1, 2, 3, 1, 2}
	if err := checkLoss(logits, labels, 1e-3, 2e-2); err != nil {
		t.Fatal(err)
	}
}

func TestGradCheckLossHeadSingleSample(t *testing.T) {
	logits := randInput(31, 1, 5)
	if err := checkLoss(logits, []int{3}, 1e-3, 2e-2); err != nil {
		t.Fatal(err)
	}
}

// TestDropBackMaskedUpdate pins the masked optimizer update: after one
// SGD step plus DropBack Apply, tracked weights hold exactly w − lr·g and
// untracked weights hold exactly their regenerated initialization values,
// bitwise.
func TestDropBackMaskedUpdate(t *testing.T) {
	net := nn.NewSequential("mu",
		nn.NewLinear("mu/fc1", 41, 6, 10),
		nn.NewReLU("mu/r"),
		nn.NewLinear("mu/fc2", 41, 10, 3),
	)
	m := nn.NewModel(net, 41)
	db := core.New(m.Set, core.Config{Budget: m.Set.Total() / 4, FreezeAfterEpoch: -1})
	sgd := optim.NewSGD(0.05)

	x := randInput(42, 4, 6)
	labels := []int{0, 1, 2, 1}
	for step := 0; step < 3; step++ {
		m.Step(x, labels)
		before := m.Set.Snapshot()
		grad := make([]float32, m.Set.Total())
		for i, p := range m.Set.Params() {
			copy(grad[m.Set.Offset(i):], p.Grad.Data)
		}
		sgd.Step(m.Set)
		db.Apply()
		if err := checkMaskedUpdate(m.Set, db.Mask(), before, grad, sgd.LR); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}

	// The frozen path regenerates without reselecting; the contract holds
	// against the frozen mask.
	db.Freeze()
	m.Step(x, labels)
	before := m.Set.Snapshot()
	grad := make([]float32, m.Set.Total())
	for i, p := range m.Set.Params() {
		copy(grad[m.Set.Offset(i):], p.Grad.Data)
	}
	sgd.Step(m.Set)
	db.Apply()
	if err := checkMaskedUpdate(m.Set, db.Mask(), before, grad, sgd.LR); err != nil {
		t.Fatalf("frozen step: %v", err)
	}
}

// TestCheckDetectsBrokenGradient guards the checker itself: a layer whose
// Backward lies about its gradient must be rejected.
func TestCheckDetectsBrokenGradient(t *testing.T) {
	l := &brokenLayer{inner: nn.NewLinear("bad", 1, 4, 3)}
	if err := gradCheck(l, randInput(43, 2, 4), 1e-2, 2e-2); err == nil {
		t.Fatal("gradCheck accepted a layer with a corrupted backward pass")
	}
}

// brokenLayer wraps a Linear but scales its input gradient by 2, simulating
// a backward-pass bug.
type brokenLayer struct {
	inner nn.Layer
}

func (b *brokenLayer) Name() string        { return b.inner.Name() }
func (b *brokenLayer) Params() []*nn.Param { return b.inner.Params() }
func (b *brokenLayer) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	return b.inner.Forward(x, train)
}
func (b *brokenLayer) Backward(dy *tensor.Tensor) *tensor.Tensor {
	dx := b.inner.Backward(dy)
	tensor.ScaleInPlace(dx, 2)
	return dx
}
