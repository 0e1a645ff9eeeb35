package prune

import (
	"math"
	"testing"

	"dropback/internal/nn"
	"dropback/internal/tensor"
	"dropback/internal/xorshift"
)

func TestMagnitudeKeepsTopWeights(t *testing.T) {
	fc := nn.NewLinear("m/fc", 1, 4, 4) // 20 params
	set := nn.NewParamSet(fc)
	// Make magnitudes equal to index for determinism.
	for g := 0; g < set.Total(); g++ {
		set.Set(g, float32(g))
	}
	p := NewMagnitude(set, 0.75) // keep 5
	if p.Keep() != 5 {
		t.Fatalf("Keep = %d, want 5", p.Keep())
	}
	p.Apply()
	for g := 0; g < set.Total(); g++ {
		v := set.Get(g)
		if g >= 15 && v != float32(g) {
			t.Fatalf("top weight %d was modified: %v", g, v)
		}
		if g < 15 && v != 0 {
			t.Fatalf("low weight %d not zeroed: %v", g, v)
		}
	}
	if p.CompressionRatio() != 4 {
		t.Fatalf("compression = %v, want 4", p.CompressionRatio())
	}
}

func TestMagnitudeZeroesNotRegenerates(t *testing.T) {
	// The defining contrast with DropBack: losers go to 0, not to init.
	fc := nn.NewLinear("m2/fc", 9, 10, 10)
	set := nn.NewParamSet(fc)
	p := NewMagnitude(set, 0.9)
	p.Apply()
	zeros := 0
	for g := 0; g < set.Total(); g++ {
		if set.Get(g) == 0 {
			zeros++
		}
	}
	if zeros < set.Total()-p.Keep() {
		t.Fatalf("only %d zeros, want >= %d", zeros, set.Total()-p.Keep())
	}
}

func TestMagnitudeUsesAbsoluteValue(t *testing.T) {
	fc := nn.NewLinear("m3/fc", 1, 2, 2) // 6 params
	set := nn.NewParamSet(fc)
	vals := []float32{-10, 1, -2, 3, 0.5, -9}
	for g, v := range vals {
		set.Set(g, v)
	}
	p := NewMagnitude(set, 0.5) // keep 3: |-10|, |-9|, |3|
	p.Apply()
	if set.Get(0) != -10 || set.Get(5) != -9 || set.Get(3) != 3 {
		t.Fatal("largest-|w| weights must survive")
	}
	if set.Get(1) != 0 || set.Get(2) != 0 || set.Get(4) != 0 {
		t.Fatal("small-|w| weights must be zeroed")
	}
}

func TestMagnitudeCountsZeroWrites(t *testing.T) {
	fc := nn.NewLinear("m4/fc", 7, 8, 4)
	set := nn.NewParamSet(fc)
	p := NewMagnitude(set, 0.5)
	p.Apply()
	first := p.Zeroed()
	if first == 0 {
		t.Fatal("no zeroing recorded")
	}
	// Second Apply: already-zero weights must not be re-counted.
	p.Apply()
	if p.Zeroed() != first {
		t.Fatalf("re-zeroing counted: %d -> %d", first, p.Zeroed())
	}
}

func TestMagnitudeBadFractionPanics(t *testing.T) {
	set := nn.NewParamSet(nn.NewLinear("m5/fc", 1, 2, 2))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for fraction 1")
		}
	}()
	NewMagnitude(set, 1)
}

func TestVDLinearForwardEvalIsDeterministic(t *testing.T) {
	l := NewVDLinear("vd/fc", 3, 4, 2)
	x := tensor.Full(1, 2, 4)
	// The output is workspace-owned: clone it before the next Forward.
	a := l.Forward(x, false).Clone()
	b := l.Forward(x, false)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("eval forward must be deterministic")
		}
	}
}

func TestVDLinearTrainInjectsNoise(t *testing.T) {
	l := NewVDLinear("vd2/fc", 3, 4, 2)
	// Raise alpha so the noise is visible.
	l.noise.LogAlpha.Value.Fill(0)
	x := tensor.Full(1, 2, 4)
	a := l.Forward(x, true).Clone()
	b := l.Forward(x, true)
	same := true
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			same = false
		}
	}
	if same {
		t.Fatal("training forwards with alpha=1 must differ between steps")
	}
}

func TestVDEvalPrunesHighAlpha(t *testing.T) {
	l := NewVDLinear("vd3/fc", 3, 3, 2)
	l.noise.LogAlpha.Value.Fill(4) // above threshold 3: all weights pruned
	x := tensor.Full(1, 1, 3)
	y := l.Forward(x, false)
	for _, v := range y.Data {
		if v != 0 { // bias is zero-initialized, weights pruned
			t.Fatalf("pruned VD layer output = %v, want 0", v)
		}
	}
}

func TestVDGradientCheckTheta(t *testing.T) {
	// With logα pinned very low the noise is ~0 and the theta gradient must
	// match a plain linear layer's numeric gradient.
	l := NewVDLinear("vd4/fc", 5, 3, 2)
	l.noise.LogAlpha.Value.Fill(-20)
	x := tensor.New(2, 3)
	for i := range x.Data {
		x.Data[i] = xorshift.IndexedNormal(70, uint64(i))
	}
	r := tensor.New(2, 2)
	for i := range r.Data {
		r.Data[i] = xorshift.IndexedNormal(71, uint64(i))
	}
	loss := func() float64 { return tensor.Dot(l.Forward(x, true), r) }
	for _, p := range l.Params() {
		p.ZeroGrad()
	}
	l.Forward(x, true)
	l.Backward(r)
	const eps = 1e-2
	theta := l.noise.Theta
	for i := range theta.Value.Data {
		orig := theta.Value.Data[i]
		theta.Value.Data[i] = orig + eps
		lp := loss()
		theta.Value.Data[i] = orig - eps
		lm := loss()
		theta.Value.Data[i] = orig
		numeric := (lp - lm) / (2 * eps)
		if math.Abs(numeric-float64(theta.Grad.Data[i])) > 2e-2*(1+math.Abs(numeric)) {
			t.Fatalf("theta grad[%d]: analytic %v vs numeric %v", i, theta.Grad.Data[i], numeric)
		}
	}
}

func TestVDKLGradMatchesNumeric(t *testing.T) {
	for _, la := range []float64{-6, -2, 0, 1.5, 3} {
		kl1, grad := vdKLAndGrad(la)
		const eps = 1e-5
		kp, _ := vdKLAndGrad(la + eps)
		km, _ := vdKLAndGrad(la - eps)
		numeric := (kp - km) / (2 * eps)
		if math.Abs(numeric-grad) > 1e-5*(1+math.Abs(numeric)) {
			t.Fatalf("logα=%v: KL grad analytic %v vs numeric %v (kl=%v)", la, grad, numeric, kl1)
		}
	}
}

func TestVDKLPushesAlphaUpForUselessWeights(t *testing.T) {
	// With no data gradient, SGD on the KL term alone must increase logα
	// (the mechanism that creates sparsity).
	la := -2.0
	for i := 0; i < 500; i++ {
		_, g := vdKLAndGrad(la)
		la -= 0.1 * g
	}
	if la <= 0 {
		t.Fatalf("KL descent left logα at %v, want growth toward sparsity", la)
	}
}

func TestVDCoordinatorFindsNestedLayers(t *testing.T) {
	net := nn.NewSequential("v",
		NewVDLinear("v/fc1", 1, 4, 4),
		nn.NewReLU("v/r"),
		nn.NewSequential("v/inner", NewVDLinear("v/fc2", 1, 4, 2)),
	)
	vd := NewVD(nn.NewParamSet(net), net, 1e-4)
	if vd.LayerCount() != 2 {
		t.Fatalf("found %d VD layers, want 2", vd.LayerCount())
	}
}

func TestVDSparsityAndCompression(t *testing.T) {
	l := NewVDLinear("vs/fc", 1, 4, 2) // 8 weights
	net := nn.NewSequential("vs", l)
	vd := NewVD(nn.NewParamSet(net), net, 1e-4)
	// Prune half the weights.
	for i := 0; i < 4; i++ {
		l.noise.LogAlpha.Value.Data[i] = 4
	}
	pruned, total := vd.Sparsity()
	if pruned != 4 || total != 8 {
		t.Fatalf("sparsity = (%d,%d), want (4,8)", pruned, total)
	}
	if vd.CompressionRatio() != 2 {
		t.Fatalf("compression = %v, want 2", vd.CompressionRatio())
	}
}

func TestVDClamp(t *testing.T) {
	l := NewVDLinear("vc/fc", 1, 2, 2)
	l.noise.LogAlpha.Value.Data[0] = 100
	l.noise.LogAlpha.Value.Data[1] = -100
	l.noise.clamp()
	if l.noise.LogAlpha.Value.Data[0] != 4 || l.noise.LogAlpha.Value.Data[1] != -10 {
		t.Fatalf("clamp failed: %v", l.noise.LogAlpha.Value.Data[:2])
	}
}

func TestVDConvRuns(t *testing.T) {
	l := NewVDConv2D("vconv", 2, 2, 3, 3, 1, 1)
	x := tensor.Full(1, 2, 2, 5, 5)
	y := l.Forward(x, true)
	if y.Shape[1] != 3 || y.Shape[2] != 5 {
		t.Fatalf("VD conv output shape %v", y.Shape)
	}
	dy := tensor.Full(1, 2, 3, 5, 5)
	dx := l.Backward(dy)
	if !dx.SameShape(x) {
		t.Fatalf("VD conv backward shape %v", dx.Shape)
	}
	var thetaGradNonzero bool
	for _, g := range l.noise.Theta.Grad.Data {
		if g != 0 {
			thetaGradNonzero = true
			break
		}
	}
	if !thetaGradNonzero {
		t.Fatal("VD conv produced no theta gradients")
	}
}

func buildBNNet() (*nn.Sequential, []*nn.BatchNorm) {
	bn1 := nn.NewBatchNorm("s/bn1", 1, 4)
	bn2 := nn.NewBatchNorm("s/bn2", 1, 4)
	net := nn.NewSequential("s",
		nn.NewLinear("s/fc1", 1, 4, 4), bn1, nn.NewReLU("s/r1"),
		nn.NewLinear("s/fc2", 1, 4, 4), bn2,
	)
	return net, []*nn.BatchNorm{bn1, bn2}
}

func TestSlimmingFindsBatchNorms(t *testing.T) {
	net, _ := buildBNNet()
	s := NewSlimming(nn.NewParamSet(net), net, 1e-4, 0.5, 0)
	if s.BatchNormCount() != 2 {
		t.Fatalf("found %d BNs, want 2", s.BatchNormCount())
	}
}

func TestSlimmingL1Grads(t *testing.T) {
	net, bns := buildBNNet()
	s := NewSlimming(nn.NewParamSet(net), net, 0.01, 0.5, 0)
	bns[0].Gamma.Value.Data[0] = 2
	bns[0].Gamma.Value.Data[1] = -2
	bns[0].Gamma.Value.Data[2] = 0
	nn.NewParamSet(net).ZeroGrads()
	s.addL1Grads()
	if bns[0].Gamma.Grad.Data[0] != 0.01 {
		t.Fatalf("positive gamma grad = %v, want 0.01", bns[0].Gamma.Grad.Data[0])
	}
	if bns[0].Gamma.Grad.Data[1] != -0.01 {
		t.Fatalf("negative gamma grad = %v, want -0.01", bns[0].Gamma.Grad.Data[1])
	}
	if bns[0].Gamma.Grad.Data[2] != 0 {
		t.Fatalf("zero gamma grad = %v, want 0", bns[0].Gamma.Grad.Data[2])
	}
}

func TestSlimmingPruneRemovesSmallestChannels(t *testing.T) {
	net, bns := buildBNNet()
	s := NewSlimming(nn.NewParamSet(net), net, 1e-4, 0.5, 0)
	// Smallest four |γ| are split across both layers: bn1 {1,2}, bn2 {3,4}.
	copy(bns[0].Gamma.Value.Data, []float32{1, 2, 10, 11})
	copy(bns[1].Gamma.Value.Data, []float32{3, 4, 12, 13})
	pruned := s.prune()
	if pruned != 4 {
		t.Fatalf("pruned %d channels, want 4", pruned)
	}
	for _, want := range []struct {
		bn   int
		c    int
		dead bool
	}{{0, 0, true}, {0, 1, true}, {0, 2, false}, {0, 3, false}, {1, 0, true}, {1, 1, true}, {1, 2, false}, {1, 3, false}} {
		g := bns[want.bn].Gamma.Value.Data[want.c]
		if want.dead && g != 0 {
			t.Fatalf("bn%d channel %d should be pruned, γ=%v", want.bn, want.c, g)
		}
		if !want.dead && g == 0 {
			t.Fatalf("bn%d channel %d should survive", want.bn, want.c)
		}
		if want.dead && bns[want.bn].Beta.Value.Data[want.c] != 0 {
			t.Fatal("pruned channel's beta not zeroed")
		}
	}
}

func TestSlimmingLayerGuardKeepsOneChannel(t *testing.T) {
	// When the global threshold would kill every channel of a layer, the
	// largest-|γ| channel is kept alive so the network can still compute.
	net, bns := buildBNNet()
	s := NewSlimming(nn.NewParamSet(net), net, 1e-4, 0.5, 0)
	copy(bns[0].Gamma.Value.Data, []float32{1, 2, 3, 4})
	copy(bns[1].Gamma.Value.Data, []float32{10, 11, 12, 13})
	pruned := s.prune()
	if pruned != 3 {
		t.Fatalf("pruned %d channels, want 3 (guard saves one)", pruned)
	}
	if bns[0].Gamma.Value.Data[3] != 4 {
		t.Fatal("guard must keep the largest-|γ| channel of the doomed layer")
	}
}

func TestSlimmingNeverPrunesWholeLayerToZero(t *testing.T) {
	// Wait — pruning all of bn1 is allowed (4 of 8 = 0.5) but masks must
	// keep at least one channel alive when a layer would lose everything.
	net, bns := buildBNNet()
	s := NewSlimming(nn.NewParamSet(net), net, 1e-4, 0.6, 0) // would prune 4.8 -> cut inside bn1
	for i := 0; i < 4; i++ {
		bns[0].Gamma.Value.Data[i] = 0.001 * float32(i+1)
		bns[1].Gamma.Value.Data[i] = 10
	}
	s.prune()
	alive := 0
	for _, g := range bns[0].Gamma.Value.Data {
		if g != 0 {
			alive++
		}
	}
	if alive < 1 {
		t.Fatal("slimming must keep at least one channel per layer")
	}
}

func TestSlimmingAfterStepKeepsChannelsDead(t *testing.T) {
	net, bns := buildBNNet()
	s := NewSlimming(nn.NewParamSet(net), net, 1e-4, 0.5, 0)
	for i := 0; i < 4; i++ {
		bns[0].Gamma.Value.Data[i] = float32(i + 1)
		bns[1].Gamma.Value.Data[i] = float32(10 + i)
	}
	s.prune()
	// Fine-tune step "accidentally" revives a pruned channel.
	bns[0].Gamma.Value.Data[0] = 5
	s.killPruned()
	if bns[0].Gamma.Value.Data[0] != 0 {
		t.Fatal("killPruned must re-kill pruned channels")
	}
}

func TestSlimmingAfterStepNoopBeforePrune(t *testing.T) {
	net, bns := buildBNNet()
	s := NewSlimming(nn.NewParamSet(net), net, 1e-4, 0.5, 0)
	bns[0].Gamma.Value.Data[0] = 7
	s.killPruned()
	if bns[0].Gamma.Value.Data[0] != 7 {
		t.Fatal("killPruned before the prune must be a no-op")
	}
}

func TestSlimmingCompression(t *testing.T) {
	net, bns := buildBNNet()
	s := NewSlimming(nn.NewParamSet(net), net, 1e-4, 0.5, 0)
	copy(bns[0].Gamma.Value.Data, []float32{1, 2, 10, 11})
	copy(bns[1].Gamma.Value.Data, []float32{3, 4, 12, 13})
	if s.CompressionRatio() != 1 {
		t.Fatal("compression before prune must be 1")
	}
	s.prune()
	if got := s.CompressionRatio(); got != 2 {
		t.Fatalf("compression = %v, want 2 (8 channels / 4 kept)", got)
	}
}

func TestSlimmingBadFractionPanics(t *testing.T) {
	net, _ := buildBNNet()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSlimming(nn.NewParamSet(net), net, 1e-4, 1.0, 0)
}

func TestFactories(t *testing.T) {
	var std LayerFactory = Standard{}
	var vd LayerFactory = Variational{}
	if _, ok := std.Linear("f/a", 1, 2, 2).(*nn.Linear); !ok {
		t.Fatal("Standard.Linear type")
	}
	if _, ok := vd.Linear("f/b", 1, 2, 2).(*VDLayer); !ok {
		t.Fatal("Variational.Linear type")
	}
	if _, ok := std.Conv2DNoBias("f/c", 1, 1, 1, 3, 1, 1).(*nn.Conv2D); !ok {
		t.Fatal("Standard.Conv2DNoBias type")
	}
	if _, ok := vd.Conv2D("f/d", 1, 1, 1, 3, 1, 1).(*VDLayer); !ok {
		t.Fatal("Variational.Conv2D type")
	}
}
