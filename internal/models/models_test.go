package models

import (
	"testing"

	"dropback/internal/prune"
	"dropback/internal/tensor"
	"dropback/internal/xorshift"
)

func randImages(seed uint64, shape ...int) *tensor.Tensor {
	x := tensor.New(shape...)
	for i := range x.Data {
		x.Data[i] = xorshift.IndexedUniform(seed, uint64(i))
	}
	return x
}

func TestLeNet300100ParamCount(t *testing.T) {
	m := LeNet300100(1)
	// 784·300+300 + 300·100+100 + 100·10+10 = 266,610 — the paper's
	// "approximately 266,600 weights" / Table 1's "Baseline 267k".
	if got := m.Set.Total(); got != 266610 {
		t.Fatalf("LeNet-300-100 params = %d, want 266610", got)
	}
}

func TestMNIST100100ParamCount(t *testing.T) {
	m := MNIST100100(1)
	// Table 2: 78500 + 10100 + 1010 = 89,610.
	if got := m.Set.Total(); got != 89610 {
		t.Fatalf("MNIST-100-100 params = %d, want 89610", got)
	}
}

func TestMNIST100100LayerSizes(t *testing.T) {
	m := MNIST100100(1)
	wantByName := map[string]int{
		"mnist100/fc1/W": 78400, "mnist100/fc1/b": 100,
		"mnist100/fc2/W": 10000, "mnist100/fc2/b": 100,
		"mnist100/fc3/W": 1000, "mnist100/fc3/b": 10,
	}
	for name, want := range wantByName {
		p := m.Set.ByName(name)
		if p == nil {
			t.Fatalf("missing param %s", name)
		}
		if p.Len() != want {
			t.Fatalf("%s has %d params, want %d", name, p.Len(), want)
		}
	}
}

func TestVGGSPaperParamCount(t *testing.T) {
	m := NewVGGS(VGGSPaper(1))
	// §3: "a total of 15M parameters".
	got := m.Set.Total()
	if got < 14_500_000 || got > 15_500_000 {
		t.Fatalf("VGG-S params = %d, want ≈15M", got)
	}
}

func TestWRN2810ParamCount(t *testing.T) {
	m := NewWRN(WRN2810Paper(1))
	// Table 3: "WRN-28-10 Baseline 36M".
	got := m.Set.Total()
	if got < 36_000_000 || got > 37_000_000 {
		t.Fatalf("WRN-28-10 params = %d, want ≈36.5M", got)
	}
}

func TestDenseNetPaperParamCount(t *testing.T) {
	m := NewDenseNet(DenseNetPaper(1))
	// Table 3: "Densenet Baseline 2.7M". The paper omits depth/growth, so
	// accept a band around the target.
	got := m.Set.Total()
	if got < 2_200_000 || got > 3_200_000 {
		t.Fatalf("DenseNet params = %d, want ≈2.7M", got)
	}
	t.Logf("DenseNet paper config params = %d", got)
}

func TestMLPForwardBackwardShapes(t *testing.T) {
	m := MNIST100100(3)
	x := randImages(1, 4, 784)
	loss, acc := m.Step(x, []int{0, 1, 2, 3})
	if loss <= 0 || acc < 0 || acc > 1 {
		t.Fatalf("loss=%v acc=%v", loss, acc)
	}
}

func TestVGGSReducedTrainStep(t *testing.T) {
	m := NewVGGS(VGGSReduced(16, 4, 5, nil))
	x := randImages(2, 2, 3, 16, 16)
	loss, _ := m.Step(x, []int{1, 2})
	if loss <= 0 {
		t.Fatalf("loss = %v", loss)
	}
}

func TestWRNReducedTrainStep(t *testing.T) {
	m := NewWRN(WRNReduced(10, 1, 6, nil))
	x := randImages(3, 2, 3, 16, 16)
	loss, _ := m.Step(x, []int{0, 3})
	if loss <= 0 {
		t.Fatalf("loss = %v", loss)
	}
}

func TestDenseNetReducedTrainStep(t *testing.T) {
	m := NewDenseNet(DenseNetReduced(13, 4, 7, nil))
	x := randImages(4, 2, 3, 16, 16)
	loss, _ := m.Step(x, []int{4, 5})
	if loss <= 0 {
		t.Fatalf("loss = %v", loss)
	}
}

func TestDenseNetBottleneckVariant(t *testing.T) {
	cfg := DenseNetReduced(16, 4, 8, nil)
	cfg.Bottleneck = true
	m := NewDenseNet(cfg)
	x := randImages(5, 1, 3, 8, 8)
	loss, _ := m.Step(x, []int{2})
	if loss <= 0 {
		t.Fatalf("loss = %v", loss)
	}
}

func TestWRNFullSizeForwardStep(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size WRN step is slow")
	}
	// Structural proof that the stack handles the real 36M-parameter
	// model: one forward/backward on a single image.
	m := NewWRN(WRN2810Paper(2))
	x := randImages(6, 1, 3, 32, 32)
	loss, _ := m.Step(x, []int{0})
	if loss <= 0 {
		t.Fatalf("loss = %v", loss)
	}
}

func TestVGGSVariationalFactory(t *testing.T) {
	m := NewVGGS(VGGSReduced(8, 2, 9, prune.Variational{}))
	vd := prune.NewVD(m.Set, m.Net, 1e-4)
	if vd.LayerCount() == 0 {
		t.Fatal("variational factory produced no VD layers")
	}
	x := randImages(7, 2, 3, 8, 8)
	loss, _ := m.Step(x, []int{0, 1})
	if loss <= 0 {
		t.Fatalf("loss = %v", loss)
	}
}

func TestWRNBadDepthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for depth not 6n+4")
		}
	}()
	NewWRN(WRNConfig{Name: "bad", Depth: 11, WidenFactor: 1, InputChannels: 3, Classes: 10})
}

func TestDenseNetBadDepthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for incompatible depth")
		}
	}()
	NewDenseNet(DenseNetConfig{Name: "bad", Depth: 12, Growth: 4, InputChannels: 3, Classes: 10})
}

func TestModelsAreDeterministicAcrossConstruction(t *testing.T) {
	a := MNIST100100(42)
	b := MNIST100100(42)
	sa, sb := a.Set.Snapshot(), b.Set.Snapshot()
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatal("same-seed models must initialize identically")
		}
	}
	c := MNIST100100(43)
	sc := c.Set.Snapshot()
	same := 0
	for i := range sa {
		if sa[i] == sc[i] {
			same++
		}
	}
	// Zero-init biases coincide; weights must not.
	if same > 1000 {
		t.Fatalf("different seeds share %d values", same)
	}
}

func TestReducedMNISTMLP(t *testing.T) {
	m := ReducedMNISTMLP("small", 14, 50, 50, 1, nil)
	want := 14*14*50 + 50 + 50*50 + 50 + 50*10 + 10
	if m.Set.Total() != want {
		t.Fatalf("reduced MLP params = %d, want %d", m.Set.Total(), want)
	}
}

func TestParamCountsScaleWithWidth(t *testing.T) {
	small := NewVGGS(VGGSReduced(16, 2, 1, nil)).Set.Total()
	big := NewVGGS(VGGSReduced(16, 4, 1, nil)).Set.Total()
	if big <= small*3 { // conv params scale ~quadratically with width
		t.Fatalf("width scaling wrong: w=2 %d vs w=4 %d", small, big)
	}
}
