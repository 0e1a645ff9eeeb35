package prune

import (
	"testing"

	"dropback/internal/nn"
	"dropback/internal/optim"
	"dropback/internal/tensor"
	"dropback/internal/xorshift"
)

func dsdSet() (*nn.ParamSet, *nn.Linear) {
	fc := nn.NewLinear("dsd/fc", 21, 6, 4) // 28 params
	return nn.NewParamSet(fc), fc
}

func TestDSDSparsePhaseMasksLowest(t *testing.T) {
	set, _ := dsdSet()
	for g := 0; g < set.Total(); g++ {
		set.Set(g, float32(g)) // magnitude == index
	}
	d := NewDSD(set, 0.5, 0, 1)
	d.BeginEpoch(0)
	if !d.Sparse() {
		t.Fatal("sparse phase not active")
	}
	// Bottom half zeroed, top half kept.
	for g := 0; g < set.Total(); g++ {
		v := set.Get(g)
		if g < set.Total()/2 && v != 0 {
			t.Fatalf("low-|w| weight %d = %v, want 0", g, v)
		}
		if g >= set.Total()/2 && v == 0 {
			t.Fatalf("high-|w| weight %d zeroed", g)
		}
	}
	if d.MaskedCount() != set.Total()/2 {
		t.Fatalf("masked %d, want %d", d.MaskedCount(), set.Total()/2)
	}
}

func TestDSDAfterStepKeepsMaskInSparsePhase(t *testing.T) {
	set, _ := dsdSet()
	for g := 0; g < set.Total(); g++ {
		set.Set(g, float32(g))
	}
	d := NewDSD(set, 0.5, 0, 1)
	d.BeginEpoch(0)
	set.Set(0, 99) // optimizer "revives" a masked weight
	d.afterStep()
	if set.Get(0) != 0 {
		t.Fatal("masked weight must stay zero during the sparse phase")
	}
}

func TestDSDDensePhaseReleasesMask(t *testing.T) {
	set, _ := dsdSet()
	for g := 0; g < set.Total(); g++ {
		set.Set(g, float32(g))
	}
	d := NewDSD(set, 0.5, 0, 1)
	d.BeginEpoch(0)
	d.BeginEpoch(1)
	set.Set(0, 99)
	d.afterStep()
	if set.Get(0) != 99 {
		t.Fatal("dense phase must not reapply the mask")
	}
	if d.MaskedCount() != 0 {
		t.Fatal("dense phase reports no masked weights")
	}
}

func TestDSDCompressionIsOne(t *testing.T) {
	set, _ := dsdSet()
	d := NewDSD(set, 0.3, 0, 1)
	if d.CompressionRatio() != 1 {
		t.Fatal("DSD's final model is dense: compression must be 1 (the §2.2 contrast)")
	}
}

func TestDSDBadFractionPanics(t *testing.T) {
	set, _ := dsdSet()
	for _, f := range []float64{0, 1, -0.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for fraction %v", f)
				}
			}()
			NewDSD(set, f, 0, 1)
		}()
	}
}

func TestDSDTrainingCycleLearns(t *testing.T) {
	// Dense -> sparse -> dense cycle on a toy task must still fit it.
	net := nn.NewSequential("dsdt",
		nn.NewLinear("dsdt/fc1", 33, 2, 12),
		nn.NewReLU("dsdt/r"),
		nn.NewLinear("dsdt/fc2", 33, 12, 2),
	)
	m := nn.NewModel(net, 33)
	d := NewDSD(m.Set, 0.3, 1, 2)
	x := tensor.New(16, 2)
	labels := make([]int, 16)
	for i := range labels {
		labels[i] = i % 2
		x.Set(1+0.1*xorshift.IndexedNormal(1, uint64(i)), i, i%2)
	}
	sgd := optim.NewSGD(0.3)
	phase := func(epoch int) {
		d.BeginEpoch(epoch)
		for s := 0; s < 100; s++ {
			m.Step(x, labels)
			d.Update(sgd)
		}
	}
	phase(0) // dense
	phase(1) // sparse
	phase(2) // dense refinement
	if _, acc := m.Eval(x, labels); acc != 1 {
		t.Fatalf("DSD cycle failed to fit the toy task (acc %v)", acc)
	}
}
