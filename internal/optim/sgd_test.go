package optim

import (
	"math"
	"testing"

	"dropback/internal/nn"
)

func TestSGDStepDirection(t *testing.T) {
	fc := nn.NewLinear("o/fc", 1, 2, 2)
	set := nn.NewParamSet(fc)
	before := set.Snapshot()
	fc.W.Grad.Fill(1)
	NewSGD(0.1).Step(set)
	after := set.Snapshot()
	for i := 0; i < fc.W.Len(); i++ {
		want := before[i] - 0.1
		if math.Abs(float64(after[i]-want)) > 1e-6 {
			t.Fatalf("weight %d: got %v, want %v", i, after[i], want)
		}
	}
	// Bias grads were zero — biases unchanged.
	for i := fc.W.Len(); i < set.Total(); i++ {
		if after[i] != before[i] {
			t.Fatal("zero-gradient parameter moved")
		}
	}
}

func TestStepDecaySchedule(t *testing.T) {
	s := StepDecay{Initial: 0.4, Factor: 0.5, Every: 20, MaxDecays: 4}
	cases := []struct {
		epoch int
		want  float32
	}{
		{0, 0.4}, {19, 0.4}, {20, 0.2}, {39, 0.2}, {40, 0.1},
		{60, 0.05}, {80, 0.025}, {99, 0.025}, {200, 0.025}, // capped at 4 decays
	}
	for _, c := range cases {
		if got := s.At(c.epoch); math.Abs(float64(got-c.want)) > 1e-7 {
			t.Errorf("At(%d) = %v, want %v", c.epoch, got, c.want)
		}
	}
}

func TestStepDecayNoCap(t *testing.T) {
	s := StepDecay{Initial: 0.4, Factor: 0.5, Every: 25}
	if got := s.At(100); math.Abs(float64(got)-0.025) > 1e-7 {
		t.Fatalf("At(100) = %v, want 0.025", got)
	}
}

func TestStepDecayZeroEvery(t *testing.T) {
	s := StepDecay{Initial: 0.3, Factor: 0.5}
	if s.At(1000) != 0.3 {
		t.Fatal("Every=0 must mean no decay")
	}
}

func TestConstantSchedule(t *testing.T) {
	if Constant(0.01).At(999) != 0.01 {
		t.Fatal("constant schedule must ignore epoch")
	}
}

func TestPaperSchedules(t *testing.T) {
	m := PaperMNIST()
	if m.Initial != 0.4 || m.Factor != 0.5 || m.MaxDecays != 4 {
		t.Fatalf("PaperMNIST = %+v", m)
	}
	c := PaperCIFAR()
	if c.Initial != 0.4 || c.Every != 25 {
		t.Fatalf("PaperCIFAR = %+v", c)
	}
}
