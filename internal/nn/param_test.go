package nn

import (
	"testing"
	"testing/quick"

	"dropback/internal/tensor"
	"dropback/internal/xorshift"
)

func buildTestSet() (*ParamSet, *Linear, *Linear) {
	fc1 := NewLinear("t/fc1", 99, 4, 3) // 12 + 3 = 15 scalars
	fc2 := NewLinear("t/fc2", 99, 3, 2) // 6 + 2 = 8 scalars
	return NewParamSet(fc1, fc2), fc1, fc2
}

func TestParamSetTotalAndOffsets(t *testing.T) {
	ps, _, _ := buildTestSet()
	if ps.Total() != 23 {
		t.Fatalf("Total = %d, want 23", ps.Total())
	}
	wantOffsets := []int{0, 12, 15, 21}
	for i, w := range wantOffsets {
		if ps.Offset(i) != w {
			t.Fatalf("Offset(%d) = %d, want %d", i, ps.Offset(i), w)
		}
	}
}

func TestParamSetLocateRoundTrip(t *testing.T) {
	ps, _, _ := buildTestSet()
	f := func(g uint16) bool {
		gi := int(g) % ps.Total()
		p, e := ps.Locate(gi)
		return ps.Offset(p)+e == gi && e < ps.Params()[p].Len()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestParamSetLocatePanicsOutOfRange(t *testing.T) {
	ps, _, _ := buildTestSet()
	for _, bad := range []int{-1, ps.Total()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for index %d", bad)
				}
			}()
			ps.Locate(bad)
		}()
	}
}

func TestParamSetGetSet(t *testing.T) {
	ps, fc1, fc2 := buildTestSet()
	ps.Set(0, 42)
	if fc1.W.Value.Data[0] != 42 {
		t.Fatal("Set(0) must write fc1.W[0]")
	}
	ps.Set(21, 7) // fc2 bias element 0
	if fc2.B.Value.Data[0] != 7 {
		t.Fatal("Set(21) must write fc2.b[0]")
	}
	if ps.Get(21) != 7 {
		t.Fatal("Get(21) mismatch")
	}
}

func TestParamSetByName(t *testing.T) {
	ps, fc1, _ := buildTestSet()
	if ps.ByName("t/fc1/W") != fc1.W {
		t.Fatal("ByName lookup failed")
	}
	if ps.ByName("missing") != nil {
		t.Fatal("ByName must return nil for unknown names")
	}
}

func TestParamSetDuplicateNamePanics(t *testing.T) {
	ps := &ParamSet{byName: map[string]int{}}
	p := NewParam("dup", 1, xorshift.InitZero, 0, 2)
	ps.Register(p)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate name")
		}
	}()
	ps.Register(NewParam("dup", 1, xorshift.InitZero, 0, 2))
}

func TestInitialValueMatchesConstruction(t *testing.T) {
	ps, _, _ := buildTestSet()
	// Right after construction, every value equals its regenerated initial.
	for g := 0; g < ps.Total(); g++ {
		if ps.Get(g) != ps.InitialValue(g) {
			t.Fatalf("index %d: value %v != initial %v", g, ps.Get(g), ps.InitialValue(g))
		}
	}
}

func TestInitialValueStableAfterMutation(t *testing.T) {
	ps, _, _ := buildTestSet()
	before := make([]float32, ps.Total())
	for g := range before {
		before[g] = ps.InitialValue(g)
	}
	for g := 0; g < ps.Total(); g++ {
		ps.Set(g, 123)
	}
	for g := range before {
		if ps.InitialValue(g) != before[g] {
			t.Fatal("InitialValue must be independent of current values")
		}
	}
}

func TestSnapshotRestore(t *testing.T) {
	ps, _, _ := buildTestSet()
	snap := ps.Snapshot()
	for g := 0; g < ps.Total(); g++ {
		ps.Set(g, -1)
	}
	ps.Restore(snap)
	for g := 0; g < ps.Total(); g++ {
		if ps.Get(g) != snap[g] {
			t.Fatal("Restore did not round-trip")
		}
	}
}

func TestRestoreLengthPanics(t *testing.T) {
	ps, _, _ := buildTestSet()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong Restore length")
		}
	}()
	ps.Restore(make([]float32, 3))
}

func TestZeroGrads(t *testing.T) {
	ps, fc1, _ := buildTestSet()
	fc1.W.Grad.Fill(5)
	ps.ZeroGrads()
	for _, v := range fc1.W.Grad.Data {
		if v != 0 {
			t.Fatal("ZeroGrads failed")
		}
	}
}

func TestNameIDStable(t *testing.T) {
	if NameID("layer/W") != NameID("layer/W") {
		t.Fatal("NameID must be deterministic")
	}
	if NameID("a") == NameID("b") {
		t.Fatal("distinct names must hash differently")
	}
}

func TestModelStepProducesGradients(t *testing.T) {
	net := NewSequential("m",
		NewLinear("m/fc1", 5, 8, 16),
		NewReLU("m/r1"),
		NewLinear("m/fc2", 5, 16, 4),
	)
	m := NewModel(net, 5)
	x := randInput(30, 6, 8)
	loss, acc := m.Step(x, []int{0, 1, 2, 3, 0, 1})
	if loss <= 0 {
		t.Fatalf("loss = %v, want positive", loss)
	}
	if acc < 0 || acc > 1 {
		t.Fatalf("acc = %v out of range", acc)
	}
	var nonzero int
	for _, p := range m.Set.Params() {
		for _, g := range p.Grad.Data {
			if g != 0 {
				nonzero++
			}
		}
	}
	if nonzero == 0 {
		t.Fatal("Step produced no gradients")
	}
}

func TestModelEvalDoesNotTouchGrads(t *testing.T) {
	net := NewSequential("m2", NewLinear("m2/fc", 6, 4, 2))
	m := NewModel(net, 6)
	m.Set.ZeroGrads()
	m.Eval(randInput(31, 3, 4), []int{0, 1, 0})
	for _, p := range m.Set.Params() {
		for _, g := range p.Grad.Data {
			if g != 0 {
				t.Fatal("Eval must not write gradients")
			}
		}
	}
}

func TestSequentialAppendAndLayers(t *testing.T) {
	s := NewSequential("s")
	s.Append(NewReLU("s/r"))
	if len(s.Layers()) != 1 {
		t.Fatal("Append failed")
	}
}

func TestLinearShapePanic(t *testing.T) {
	fc := NewLinear("p/fc", 1, 4, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong input width")
		}
	}()
	fc.Forward(tensor.New(3, 5), true)
}

func TestBackwardBeforeForwardPanics(t *testing.T) {
	fc := NewLinear("q/fc", 1, 4, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Backward before Forward")
		}
	}()
	fc.Backward(tensor.New(3, 2))
}
