package dropback_test

import (
	"fmt"
	"testing"

	"dropback"
	"dropback/internal/tensor"
)

// TestModelByName pins the command-line model registry: each name builds a
// model whose input shape is the one reported, and the MLPs refuse a
// variational variant.
func TestModelByName(t *testing.T) {
	for _, name := range []string{"mnist100", "lenet300", "vggs-reduced", "wrn-reduced", "densenet-reduced"} {
		m, shape, err := dropback.ModelByName(name, 1, false)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		x := tensor.New(append([]int{2}, shape...)...)
		if out := m.Net.Forward(x, false); out.Shape[0] != 2 || out.Shape[1] != 10 {
			t.Fatalf("%s: forward over %v gives %v, want [2 10]", name, x.Shape, out.Shape)
		}
	}
	for _, name := range []string{"mnist100", "lenet300"} {
		if _, _, err := dropback.ModelByName(name, 1, true); err == nil {
			t.Fatalf("%s: variational variant accepted", name)
		}
	}
	if _, _, err := dropback.ModelByName("resnet", 1, false); fmt.Sprint(err) != `unknown model "resnet"` {
		t.Fatalf("unknown model: got %v", err)
	}
}
