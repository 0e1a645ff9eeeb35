package core_test

import (
	"fmt"

	"dropback/internal/core"
	"dropback/internal/nn"
	"dropback/internal/xorshift"
)

// ExampleSelectTopK shows the deterministic top-k selection.
func ExampleSelectTopK() {
	scores := []float32{0.1, 0.9, 0.3, 0.9, 0.0}
	mask := core.SelectTopK(scores, 2)
	fmt.Println(mask)
	// Ties break toward lower indices, so index 1 and 3 are selected.
	// Output: [false true false true false]
}

// ExampleDropBack demonstrates the constraint cycle: update weights, apply,
// observe that untracked weights return to their regenerated inits.
func ExampleDropBack() {
	fc := nn.NewLinear("ex/fc", 1, 2, 2) // 6 parameters
	set := nn.NewParamSet(fc)
	db := core.New(set, core.Config{Budget: 2})

	// Pretend an SGD step moved two weights a lot and the rest a little.
	set.Set(0, set.InitialValue(0)+1.0)
	set.Set(3, set.InitialValue(3)-2.0)
	set.Set(5, set.InitialValue(5)+0.001)

	db.Apply()
	fmt.Printf("tracked: %d of %d\n", db.TrackedCount(), set.Total())
	fmt.Printf("weight 5 regenerated: %v\n", set.Get(5) == set.InitialValue(5))
	fmt.Printf("weight 3 kept: %v\n", set.Get(3) == set.InitialValue(3)-2.0)
	// Output:
	// tracked: 2 of 6
	// weight 5 regenerated: true
	// weight 3 kept: true
}

// ExampleDropBack_freeze shows tracked-set freezing.
func ExampleDropBack_freeze() {
	fc := nn.NewLinear("exf/fc", 2, 2, 2)
	set := nn.NewParamSet(fc)
	db := core.New(set, core.Config{Budget: 1, FreezeAfterEpoch: 0})

	set.Set(1, set.InitialValue(1)+5) // weight 1 wins
	db.Apply()
	db.MaybeFreezeAtEpochEnd(0)

	// A bigger mover appears, but the set is frozen.
	set.Set(4, set.InitialValue(4)+50)
	db.Apply()
	fmt.Printf("frozen: %v, weight 4 regenerated: %v\n",
		db.Frozen(), set.Get(4) == set.InitialValue(4))
	// Output: frozen: true, weight 4 regenerated: true
}

// ExampleDropBack_regeneration connects the constraint to the xorshift
// contract: initial values are recomputed, never stored.
func ExampleDropBack_regeneration() {
	in := xorshift.Init{Kind: xorshift.InitScaledNormal, Seed: 42, Scale: 0.1}
	a := in.Regenerate(7)
	b := in.Regenerate(7) // any later access, any order
	fmt.Println(a == b)
	// Output: true
}
