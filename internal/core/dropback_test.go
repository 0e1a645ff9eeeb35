package core

import (
	"testing"

	"dropback/internal/nn"
	"dropback/internal/tensor"
)

// makeSet builds a small two-layer parameter set for constraint tests.
func makeSet() (*nn.ParamSet, *nn.Linear, *nn.Linear) {
	fc1 := nn.NewLinear("c/fc1", 123, 6, 5) // 30 + 5 = 35
	fc2 := nn.NewLinear("c/fc2", 123, 5, 3) // 15 + 3 = 18
	return nn.NewParamSet(fc1, fc2), fc1, fc2
}

// perturb applies a fake SGD update of the given magnitude to chosen global
// indices.
func perturb(set *nn.ParamSet, deltas map[int]float32) {
	for g, d := range deltas {
		set.Set(g, set.InitialValue(g)+d)
	}
}

func TestApplyKeepsExactlyBudget(t *testing.T) {
	set, _, _ := makeSet()
	db := New(set, Config{Budget: 7})
	perturbAll(set, 0.01)
	db.Apply()
	if got := db.TrackedCount(); got != 7 {
		t.Fatalf("tracked count = %d, want 7", got)
	}
}

// perturbAll adds a distinct small delta to every weight.
func perturbAll(set *nn.ParamSet, base float32) {
	for g := 0; g < set.Total(); g++ {
		set.Set(g, set.InitialValue(g)+base*float32(g+1))
	}
}

func TestApplyRegeneratesUntrackedExactly(t *testing.T) {
	set, _, _ := makeSet()
	db := New(set, Config{Budget: 5})
	perturbAll(set, 0.01)
	db.Apply()
	mask := db.Mask()
	for g := 0; g < set.Total(); g++ {
		if mask[g] {
			continue
		}
		if set.Get(g) != set.InitialValue(g) {
			t.Fatalf("untracked weight %d = %v, want regenerated init %v", g, set.Get(g), set.InitialValue(g))
		}
	}
}

func TestApplyKeepsHighestAccumulated(t *testing.T) {
	set, _, _ := makeSet()
	db := New(set, Config{Budget: 3})
	// Give indices 10, 20, 30 the largest diffs.
	perturb(set, map[int]float32{10: 5, 20: -7, 30: 6, 40: 0.001, 2: 0.002})
	db.Apply()
	mask := db.Mask()
	for _, g := range []int{10, 20, 30} {
		if !mask[g] {
			t.Fatalf("index %d with large accumulated gradient not tracked", g)
		}
	}
	if mask[40] || mask[2] {
		t.Fatal("small-gradient weights must not be tracked")
	}
	// Tracked weights keep their values.
	if set.Get(20) != set.InitialValue(20)-7 {
		t.Fatal("tracked weight was modified")
	}
}

// TestScoresAreAbsoluteDiffFromInit pins the score definition on dense
// storage: |W_t − W_0| per weight, zero for an unmoved weight and positive
// for one moved below its init.
func TestScoresAreAbsoluteDiffFromInit(t *testing.T) {
	set, _, _ := makeSet()
	db := New(set, Config{Budget: 2})
	perturb(set, map[int]float32{3: -4, 5: 2})
	db.Apply()
	for g, d := range db.AccumulatedGradients() {
		switch g {
		case 3:
			if d < 3.99 || d > 4.01 {
				t.Fatalf("score of a weight moved by -4 = %v, want ~4", d)
			}
		case 5:
			if d < 1.99 || d > 2.01 {
				t.Fatalf("score of a weight moved by +2 = %v, want ~2", d)
			}
		default:
			if d != 0 {
				t.Fatalf("unmoved weight %d scored %v", g, d)
			}
		}
	}
}

func TestAccumulatedGradientGrowsAcrossSteps(t *testing.T) {
	set, _, _ := makeSet()
	db := New(set, Config{Budget: 2})
	// Step 1: index 4 moves by 1.
	perturb(set, map[int]float32{4: 1})
	db.Apply()
	// Step 2: index 4 moves by another 1 (tracked, so from its updated value).
	set.Set(4, set.Get(4)+1)
	db.Apply()
	scores := db.AccumulatedGradients()
	if scores[4] < 1.99 || scores[4] > 2.01 {
		t.Fatalf("accumulated gradient = %v, want ~2 (history preserved)", scores[4])
	}
}

func TestUntrackedWeightAccumulationResets(t *testing.T) {
	// An untracked weight's score only reflects the current step: after it
	// is regenerated, past updates leave no trace. This is the "DropBack"
	// forgetting semantics.
	set, _, _ := makeSet()
	db := New(set, Config{Budget: 1})
	perturb(set, map[int]float32{0: 10, 7: 1}) // 0 wins, 7 forgotten
	db.Apply()
	perturb(set, map[int]float32{7: 1}) // 7 bids again with only 1
	db.Apply()
	scores := db.AccumulatedGradients()
	if scores[7] > 1.01 {
		t.Fatalf("untracked score = %v, want ~1 (no accumulation)", scores[7])
	}
}

func TestSwapTelemetry(t *testing.T) {
	set, _, _ := makeSet()
	db := New(set, Config{Budget: 2})
	perturb(set, map[int]float32{1: 5, 2: 4})
	db.Apply() // first step: no previous set, swap = 0 recorded
	// New winners displace both.
	perturb(set, map[int]float32{10: 9, 11: 8, 1: 0, 2: 0})
	set.Set(1, set.InitialValue(1))
	set.Set(2, set.InitialValue(2))
	db.Apply()
	hist := db.SwapHistory()
	if len(hist) != 2 {
		t.Fatalf("history length = %d, want 2", len(hist))
	}
	if hist[0] != 0 {
		t.Fatalf("first-step swaps = %d, want 0", hist[0])
	}
	if hist[1] != 2 {
		t.Fatalf("second-step swaps = %d, want 2", hist[1])
	}
}

func TestFreezeFixesTrackedSet(t *testing.T) {
	set, _, _ := makeSet()
	db := New(set, Config{Budget: 2, FreezeAfterEpoch: 0})
	perturb(set, map[int]float32{3: 5, 4: 4})
	db.Apply()
	db.MaybeFreezeAtEpochEnd(0)
	if !db.Frozen() {
		t.Fatal("constraint must freeze at configured epoch")
	}
	frozenMask := db.Mask()
	// A would-be new winner appears, but the set must not change.
	perturb(set, map[int]float32{50: 100})
	db.Apply()
	after := db.Mask()
	for i := range frozenMask {
		if frozenMask[i] != after[i] {
			t.Fatal("frozen tracked set changed")
		}
	}
	// And the interloper was regenerated away.
	if set.Get(50) != set.InitialValue(50) {
		t.Fatal("untracked weight survived a frozen Apply")
	}
}

func TestFreezeBeforeAnyApplySelectsFirst(t *testing.T) {
	set, _, _ := makeSet()
	db := New(set, Config{Budget: 3})
	perturb(set, map[int]float32{1: 3, 2: 2, 3: 1})
	db.Freeze()
	if db.TrackedCount() != 3 {
		t.Fatalf("freeze-before-apply tracked %d, want 3", db.TrackedCount())
	}
	mask := db.Mask()
	if !mask[1] || !mask[2] || !mask[3] {
		t.Fatal("freeze must select current top-k first")
	}
}

func TestNeverFreezeByDefault(t *testing.T) {
	set, _, _ := makeSet()
	db := New(set, Config{Budget: 2, FreezeAfterEpoch: -1})
	for e := 0; e < 100; e++ {
		db.MaybeFreezeAtEpochEnd(e)
	}
	if db.Frozen() {
		t.Fatal("negative FreezeAfterEpoch must never freeze")
	}
}

func TestDryRunDoesNotConstrain(t *testing.T) {
	set, _, _ := makeSet()
	db := New(set, Config{Budget: 1, DryRun: true})
	perturbAll(set, 0.01)
	snap := set.Snapshot()
	db.Apply()
	for g, v := range set.Snapshot() {
		if v != snap[g] {
			t.Fatal("dry-run Apply must not modify weights")
		}
	}
	if db.TrackedCount() != 1 {
		t.Fatal("dry-run must still compute the tracked set")
	}
}

func TestCompressionRatio(t *testing.T) {
	set, _, _ := makeSet() // 53 params
	db := New(set, Config{Budget: 10})
	want := 5.3
	if got := db.CompressionRatio(); got < want-0.01 || got > want+0.01 {
		t.Fatalf("compression = %v, want %v", got, want)
	}
}

func TestBudgetClampedToTotal(t *testing.T) {
	set, _, _ := makeSet()
	db := New(set, Config{Budget: 10000})
	if db.Budget() != set.Total() {
		t.Fatalf("budget = %d, want clamped to %d", db.Budget(), set.Total())
	}
}

func TestZeroBudgetPanics(t *testing.T) {
	set, _, _ := makeSet()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero budget")
		}
	}()
	New(set, Config{Budget: 0})
}

func TestRetentionByParam(t *testing.T) {
	set, _, _ := makeSet()
	db := New(set, Config{Budget: 4})
	// Put two winners in fc1/W (indices < 30) and two in fc2/W (35..49).
	perturb(set, map[int]float32{0: 9, 1: 8, 36: 7, 37: 6})
	db.Apply()
	rs := db.RetentionByParam()
	if len(rs) != 4 {
		t.Fatalf("got %d param retentions, want 4", len(rs))
	}
	if rs[0].Name != "c/fc1/W" || rs[0].Retained != 2 {
		t.Fatalf("fc1/W retention = %+v", rs[0])
	}
	if rs[2].Name != "c/fc2/W" || rs[2].Retained != 2 {
		t.Fatalf("fc2/W retention = %+v", rs[2])
	}
	if rs[0].Compression() != 15 { // 30/2
		t.Fatalf("fc1/W compression = %v, want 15", rs[0].Compression())
	}
}

func TestRetentionByLayerAggregates(t *testing.T) {
	set, _, _ := makeSet()
	db := New(set, Config{Budget: 4})
	perturb(set, map[int]float32{0: 9, 31: 8, 36: 7, 50: 6}) // fc1/W, fc1/b, fc2/W, fc2/b
	db.Apply()
	layers := db.RetentionByLayer()
	if len(layers) != 2 {
		t.Fatalf("got %d layers, want 2", len(layers))
	}
	if layers[0].Name != "c/fc1" || layers[0].Total != 35 || layers[0].Retained != 2 {
		t.Fatalf("fc1 aggregate = %+v", layers[0])
	}
	if layers[1].Name != "c/fc2" || layers[1].Total != 18 || layers[1].Retained != 2 {
		t.Fatalf("fc2 aggregate = %+v", layers[1])
	}
}

func TestRegenerationCounting(t *testing.T) {
	set, _, _ := makeSet()
	db := New(set, Config{Budget: 3})
	perturbAll(set, 0.01)
	db.Apply()
	wantRegen := int64(set.Total() - 3)
	if db.Regenerations() != wantRegen {
		t.Fatalf("regenerations = %d, want %d", db.Regenerations(), wantRegen)
	}
	if db.TrackedWrites() != 3 {
		t.Fatalf("tracked writes = %d, want 3", db.TrackedWrites())
	}
}

func TestMaskIsACopy(t *testing.T) {
	set, _, _ := makeSet()
	db := New(set, Config{Budget: 2})
	perturbAll(set, 0.01)
	db.Apply()
	m := db.Mask()
	m[0] = !m[0]
	m2 := db.Mask()
	if m[0] == m2[0] {
		t.Fatal("Mask must return a defensive copy")
	}
}

func TestEndToEndTrainingWithDropBack(t *testing.T) {
	// A tiny MLP must still learn a separable problem under a tight budget,
	// with untracked weights pinned to their regenerated inits throughout.
	net := nn.NewSequential("e2e",
		nn.NewLinear("e2e/fc1", 31, 2, 12),
		nn.NewReLU("e2e/r"),
		nn.NewLinear("e2e/fc2", 31, 12, 2),
	)
	m := nn.NewModel(net, 31)
	db := New(m.Set, Config{Budget: m.Set.Total() / 3, FreezeAfterEpoch: -1})
	x := tensor.New(16, 2)
	labels := make([]int, 16)
	for i := range labels {
		if i%2 == 0 {
			x.Set(2, i, 0)
		} else {
			x.Set(2, i, 1)
			labels[i] = 1
		}
	}
	for it := 0; it < 300; it++ {
		m.Step(x, labels)
		for _, p := range m.Set.Params() {
			tensor.AXPY(-0.3, p.Grad, p.Value)
		}
		db.Apply()
	}
	_, acc := m.Eval(x, labels)
	if acc != 1 {
		t.Fatalf("DropBack-constrained accuracy = %v, want 1", acc)
	}
	// Invariant: every untracked weight equals its regenerated init.
	mask := db.Mask()
	for g := 0; g < m.Set.Total(); g++ {
		if !mask[g] && m.Set.Get(g) != m.Set.InitialValue(g) {
			t.Fatalf("untracked weight %d deviates from init", g)
		}
	}
}
