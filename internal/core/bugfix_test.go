package core

import (
	"testing"

	"dropback/internal/nn"
)

// skewedSet builds a parameter space whose final tensor is tiny: two
// Linears yield tensors of 30, 3, 6 and 2 weights. With Budget 39 the
// floor shares are 28+2+5 and the last tensor must absorb 4 — more than
// its 2 weights. Before the fix the surplus was silently dropped and only
// 37 weights were tracked.
func skewedSet() *nn.ParamSet {
	fc1 := nn.NewLinear("s/fc1", 7, 10, 3) // W: 30, B: 3
	fc2 := nn.NewLinear("s/fc2", 7, 3, 2)  // W: 6, B: 2
	return nn.NewParamSet(fc1, fc2)
}

func TestPerLayerBudgetExactOnSkewedSizes(t *testing.T) {
	set := skewedSet()
	db := New(set, Config{Budget: 39, PerLayerBudget: true})
	perturbAll(set, 0.01)
	db.Apply()
	if got := db.TrackedCount(); got != 39 {
		t.Fatalf("tracked count = %d, want the full budget 39", got)
	}
	// Per-tensor allocation must never exceed the tensor's size.
	for _, r := range db.RetentionByParam() {
		if r.Retained > r.Total {
			t.Fatalf("tensor %s retains %d of %d", r.Name, r.Retained, r.Total)
		}
	}
}

func TestPerLayerBudgetExactAcrossBudgets(t *testing.T) {
	set := skewedSet()
	for budget := 1; budget <= set.Total(); budget++ {
		db := New(set, Config{Budget: budget, PerLayerBudget: true})
		perturbAll(set, 0.01)
		db.Apply()
		if got := db.TrackedCount(); got != budget {
			t.Fatalf("budget %d: tracked count = %d", budget, got)
		}
	}
}

func TestDisableSwapHistoryKeepsSummary(t *testing.T) {
	set, _, _ := makeSet()
	db := New(set, Config{Budget: 7, DisableSwapHistory: true})
	for i := 0; i < 5; i++ {
		perturbAll(set, 0.01*float32(i+1))
		db.Apply()
	}
	if h := db.SwapHistory(); len(h) != 0 {
		t.Fatalf("series kept despite DisableSwapHistory: %v", h)
	}
	s := db.Swaps()
	if s.Steps != 5 {
		t.Fatalf("summary steps = %d, want 5", s.Steps)
	}
	if st := db.State(); st.Swaps != s {
		t.Fatalf("State summary %+v differs from live summary %+v", st.Swaps, s)
	}
}

// summarizeSwaps collapses a full per-step swap series into its summary.
func summarizeSwaps(series []int) SwapSummary {
	var s SwapSummary
	for _, v := range series {
		s.Add(v)
	}
	return s
}

func TestSwapSummaryMatchesSeries(t *testing.T) {
	set, _, _ := makeSet()
	db := New(set, Config{Budget: 7})
	for i := 0; i < 6; i++ {
		perturbAll(set, 0.01*float32(i+1))
		db.Apply()
	}
	if got, want := db.Swaps(), summarizeSwaps(db.SwapHistory()); got != want {
		t.Fatalf("summary %+v, series summarizes to %+v", got, want)
	}
}

// TestRestoreStateTruncatesSeriesToSnapshot covers the divergence-rollback
// path: the in-memory series is deterministic, so rewinding to an earlier
// State must cut the series back to the captured prefix.
func TestRestoreStateTruncatesSeriesToSnapshot(t *testing.T) {
	set, _, _ := makeSet()
	db := New(set, Config{Budget: 7})
	for i := 0; i < 3; i++ {
		perturbAll(set, 0.01*float32(i+1))
		db.Apply()
	}
	st := db.State()
	prefix := db.SwapHistory()
	for i := 3; i < 6; i++ {
		perturbAll(set, 0.01*float32(i+1))
		db.Apply()
	}
	if err := db.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	got := db.SwapHistory()
	if len(got) != len(prefix) {
		t.Fatalf("series length after rollback = %d, want %d", len(got), len(prefix))
	}
	for i := range prefix {
		if got[i] != prefix[i] {
			t.Fatalf("series[%d] = %d, want %d", i, got[i], prefix[i])
		}
	}
	if db.Swaps() != st.Swaps {
		t.Fatalf("summary after rollback %+v, want %+v", db.Swaps(), st.Swaps)
	}
}

func TestTrackedCountAllocFree(t *testing.T) {
	set, _, _ := makeSet()
	db := New(set, Config{Budget: 7})
	perturbAll(set, 0.01)
	db.Apply()
	if allocs := testing.AllocsPerRun(100, func() { db.TrackedCount() }); allocs != 0 {
		t.Fatalf("TrackedCount allocates %.1f objects per call before freeze", allocs)
	}
	if got := db.TrackedCount(); got != 7 {
		t.Fatalf("tracked count = %d, want 7", got)
	}
	db.Freeze()
	if allocs := testing.AllocsPerRun(100, func() { db.TrackedCount() }); allocs != 0 {
		t.Fatalf("TrackedCount allocates %.1f objects per call after freeze", allocs)
	}
	if got := db.TrackedCount(); got != 7 {
		t.Fatalf("tracked count after freeze = %d, want 7", got)
	}
}
