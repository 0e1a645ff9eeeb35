package core

import (
	"testing"
	"testing/quick"

	"dropback/internal/nn"
	"dropback/internal/xorshift"
)

// randomizeWeights perturbs every weight by a seed-determined offset.
func randomizeWeights(set *nn.ParamSet, seed uint64) {
	for g := 0; g < set.Total(); g++ {
		set.Set(g, set.InitialValue(g)+0.1*xorshift.IndexedNormal(seed, uint64(g)))
	}
}

func TestApplyIsIdempotent(t *testing.T) {
	// Two consecutive Applies with no intervening update must leave the
	// weights unchanged: the second selection sees identical scores.
	f := func(seed uint64, kRaw uint8) bool {
		set, _, _ := makeSet()
		k := int(kRaw)%set.Total() + 1
		db := New(set, Config{Budget: k})
		randomizeWeights(set, seed)
		db.Apply()
		first := set.Snapshot()
		db.Apply()
		second := set.Snapshot()
		for i := range first {
			if first[i] != second[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestApplyNeverModifiesTrackedWeights(t *testing.T) {
	f := func(seed uint64) bool {
		set, _, _ := makeSet()
		db := New(set, Config{Budget: 10})
		randomizeWeights(set, seed)
		before := set.Snapshot()
		db.Apply()
		mask := db.Mask()
		for g := 0; g < set.Total(); g++ {
			if mask[g] && set.Get(g) != before[g] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestApplyInvariantAtMostBudgetDeviations(t *testing.T) {
	// The fundamental memory invariant: after any Apply, at most k weights
	// differ from their regenerated initialization values.
	f := func(seed uint64, kRaw uint8) bool {
		set, _, _ := makeSet()
		k := int(kRaw)%set.Total() + 1
		db := New(set, Config{Budget: k})
		randomizeWeights(set, seed)
		db.Apply()
		deviating := 0
		for g := 0; g < set.Total(); g++ {
			if set.Get(g) != set.InitialValue(g) {
				deviating++
			}
		}
		return deviating <= k
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestFrozenSwapHistoryStaysZero(t *testing.T) {
	set, _, _ := makeSet()
	db := New(set, Config{Budget: 4})
	randomizeWeights(set, 1)
	db.Apply()
	db.Freeze()
	for step := uint64(0); step < 4; step++ {
		randomizeWeights(set, step+2)
		db.Apply()
	}
	hist := db.SwapHistory()
	for i := 1; i < len(hist); i++ {
		if hist[i] != 0 {
			t.Fatalf("frozen step %d recorded %d swaps", i, hist[i])
		}
	}
}

func TestDryRunPlusFreezeStillObserves(t *testing.T) {
	set, _, _ := makeSet()
	db := New(set, Config{Budget: 3, DryRun: true})
	randomizeWeights(set, 5)
	db.Apply()
	db.Freeze()
	snap := set.Snapshot()
	randomizeWeights(set, 6)
	db.Apply()
	// Dry-run must not regenerate even when frozen.
	for g := 0; g < set.Total(); g++ {
		if set.Get(g) == snap[g] {
			continue
		}
		// values changed by randomizeWeights, which is expected; the check
		// is that Apply didn't reset them to init.
	}
	deviating := 0
	for g := 0; g < set.Total(); g++ {
		if set.Get(g) != set.InitialValue(g) {
			deviating++
		}
	}
	if deviating <= db.Budget() {
		t.Fatal("dry-run apply appears to have constrained the weights")
	}
}

func TestRetentionSumsToTrackedCount(t *testing.T) {
	f := func(seed uint64, kRaw uint8) bool {
		set, _, _ := makeSet()
		k := int(kRaw)%set.Total() + 1
		db := New(set, Config{Budget: k})
		randomizeWeights(set, seed)
		db.Apply()
		sum := 0
		for _, r := range db.RetentionByParam() {
			sum += r.Retained
		}
		return sum == db.TrackedCount() && sum == k
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
